"""Every canonical triple, twist and product up to dim 128, written and read back.

The documents are those of the canonical triples of Cl(p,q) with p+q even
and at most ``max_generators``, in both Dirac modes, their twists
(J replaced by J o Omega), and the natural and modified products of every
ordered pair of them whose dimension is at most ``MAX_DOCUMENT_DIM``, each
with the metadata the CLI writes.  For each document three things must
hold: the compact writer's bytes equal the per-cell writer's
(``oracles.per_cell_document_bytes``), the canonical reader keeps the
document, and its result equals that of the ``json.loads`` route.

The tier-1 suite runs p+q <= 4; the larger sweep runs as its own step:

    PYTHONPATH=src python tests/document_sweep.py 10
"""

from __future__ import annotations

import sys
from typing import Iterator

from kocalc.products import ProductMode, product_triple
from kocalc.triple_io import MAX_DOCUMENT_DIM, _read_canonical, _read_json, serialize_triple
from kocalc.triples import FiniteSpectralTriple, twist_real_structure, validate_triple

from oracles import per_cell_document_bytes
from signature_sweep import canonical_factors


def documents(max_generators: int) -> Iterator[tuple[str, FiniteSpectralTriple, dict[str, str]]]:
    """(label, triple, metadata) for every document of the sweep."""
    factors = canonical_factors(max_generators)
    for (p, q, dirac), t in factors:
        meta = {"generator": "canonical", "p": str(p), "q": str(q), "dirac": dirac}
        yield f"Cl({p},{q}) {dirac}", t, meta
        yield f"Cl({p},{q}) {dirac} twisted", twist_real_structure(t), meta
    reports = [validate_triple(t) for _key, t in factors]
    for mode in ProductMode:
        for ((p1, q1, d1), t1), r1 in zip(factors, reports):
            for ((p2, q2, d2), t2), r2 in zip(factors, reports):
                if t1.dim * t2.dim <= MAX_DOCUMENT_DIM:
                    meta = {"generator": "product", "mode": mode.value,
                            "sigma1": str((p1 - q1) % 8), "sigma2": str((p2 - q2) % 8)}
                    yield (f"Cl({p1},{q1}) {d1} x Cl({p2},{q2}) {d2} {mode.value}",
                           product_triple(t1, t2, mode, (r1, r2)), meta)


def failures(t: FiniteSpectralTriple, meta: dict[str, str]) -> list[str]:
    """What goes wrong when ``t`` with ``meta`` is written and read back."""
    data = serialize_triple(t, meta)
    found = []
    if data != per_cell_document_bytes(t, meta):
        found.append("the writer's bytes differ from the per-cell writer's")
    read = _read_canonical(data)
    if read is None:
        found.append("the canonical reader does not keep the document")
    elif read != _read_json(data) or read != (t, meta):
        found.append("the canonical reader's result differs from the json.loads route's")
    return found


def sweep(max_generators: int) -> tuple[int, list[str]]:
    """The number of documents checked, and every failure."""
    count, bad = 0, []
    for label, t, meta in documents(max_generators):
        count += 1
        bad += [f"{label}: {f}" for f in failures(t, meta)]
    return count, bad


if __name__ == "__main__":
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    checked, bad = sweep(limit)
    print(f"p+q <= {limit}: {checked} documents")
    for line in bad:
        print(f"failed: {line}")
    sys.exit(1 if bad else 0)

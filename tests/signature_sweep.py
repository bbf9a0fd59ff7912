"""Every canonical triple crossed with every other, checked against the calculus.

A thin runner over the library's replay, ``kocalc.signcalc._replay``, which
``matrix_calculus_agreement`` also runs.  The factors are the canonical
triples of Cl(p,q) with p+q even and at most ``max_generators``, in both
Dirac modes (D = 0, and D = gamma_1 where p >= 1), each of class
(p - q) mod 8.  The runner counts the statuses and names each disagreeing
cell by its two factors.

The tier-1 suite runs p+q <= 8; the larger sweep runs as its own step:

    PYTHONPATH=src python tests/signature_sweep.py 10
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import product

from kocalc.products import ProductMode
from kocalc.signcalc import _replay
from kocalc.triples import canonical_triple


def canonical_factors(max_generators: int) -> list[tuple[tuple[int, int, str], object]]:
    """((p, q, dirac mode), triple) for every even p+q from 2 up."""
    return [((p, q, mode), canonical_triple(p, q, mode))
            for n in range(2, max_generators + 1, 2)
            for p in range(n + 1)
            for q in (n - p,)
            for mode in (("zero", "gamma1") if p >= 1 else ("zero",))]


def sweep(max_generators: int) -> tuple[Counter, list[str]]:
    """The count of cells per verification status, and every cell where
    the matrices and the calculus disagree."""
    factors = canonical_factors(max_generators)
    names = [f"Cl({p},{q}) {d}" for (p, q, d), _t in factors]
    rows = _replay(((p - q) % 8, t) for (p, q, _d), t in factors)
    statuses: Counter = Counter()
    disagreeing: list[str] = []
    for (mode, first, second), r in zip(product(ProductMode, names, names), rows, strict=True):
        statuses[r.verification_status] += 1
        if not r.consistent:
            disagreeing.append(
                f"{first} x {second} {mode.value}: {r.verification_status} ko {r.matrix_ko}, "
                f"calculus {r.entry.status} {r.entry.sigma_product}")
    return statuses, disagreeing


if __name__ == "__main__":
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    counts, bad = sweep(limit)
    print(f"p+q <= {limit}: {sum(counts.values())} cells, {dict(sorted(counts.items()))}")
    for line in bad:
        print(f"disagreeing: {line}")
    sys.exit(1 if bad else 0)

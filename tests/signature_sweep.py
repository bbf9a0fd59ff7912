"""Every canonical triple crossed with every other, checked against the calculus.

The factors are the canonical triples of Cl(p,q) with p+q even and at
most ``max_generators``, in both Dirac modes (D = 0, and D = gamma_1 where
p >= 1).  Each ordered pair is multiplied in both product modes, and each
cell is judged as ``matrix_calculus_agreement`` judges it: a compatible
entry must be confirmed with the calculus's class, an incompatible one
exhibited or not falsifiable.  Each factor is validated once.

The tier-1 suite runs p+q <= 8; the larger sweep runs as its own step:

    PYTHONPATH=src python tests/signature_sweep.py 10
"""

from __future__ import annotations

import sys
from collections import Counter

from kocalc.products import ProductMode, verify_product
from kocalc.signcalc import enumerate_compatible
from kocalc.triples import canonical_triple, validate_triple


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
    factors = [(key, t, validate_triple(t)) for key, t in canonical_factors(max_generators)]
    statuses: Counter = Counter()
    disagreeing: list[str] = []
    for mode in ProductMode:
        for (p1, q1, d1), t1, r1 in factors:
            entries = enumerate_compatible((p1 - q1) % 8, mode)
            for (p2, q2, d2), t2, r2 in factors:
                entry = entries[(p2 - q2) % 8]
                v = verify_product(t1, t2, mode, (r1, r2))
                statuses[v.status] += 1
                if entry.compatible:
                    consistent = (v.status == "confirmed-compatible"
                                  and v.matrix_ko == entry.sigma_product)
                else:
                    consistent = v.status in ("confirmed-incompatible", "not-falsifiable")
                if not consistent:
                    disagreeing.append(
                        f"Cl({p1},{q1}) {d1} x Cl({p2},{q2}) {d2} {mode.value}: "
                        f"{v.status} ko {v.matrix_ko}, calculus {entry.status} "
                        f"{entry.sigma_product}")
    return statuses, disagreeing


if __name__ == "__main__":
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    counts, bad = sweep(limit)
    print(f"p+q <= {limit}: {sum(counts.values())} cells, {dict(sorted(counts.items()))}")
    for line in bad:
        print(f"disagreeing: {line}")
    sys.exit(1 if bad else 0)

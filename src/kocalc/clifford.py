"""Gamma-matrix representations of the real Clifford algebras Cl(p,q).

Conventions, fixed once and used everywhere:

* metric: eta = diag(+1 x p, -1 x q), generators satisfy
  G_a G_b + G_b G_a = 2 eta_ab * I (so spacelike generators square to +I);
* hermiticity: G_a^dagger = eta_aa G_a;
* mod-8 signature: sigma = (p - q) mod 8.

The construction is deterministic.  The Euclidean base case n = 2 is
G_1 = sigma_x, G_2 = sigma_z; the recursion n -> n + 2 tensors every
existing generator with sigma_x and appends I (x) sigma_z and
I (x) sigma_y.  The last q generators are then multiplied by i, which
flips their squares to -I and makes them anti-hermitian.  Matrices have
dimension 2^(n/2) and every entry lies in {0, +-1, +-i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InconsistentClassification,
    InvalidArgument,
    OddDimensionUnsupported,
    RealStructureNotFound,
    TooManyGenerators,
)
from .linalg import Antiunitary, ExactMatrix, GR_I, GaussianRational

SIGMA_X = ExactMatrix.from_rows([[0, 1], [1, 0]])
SIGMA_Y = ExactMatrix.from_rows([[0, GaussianRational(0, -1)], [GR_I, 0]])
SIGMA_Z = ExactMatrix.from_rows([[1, 0], [0, -1]])


def signature(p: int, q: int) -> int:
    """The mod-8 signature (p - q) mod 8."""
    return (p - q) % 8


@dataclass(frozen=True)
class CliffordRep:
    """A concrete gamma-matrix representation of Cl(p,q)."""

    p: int
    q: int
    gammas: tuple[ExactMatrix, ...]
    metric: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return self.gammas[0].rows


def _euclidean_gammas(n: int) -> list[ExactMatrix]:
    if n == 2:
        return [SIGMA_X, SIGMA_Z]
    prev = _euclidean_gammas(n - 2)
    eye = ExactMatrix.identity(prev[0].rows)
    out = [g.kron(SIGMA_X) for g in prev]
    out.append(eye.kron(SIGMA_Z))
    out.append(eye.kron(SIGMA_Y))
    return out


#: The most generators build_gammas accepts: 14 gives 128 x 128 matrices,
#: and each two more generators double the dimension.
MAX_GENERATORS = 14

#: The most generators classify_algebra accepts: it forms 2^(p+q), the real
#: dimension, which has 309 decimal digits at this bound.
MAX_CLASSIFY_GENERATORS = 1024


@lru_cache(maxsize=None)
def build_gammas(p: int, q: int) -> CliffordRep:
    """Construct the canonical generators of Cl(p,q) for even p + q, 2 <= p + q <= 14."""
    if p < 0 or q < 0:
        raise InvalidArgument("p and q must be nonnegative")
    n = p + q
    if n > MAX_GENERATORS:
        raise TooManyGenerators(
            f"p + q must be at most {MAX_GENERATORS} (matrices of dimension "
            f"{2 ** (MAX_GENERATORS // 2)}), got {n}")
    if n % 2 != 0:
        raise OddDimensionUnsupported(f"p + q must be even, got {n}")
    if n < 2:
        raise InvalidArgument("need at least two generators")
    gammas = _euclidean_gammas(n)
    for a in range(p, n):
        gammas[a] = gammas[a].scaled(GR_I)
    metric = (1,) * p + (-1,) * q
    return CliffordRep(p, q, tuple(gammas), metric)


def volume_element(rep: CliffordRep) -> ExactMatrix:
    """The ordered product G_1 G_2 ... G_n; unitary, squares to +-I."""
    theta = rep.gammas[0]
    for g in rep.gammas[1:]:
        theta = theta @ g
    return theta


def theta_square_sign(p: int, q: int) -> int:
    """Sign s with (G_1 ... G_n)^2 = s * I.

    Reordering the doubled product costs (-1)^(n(n-1)/2) and each
    generator square contributes eta_aa; for even n this equals
    (-1)^((p-q)/2).
    """
    n = p + q
    return -1 if (n * (n - 1) // 2 + q) % 2 else 1


def chirality(rep: CliffordRep) -> ExactMatrix:
    """The hermitian involution that anticommutes with every generator.

    Theta itself works when sigma mod 8 is 0 or 4 (Theta^2 = +I there);
    for sigma mod 8 in {2, 6} it is i*Theta.
    """
    sigma = signature(rep.p, rep.q)
    theta = volume_element(rep)
    if sigma % 4 == 0:
        return theta
    return theta.scaled(GR_I)


def _reality(g: ExactMatrix) -> int | None:
    """r with conj(G) = r G: +1 for a real matrix, -1 for an imaginary one,
    None for a matrix that is neither."""
    values = [v for row in g.sparse_rows for v in row]
    if not any(im for _j, _re, im in values):
        return 1
    if not any(re for _j, re, _im in values):
        return -1
    return None


def find_real_structure(rep: CliffordRep) -> Antiunitary:
    """The monomial antiunitary J: v -> K conj(v) commuting with the real algebra.

    J commutes with every real-linear combination of generator products
    exactly when K conj(G_a) = G_a K for all a.  Each generator is real or
    imaginary, conj(G_a) = r_a G_a, and for K = G_S (the ordered product
    of the G_a with a in S) the generators' anticommutation turns that
    condition into r_a = (-1)^(|S| - [a in S]).  Once the parity of |S| is
    fixed, membership is forced: S = {a : r_a = -1} for even |S| and
    S = {a : r_a = +1} for odd |S|.  The two sets partition the n
    generators and n is even, so they have the same parity and exactly
    one of them has the parity it assumes: K is the unique monomial
    solution (up to a scalar, which drops out of the condition).  The
    condition is still checked on the built K.
    """
    signs = [_reality(g) for g in rep.gammas]
    if None in signs:
        # For K = c G_S the condition reads conj(G_a) = G_S^-1 G_a G_S = +-G_a,
        # which would make G_a real or imaginary: no monomial K exists.
        raise RealStructureNotFound(
            f"Cl({rep.p},{rep.q}) has a generator that is neither real nor imaginary")
    subset = [a for a, r in enumerate(signs) if r == -1]
    if len(subset) % 2:
        subset = [a for a, r in enumerate(signs) if r == 1]
    k = ExactMatrix.identity(rep.dim)
    for a in subset:
        k = k @ rep.gammas[a]
    if not all((k @ g.conj()) == (g @ k) for g in rep.gammas):
        raise RealStructureNotFound(f"no monomial real structure for Cl({rep.p},{rep.q})")
    return Antiunitary(k)


# --- classification -------------------------------------------------------------

_BASE_BY_SIGMA = {
    0: "R", 1: "R+R", 2: "R", 3: "C",
    4: "H", 5: "H+H", 6: "H", 7: "C",
}
_BASE_REAL_DIM = {"R": 1, "C": 2, "H": 4}

_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


@dataclass(frozen=True)
class AlgebraClass:
    """Cl(p,q) as a matrix algebra over R, C or H (or two such summands)."""

    base: str            # "R", "C", "H", "R+R" or "H+H"
    matrix_size: int     # k in M_k(base summand)
    unitary_group_label: str
    connected_note: str | None = None

    @property
    def summands(self) -> int:
        return 2 if "+" in self.base else 1

    def algebra_name(self) -> str:
        stem = self.base.split("+")[0]
        if self.matrix_size == 1:
            one = stem
        else:
            one = f"M{str(self.matrix_size).translate(_SUBSCRIPTS)}({stem})"
        return f"{one} ⊕ {one}" if self.summands == 2 else one


def _unitary_label(stem: str, k: int) -> str:
    if stem == "R":
        return f"O({k})"
    if stem == "C":
        return f"U({k})"
    return f"Sp({k})"


def classify_algebra(p: int, q: int) -> AlgebraClass:
    """Table-driven classification of Cl(p,q) from sigma and the real dimension.

    The base division algebra depends only on sigma mod 8; the matrix
    size k is then pinned by dim_R Cl(p,q) = 2^(p+q) = (summands) * k^2 *
    dim_R(base).
    """
    if p < 0 or q < 0:
        raise InvalidArgument("p and q must be nonnegative")
    if p + q > MAX_CLASSIFY_GENERATORS:
        raise TooManyGenerators(
            f"p + q must be at most {MAX_CLASSIFY_GENERATORS} to classify Cl(p,q), "
            f"got {p + q}")
    sigma = signature(p, q)
    base = _BASE_BY_SIGMA[sigma]
    stem = base.split("+")[0]
    summands = 2 if "+" in base else 1
    total = 2 ** (p + q)
    k_sq, rem = divmod(total, _BASE_REAL_DIM[stem] * summands)
    if rem:
        raise InconsistentClassification(f"real dimension {total} is not divisible as required")
    k = math.isqrt(k_sq)
    if k * k != k_sq:
        raise InconsistentClassification(f"matrix size squared {k_sq} is not a perfect square")
    label = _unitary_label(stem, k)
    if summands == 2:
        label = f"{label} × {label}"
    if stem == "H" and k == 1:
        label = f"{label} ≅ SU(2) × SU(2)" if summands == 2 else f"{label} ≅ SU(2)"
    note = "SO(2) ≅ U(1)" if stem == "R" and k == 2 and summands == 1 else None
    return AlgebraClass(base=base, matrix_size=k, unitary_group_label=label, connected_note=note)

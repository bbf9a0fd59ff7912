"""Independent test oracles: sympy, and the kernels the package replaced.

These deliberately re-derive results through a different formulation
(sympy rational matrices and nullspaces, dense triple loops over the
``entries`` view instead of the package's sparse rows, a scalar whose
parts are always ``Fraction`` instead of ``int`` when integral, or a scan
of all 2^n generator subset products instead of the sign calculus that
picks the real structure's subset) so that agreement between the two
routes is meaningful.  Nothing in the package
imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

import sympy

from kocalc.clifford import CliffordRep
from kocalc.errors import RealStructureNotFound
from kocalc.linalg import Antiunitary, ExactMatrix, GaussianRational

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True, eq=False)
class FractionGaussianRational:
    """The package's original scalar: a + b*i with both parts always Fraction."""

    re: Fraction = _F0
    im: Fraction = _F0

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FractionGaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    @staticmethod
    def coerce(x) -> "FractionGaussianRational":
        if isinstance(x, FractionGaussianRational):
            return x
        return FractionGaussianRational(_as_fraction(x))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other) -> "FractionGaussianRational":
        o = FractionGaussianRational.coerce(other)
        return FractionGaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "FractionGaussianRational":
        o = FractionGaussianRational.coerce(other)
        return FractionGaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "FractionGaussianRational":
        return FractionGaussianRational.coerce(other) - self

    def __mul__(self, other) -> "FractionGaussianRational":
        o = FractionGaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return FractionGaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FractionGaussianRational":
        o = FractionGaussianRational.coerce(other)
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __neg__(self) -> "FractionGaussianRational":
        return FractionGaussianRational(-self.re, -self.im)

    def conjugate(self) -> "FractionGaussianRational":
        return FractionGaussianRational(self.re, -self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if self.im == 1:
            unit = "i"
        elif self.im == -1:
            unit = "-i"
        else:
            unit = f"{self.im}i"
        if not self.re:
            return unit
        joiner = "+" if self.im > 0 else ""
        return f"{self.re}{joiner}{unit}"


def dense_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The matrix product as a plain triple loop over the dense entries."""
    assert a.cols == b.rows
    n, k, m = a.rows, a.cols, b.cols
    ea, eb = a.entries, b.entries
    out: list[GaussianRational] = []
    for i in range(n):
        for j in range(m):
            acc_re = acc_im = _F0
            for t in range(k):
                x, y = ea[i * k + t], eb[t * m + j]
                acc_re += x.re * y.re - x.im * y.im
                acc_im += x.re * y.im + x.im * y.re
            out.append(GaussianRational(acc_re, acc_im))
    return ExactMatrix(n, m, out)


def dense_rank(m: ExactMatrix) -> int:
    """Rank by Gaussian elimination on a dense grid of the entries.

    Same pivot rule as the package: columns left to right, and within a
    column the first row (top to bottom) with a nonzero entry.
    """
    grid = [list(m.row(i)) for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if grid[i][c]), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pivot = grid[r][c]
        for i in range(r + 1, m.rows):
            if grid[i][c]:
                factor = grid[i][c] / pivot
                for j in range(c, m.cols):
                    grid[i][j] = grid[i][j] - factor * grid[r][j]
        r += 1
        if r == m.rows:
            break
    return r


def _lex_subset_products(rep: CliffordRep) -> Iterator[tuple[tuple[int, ...], ExactMatrix]]:
    """All ordered generator products G_S, subsets in lexicographic order.

    Subsets of {1..n} are visited as increasing tuples sorted
    lexicographically: (), (1,), (1,2), ..., (1,n), (2,), ...  Each
    product extends its prefix by one right-multiplication.
    """
    n = rep.n

    def rec(prefix: tuple[int, ...], mat: ExactMatrix, start: int):
        yield prefix, mat
        for j in range(start, n + 1):
            yield from rec(prefix + (j,), mat @ rep.gammas[j - 1], j + 1)

    yield from rec((), ExactMatrix.identity(rep.dim), 1)


def lex_subset_real_structure(rep: CliffordRep) -> Antiunitary:
    """The package's original search: the first generator subset product K,
    in lexicographic subset order, with K conj(G_a) = G_a K for every a.
    (A scalar multiple of K passes or fails with K, so none is tried.)"""
    for _subset, k in _lex_subset_products(rep):
        if all((k @ g.conj()) == (g @ k) for g in rep.gammas):
            return Antiunitary(k)
    raise RealStructureNotFound(f"no monomial real structure for Cl({rep.p},{rep.q})")


def to_sympy(m: ExactMatrix) -> sympy.Matrix:
    """Convert an ExactMatrix to an exact sympy Matrix."""
    def cell(e: GaussianRational):
        return sympy.Rational(e.re.numerator, e.re.denominator) + \
            sympy.I * sympy.Rational(e.im.numerator, e.im.denominator)
    return sympy.Matrix(m.rows, m.cols, lambda i, j: cell(m.entry(i, j)))


def from_sympy(m: sympy.Matrix) -> ExactMatrix:
    """Convert an exact (rational Gaussian) sympy Matrix back."""
    rows = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            v = sympy.nsimplify(m[i, j])
            re, im = v.as_real_imag()
            row.append(GaussianRational(
                Fraction(int(sympy.numer(re)), int(sympy.denom(re))),
                Fraction(int(sympy.numer(im)), int(sympy.denom(im))),
            ))
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def sympy_rank(m: ExactMatrix) -> int:
    return to_sympy(m).rank()


def _realify(m: sympy.Matrix) -> tuple[sympy.Matrix, sympy.Matrix]:
    """Split a complex sympy matrix into exact real and imaginary parts."""
    a = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.re(m[i, j]))
    b = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.im(m[i, j]))
    return a, b


def sympy_real_fixed_dim(k: ExactMatrix,
                         linear_constraints: Sequence[ExactMatrix] = ()) -> int:
    """Real dimension of {v : K conj(v) = v} (optionally cut by U v = v).

    Writes v = x + i y and K = A + i B; the fixed-point equation becomes
    the real homogeneous system

        (A - I) x + B y = 0
        B x - (A + I) y = 0

    and each linear constraint U = P + i Q contributes

        (P - I) x - Q y = 0
        Q x + (P - I) y = 0.

    The answer is the nullspace dimension computed entirely by sympy.
    """
    n = k.rows
    a, b = _realify(to_sympy(k))
    eye = sympy.eye(n)
    blocks = [sympy.Matrix.hstack(a - eye, b),
              sympy.Matrix.hstack(b, -(a + eye))]
    for u in linear_constraints:
        p, q = _realify(to_sympy(u))
        blocks.append(sympy.Matrix.hstack(p - eye, -q))
        blocks.append(sympy.Matrix.hstack(q, p - eye))
    system = sympy.Matrix.vstack(*blocks)
    return len(system.nullspace())


def sympy_is_unitary(m: ExactMatrix) -> bool:
    s = to_sympy(m)
    return sympy.simplify(s.H * s - sympy.eye(m.rows)) == sympy.zeros(m.rows, m.cols)

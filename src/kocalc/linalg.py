"""Exact sparse linear algebra over the Gaussian rationals.

Entries are complex numbers with rational real and imaginary parts, and
nothing in this module (or anywhere else in the package) ever touches a
float.  ``GaussianRational`` is the scalar: each part is an ``int`` when
it is integral and a lowest-terms ``fractions.Fraction`` otherwise.

An ``ExactMatrix`` stores one positive integer denominator ``den`` and,
per row, the nonzero entries times ``den`` as ``(column, re, im)`` int
triples in increasing column order; a zero is never stored.  ``den`` is
reduced (it shares no factor with every numerator), so it is 1 for every
matrix the Clifford layer builds, whose entries lie in {0, +-1, +-i}.
That form is canonical: equality and hashing compare the stored rows
directly, the kernels (``@``, ``kron``, sums, ``scaled``, ``conj``,
``transpose``, ``dagger``, ``trace`` and the identity and unitarity
tests) run on plain ints, and each costs time in proportion to the
nonzeros it touches.  A kernel whose result has ``den`` > 1 divides out
the common factor before it returns.  The product is Gustavson's
row-by-row method; the matrices the Clifford layer builds are monomial
(one nonzero per row), where it is linear in the dimension.

``GaussianRational`` values appear only at the boundary: the
constructor and ``from_rows`` take them, ``entries``, ``entry``, ``row``,
``trace`` and ``str`` hand them out, and ``rank`` converts to them.

The package solves no linear systems: the Majorana-Weyl dimensions come
from the real-form theorem (see ``triples.restrict_majorana_weyl``).
``rank``, Gaussian elimination on sparse rows, is the one elimination
left; nothing in the package calls it, and it stays public because the
benchmark's tracer (``kobench/tracing.py``) wraps it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, NotUnitary

Rationalish = Union[int, Fraction]
Scalarish = Union["GaussianRational", int, Fraction]


def _part(x: Rationalish) -> Rationalish:
    """The canonical form of one part: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True, eq=False, slots=True)
class GaussianRational:
    """A complex number a + b*i with a, b exact rationals.

    Each part is an ``int`` when it is integral and a ``Fraction`` (never
    with denominator 1) otherwise, so the units the engine builds cost
    plain integer arithmetic.  ``int`` and the equal ``Fraction`` compare
    and hash alike, and division goes through ``Fraction``, so no part is
    ever a float.  A part that is a float or a bool is a TypeError.
    """

    re: Rationalish = 0
    im: Rationalish = 0

    def __post_init__(self) -> None:
        if type(self.re) is int and type(self.im) is int:
            return
        object.__setattr__(self, "re", _part(self.re))
        object.__setattr__(self, "im", _part(self.im))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Purely real values hash like their real part so that cross-type
        # equality with int/Fraction keeps dict semantics sound.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    @staticmethod
    def coerce(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: Scalarish) -> "GaussianRational":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        o = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        # Matrix entries are mostly real or imaginary units, so skip the
        # products that are known to vanish.
        if not b:
            return GaussianRational(a * c, a * d)
        if not d:
            return GaussianRational(a * c, b * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        if not isinstance(other, _SCALARS):
            return NotImplemented
        o = GaussianRational.coerce(other)
        n = Fraction(o.re * o.re + o.im * o.im)  # int / int would be a float
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        # A real value is its own conjugate, and values are immutable.
        if not self.im:
            return self
        return GaussianRational(self.re, -self.im)

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


#: The operand types of the scalar operators; any other operand (a matrix,
#: say) gets NotImplemented, so Python tries its reflected operator.  A
#: bool is an int, and GaussianRational rejects it as a part.
_SCALARS = (GaussianRational, int, Fraction)

GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

#: One sparse row: (column, re, im) int triples in increasing column order,
#: never with re = im = 0.  The entry is (re + im*i) / den, with den the
#: matrix's common denominator.
SparseRow = tuple[tuple[int, int, int], ...]

_set = object.__setattr__


def _check_shape(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"matrix shape must be positive, got {rows}x{cols}")


def _scalar_parts(x: Scalarish) -> tuple[Rationalish, Rationalish]:
    """The real and imaginary parts of a scalar operand; a float or a bool
    is a TypeError, as in ``GaussianRational``."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return _part(x), 0


def _reduced(den: int, data: tuple[SparseRow, ...]) -> tuple[int, tuple[SparseRow, ...]]:
    """data / den with the gcd of den and every numerator cancelled."""
    g = den
    for row in data:
        for _j, re, im in row:
            g = gcd(g, re, im)
            if g == 1:
                return den, data
    return den // g, tuple(tuple((j, re // g, im // g) for j, re, im in row) for row in data)


def _canonical(acc: dict[int, tuple[int, int]]) -> SparseRow:
    """The sparse row of a column -> (re, im) map, dropping cancelled zeros."""
    return tuple(sorted((j, re, im) for j, (re, im) in acc.items() if re or im))


def _row_sum(a: SparseRow, b: SparseRow, sign: int) -> SparseRow:
    """The sparse row a + sign * b, for sign +1 or -1, by merging the two
    column-ordered rows and dropping cancelled zeros."""
    if not b:
        return a
    out = []
    i, n = 0, len(a)
    for j, re, im in b:
        while i < n and a[i][0] < j:
            out.append(a[i])
            i += 1
        if sign < 0:
            re, im = -re, -im
        if i < n and a[i][0] == j:
            _j, ar, ai = a[i]
            i += 1
            re += ar
            im += ai
            if not (re or im):
                continue
        out.append((j, re, im))
    out.extend(a[i:])
    return tuple(out)


def _rescaled(data: tuple[SparseRow, ...], f: int) -> tuple[SparseRow, ...]:
    if f == 1:
        return data
    return tuple(tuple((j, f * re, f * im) for j, re, im in row) for row in data)


class ExactMatrix:
    """An immutable rows x cols matrix of Gaussian rationals, stored as sparse
    rows of Gaussian integers over one common denominator.

    ``ExactMatrix(rows, cols, entries)`` takes the dense row-major entries
    and keeps only the nonzeros.  ``den`` is the smallest positive integer
    that makes every entry a Gaussian integer (1 for every matrix the
    Clifford layer builds), and ``sparse_rows`` holds the numerators.
    """

    __slots__ = ("rows", "cols", "den", "sparse_rows")

    rows: int
    cols: int
    den: int
    sparse_rows: tuple[SparseRow, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalarish]) -> None:
        _check_shape(rows, cols)
        ents = tuple(entries)
        if len(ents) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(ents)}"
            )
        data = []
        for i in range(rows):
            row = []
            for j, x in enumerate(ents[i * cols:(i + 1) * cols]):
                re, im = _scalar_parts(x)
                if re or im:
                    row.append((j, re, im))
            data.append(row)
        m = ExactMatrix._of_rationals(rows, cols, data)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "den", m.den)
        _set(self, "sparse_rows", m.sparse_rows)

    @classmethod
    def _of(cls, rows: int, cols: int, sparse_rows: tuple[SparseRow, ...],
            den: int = 1) -> "ExactMatrix":
        """Wrap sparse rows that are already canonical and reduced, without
        checking them."""
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "den", den)
        _set(m, "sparse_rows", sparse_rows)
        return m

    @classmethod
    def _of_rationals(cls, rows: int, cols: int,
                      data: Iterable[Iterable[tuple[int, Rationalish, Rationalish]]],
                      ) -> "ExactMatrix":
        """Wrap rows of (column, re, im) canonical rational parts, nonzero
        and in increasing column order, over their common denominator.

        den is the lcm of the parts' denominators.  A prime dividing den
        divides some part's denominator to its full power in den, so it
        does not divide that part's numerator over den: den is reduced.
        """
        sparse_rows = tuple(map(tuple, data))
        den = 1
        for row in sparse_rows:
            for _j, re, im in row:
                den = lcm(den, re.denominator, im.denominator)
        if den != 1:
            sparse_rows = tuple(tuple((j, int(re * den), int(im * den)) for j, re, im in row)
                                for row in sparse_rows)
        return cls._of(rows, cols, sparse_rows, den)

    @classmethod
    def _lowest_terms(cls, rows: int, cols: int, sparse_rows: tuple[SparseRow, ...],
                      den: int) -> "ExactMatrix":
        """Wrap canonical sparse rows over den, cancelling common factors."""
        if den != 1:
            den, sparse_rows = _reduced(den, sparse_rows)
        return cls._of(rows, cols, sparse_rows, den)

    def __reduce__(self):
        return (ExactMatrix._of, (self.rows, self.cols, self.sparse_rows, self.den))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ExactMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ExactMatrix is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.sparse_rows == other.sparse_rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.sparse_rows))

    def __repr__(self) -> str:
        return (f"ExactMatrix({self.rows}, {self.cols}, den={self.den}, "
                f"sparse_rows={self.sparse_rows!r})")

    # --- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalarish]]) -> "ExactMatrix":
        """Build from dense rows, keeping only the nonzeros."""
        r = len(rows)
        if r == 0:
            raise DimensionMismatch("matrix needs at least one row")
        c = len(rows[0])
        flat: list[Scalarish] = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        _check_shape(n, n)
        return cls._of(n, n, tuple(((i, 1, 0),) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        _check_shape(rows, cols)
        return cls._of(rows, cols, ((),) * rows)

    # --- dense views --------------------------------------------------------

    def _value(self, re: int, im: int) -> GaussianRational:
        d = self.den
        if d == 1:
            return GaussianRational(re, im)
        return GaussianRational(Fraction(re, d), Fraction(im, d))

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """All entries, row-major; built on each call and not kept."""
        return tuple(v for i in range(self.rows) for v in self.row(i))

    def entry(self, i: int, j: int) -> GaussianRational:
        for c, re, im in self.sparse_rows[i]:
            if c >= j:
                return self._value(re, im) if c == j else GR_ZERO
        return GR_ZERO

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        out = [GR_ZERO] * self.cols
        for j, re, im in self.sparse_rows[i]:
            out[j] = self._value(re, im)
        return tuple(out)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def trace(self) -> GaussianRational:
        """The sum of the diagonal entries of a square matrix."""
        if not self.is_square:
            raise DimensionMismatch(f"trace of a non-square {self.rows}x{self.cols} matrix")
        s_re = s_im = 0
        for i, row in enumerate(self.sparse_rows):
            for j, re, im in row:
                if j >= i:
                    if j == i:
                        s_re += re
                        s_im += im
                    break
        return self._value(s_re, s_im)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    # --- arithmetic -------------------------------------------------------

    def _sum(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        a, b, den = self.sparse_rows, other.sparse_rows, self.den
        if other.den != den:
            den = lcm(den, other.den)
            a, b = _rescaled(a, den // self.den), _rescaled(b, den // other.den)
        return ExactMatrix._lowest_terms(self.rows, self.cols, tuple(
            _row_sum(ra, rb, sign) for ra, rb in zip(a, b)), den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other, "add")
        return self._sum(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other, "subtract")
        return self._sum(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.rows, self.cols, tuple(
            tuple((j, -re, -im) for j, re, im in row) for row in self.sparse_rows), self.den)

    def scaled(self, s: Scalarish) -> "ExactMatrix":
        re, im = _scalar_parts(s)
        if not (re or im):
            return ExactMatrix.zeros(self.rows, self.cols)
        sd = lcm(re.denominator, im.denominator)
        sr, si = int(re * sd), int(im * sd)
        # A product of nonzero Gaussian integers is nonzero.
        return ExactMatrix._lowest_terms(self.rows, self.cols, tuple(
            tuple((j, sr * a - si * b, sr * b + si * a) for j, a, b in row)
            for row in self.sparse_rows), self.den * sd)

    def __mul__(self, s: Scalarish) -> "ExactMatrix":
        return self.scaled(s)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Gustavson's product: row i of the result sums x * (row t of other)
        over the nonzeros (t, x) of row i of this matrix."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        b = other.sparse_rows
        out: list[SparseRow] = []
        for arow in self.sparse_rows:
            if len(arow) == 1:
                # x * y is never zero and b[t] is in column order, so the
                # row needs neither an accumulator nor a sort.
                (t, xr, xi), = arow
                out.append(tuple((j, xr * yr - xi * yi, xr * yi + xi * yr)
                                 for j, yr, yi in b[t]))
                continue
            acc: dict[int, tuple[int, int]] = {}
            for t, xr, xi in arow:
                for j, yr, yi in b[t]:
                    pr, pi = xr * yr - xi * yi, xr * yi + xi * yr
                    q = acc.get(j)
                    acc[j] = (pr, pi) if q is None else (q[0] + pr, q[1] + pi)
            out.append(_canonical(acc))
        return ExactMatrix._lowest_terms(self.rows, other.cols, tuple(out), self.den * other.den)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, blocks ordered row-major by this matrix."""
        cc = other.cols
        b = other.sparse_rows
        out = tuple(
            tuple((j * cc + t, xr * yr - xi * yi, xr * yi + xi * yr)
                  for j, xr, xi in arow for t, yr, yi in brow)
            for arow in self.sparse_rows for brow in b
        )
        return ExactMatrix._lowest_terms(self.rows * other.rows, self.cols * cc, out,
                                         self.den * other.den)

    def _transposed(self, flip: int) -> "ExactMatrix":
        """The transpose, with every imaginary part multiplied by flip."""
        cols: list[list[tuple[int, int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, re, im in row:
                cols[j].append((i, re, flip * im))
        return ExactMatrix._of(self.cols, self.rows, tuple(map(tuple, cols)), self.den)

    def transpose(self) -> "ExactMatrix":
        return self._transposed(1)

    def conj(self) -> "ExactMatrix":
        """Entrywise complex conjugate."""
        return ExactMatrix._of(self.rows, self.cols, tuple(
            tuple((j, re, -im) for j, re, im in row) for row in self.sparse_rows), self.den)

    def dagger(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return self._transposed(-1)

    # --- predicates ---------------------------------------------------------

    def _scalar_multiple(self) -> tuple[int, int] | None:
        """(re, im) when this matrix is (re + im*i) / den times the identity,
        else None."""
        if not self.is_square:
            return None
        rows = self.sparse_rows
        if not rows[0]:
            return (0, 0) if self.is_zero() else None
        _j, re, im = rows[0][0]
        for i, row in enumerate(rows):
            if len(row) != 1 or row[0] != (i, re, im):
                return None
        return re, im

    def is_identity(self) -> bool:
        return self.den == 1 and self._scalar_multiple() == (1, 0)

    def is_unitary(self) -> bool:
        return self.is_square and (self.dagger() @ self).is_identity()

    def _same_shape(self, other: "ExactMatrix", what: str) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"cannot {what} {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )

    def __str__(self) -> str:
        cells = [[str(e) for e in self.row(i)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for i in range(self.rows):
            body = "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols))
            lines.append(f"[ {body} ]")
        return "\n".join(lines)


def as_sign_times_identity(m: ExactMatrix) -> int | None:
    """Return +1 or -1 when m is that sign times the identity, else None."""
    if m.den != 1:
        return None
    c = m._scalar_multiple()
    if c == (1, 0):
        return 1
    if c == (-1, 0):
        return -1
    return None


# --- rank over the Gaussian rationals ----------------------------------------

def rank(m: ExactMatrix) -> int:
    """Rank by exact Gaussian elimination on sparse rows.

    Pivots are chosen deterministically: columns left to right, and within
    a column the first row (top to bottom) with a nonzero entry.
    """
    # Scaling by den keeps the rank, so the numerators stand in for the entries.
    grid = [{j: GaussianRational(re, im) for j, re, im in row} for row in m.sparse_rows]
    nrows = m.rows
    r = 0
    for c in range(m.cols):
        hits = [i for i in range(r, nrows) if c in grid[i]]
        if not hits:
            continue
        # The rows above r are pivots, and the rows from r on hold no
        # column left of c, so the pivot row has nothing left of c either.
        p = hits[0]
        grid[r], grid[p] = grid[p], grid[r]
        prow = grid[r]
        pivot = prow[c]
        for i in hits[1:]:
            row = grid[i]
            factor = row[c] / pivot
            for j, v in prow.items():
                x = row.get(j)
                y = factor * v
                x = -y if x is None else x - y
                if x:
                    row[j] = x
                else:
                    del row[j]
        r += 1
        if r == nrows:
            break
    return r


# --- antiunitary operators ---------------------------------------------------

@dataclass(frozen=True)
class Antiunitary:
    """An antiunitary operator v -> k @ conj(v) with unitary linear part k.

    Composition of two antiunitaries is linear: the linear part of
    j1 o j2 is k1 @ conj(k2).  In particular ``squared`` returns the
    linear operator j o j.
    """

    k: ExactMatrix

    def __post_init__(self) -> None:
        if not self.k.is_square:
            raise DimensionMismatch("antiunitary linear part must be square")
        if not self.k.is_unitary():
            raise NotUnitary("antiunitary linear part must be unitary")

    @property
    def dim(self) -> int:
        return self.k.rows

    def squared(self) -> ExactMatrix:
        return self.k @ self.k.conj()

    def precompose_linear(self, u: ExactMatrix) -> "Antiunitary":
        """The antiunitary j o u for a unitary u (apply u first)."""
        return Antiunitary(self.k @ u.conj())

    def tensor(self, other: "Antiunitary") -> "Antiunitary":
        """The antiunitary with linear part k1 (x) k2.  A Kronecker product of
        unitaries is unitary, so the check in ``__post_init__`` is skipped."""
        j = object.__new__(Antiunitary)
        _set(j, "k", self.k.kron(other.k))
        return j

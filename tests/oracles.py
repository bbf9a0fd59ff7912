"""Independent test oracles: sympy, and the kernels the package replaced.

These deliberately re-derive results through a different formulation
(sympy rational matrices and nullspaces, dense triple loops over the
``entries`` view instead of the package's sparse rows, sparse rows of
``GaussianRational`` values instead of Gaussian-integer numerators over
one common denominator, a scalar whose parts are always ``Fraction``
instead of ``int`` when integral, a scan
of all 2^n generator subset products instead of the sign calculus that
picks the real structure's subset, or the rank of a realified linear
system instead of the real-form theorem that gives the Majorana-Weyl
dimensions, or a document object for the stdlib JSON encoder, or one
string per cell, instead of the serializer's compact text) so that
agreement between the two routes is meaningful.
Nothing in the package imports this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

import sympy

from kocalc.clifford import CliffordRep
from kocalc.errors import DimensionMismatch, KocalcError, RealStructureNotFound
from kocalc.linalg import GR_ONE, GR_ZERO, Antiunitary, ExactMatrix, GaussianRational, rank
from kocalc.triple_io import SCHEMA_VERSION
from kocalc.triples import FiniteSpectralTriple

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


#: One oracle row: (column, nonzero value) pairs in increasing column order.
ScalarRow = tuple[tuple[int, GaussianRational], ...]


def _scalar_canonical(acc: dict[int, GaussianRational]) -> ScalarRow:
    return tuple(sorted((j, v) for j, v in acc.items() if v))


def _scalar_row_sum(a: ScalarRow, b: ScalarRow, subtract: bool) -> ScalarRow:
    acc = dict(a)
    for j, y in b:
        x = acc.get(j)
        if x is None:
            acc[j] = -y if subtract else y
        else:
            acc[j] = x - y if subtract else x + y
    return _scalar_canonical(acc)


@dataclass(frozen=True)
class ScalarRowMatrix:
    """The package's previous matrix kernels: sparse rows of
    (column, ``GaussianRational``) pairs, one scalar object per nonzero.

    ``ExactMatrix`` now runs the same kernels on Gaussian-integer
    numerators over one common denominator; this is the reference they are
    compared against.  ``of`` and ``to_exact`` cross over through the
    public dense views, and equality and hashing are structural.
    """

    rows: int
    cols: int
    sparse_rows: tuple[ScalarRow, ...]

    @classmethod
    def of(cls, m: ExactMatrix) -> "ScalarRowMatrix":
        return cls(m.rows, m.cols, tuple(
            tuple((j, v) for j, v in enumerate(m.row(i)) if v) for i in range(m.rows)))

    def to_exact(self) -> ExactMatrix:
        cells = [GR_ZERO] * (self.rows * self.cols)
        for i, row in enumerate(self.sparse_rows):
            for j, v in row:
                cells[i * self.cols + j] = v
        return ExactMatrix(self.rows, self.cols, cells)

    def __add__(self, other: "ScalarRowMatrix") -> "ScalarRowMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return ScalarRowMatrix(self.rows, self.cols, tuple(
            _scalar_row_sum(a, b, False) for a, b in zip(self.sparse_rows, other.sparse_rows)))

    def __sub__(self, other: "ScalarRowMatrix") -> "ScalarRowMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return ScalarRowMatrix(self.rows, self.cols, tuple(
            _scalar_row_sum(a, b, True) for a, b in zip(self.sparse_rows, other.sparse_rows)))

    def __neg__(self) -> "ScalarRowMatrix":
        return ScalarRowMatrix(self.rows, self.cols, tuple(
            tuple((j, -v) for j, v in row) for row in self.sparse_rows))

    def scaled(self, s) -> "ScalarRowMatrix":
        c = GaussianRational.coerce(s)
        if not c:
            return ScalarRowMatrix(self.rows, self.cols, ((),) * self.rows)
        return ScalarRowMatrix(self.rows, self.cols, tuple(
            tuple((j, c * v) for j, v in row) for row in self.sparse_rows))

    def __matmul__(self, other: "ScalarRowMatrix") -> "ScalarRowMatrix":
        """Gustavson's product on scalar objects."""
        assert self.cols == other.rows
        b = other.sparse_rows
        out = []
        for arow in self.sparse_rows:
            acc: dict[int, GaussianRational] = {}
            for t, x in arow:
                for j, y in b[t]:
                    p = x * y
                    q = acc.get(j)
                    acc[j] = p if q is None else q + p
            out.append(_scalar_canonical(acc))
        return ScalarRowMatrix(self.rows, other.cols, tuple(out))

    def kron(self, other: "ScalarRowMatrix") -> "ScalarRowMatrix":
        cc = other.cols
        return ScalarRowMatrix(self.rows * other.rows, self.cols * cc, tuple(
            tuple((j * cc + t, x * y) for j, x in arow for t, y in brow)
            for arow in self.sparse_rows for brow in other.sparse_rows))

    def transpose(self) -> "ScalarRowMatrix":
        cols: list[list[tuple[int, GaussianRational]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, v in row:
                cols[j].append((i, v))
        return ScalarRowMatrix(self.cols, self.rows, tuple(map(tuple, cols)))

    def conj(self) -> "ScalarRowMatrix":
        return ScalarRowMatrix(self.rows, self.cols, tuple(
            tuple((j, v.conjugate()) for j, v in row) for row in self.sparse_rows))

    def dagger(self) -> "ScalarRowMatrix":
        return self.transpose().conj()

    def trace(self) -> GaussianRational:
        assert self.rows == self.cols
        return sum((v for i, row in enumerate(self.sparse_rows) for j, v in row if j == i),
                   GR_ZERO)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def scalar_multiple(self) -> GaussianRational | None:
        """c when this matrix is c times the identity, else None."""
        if self.rows != self.cols:
            return None
        if self.is_zero():
            return GR_ZERO
        c = self.sparse_rows[0][0][1] if self.sparse_rows[0] else None
        for i, row in enumerate(self.sparse_rows):
            if len(row) != 1 or row[0] != (i, c):
                return None
        return c

    def is_unitary(self) -> bool:
        return self.rows == self.cols and self.dagger() @ self == ScalarRowMatrix(
            self.rows, self.cols, tuple(((i, GR_ONE),) for i in range(self.rows)))


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


def kernel_dim(m: ExactMatrix) -> int:
    return m.cols - rank(m)


def _parts(row: ScalarRow, i: int, shift: int) -> tuple[dict, dict]:
    """Real and imaginary parts of row i of a square matrix, plus shift at (i, i)."""
    re = {t: v.re for t, v in row}
    re[i] = re.get(i, 0) + shift
    return re, {t: v.im for t, v in row}


def _fixed_point_system(j: Antiunitary, fixed_ops: Sequence[ExactMatrix]) -> ExactMatrix:
    """Real-linear system whose kernel is {v : j(v) = v and M v = v for each M}.

    Writing v = x + i y and k = A + i B, the fixed-point equation
    k @ conj(v) = v splits into (A - I) x + B y = 0 and B x - (A + I) y = 0.
    Each additional linear constraint M = P + i Q contributes
    (P - I) x - Q y = 0 and Q x + (P - I) y = 0.  All blocks are real, so
    the kernel dimension over the rationals is the real dimension sought.
    Rows come block by block in that order: n rows for each equation.
    """
    n = j.dim

    def joined(left: dict, right: dict, negate_right: bool) -> ScalarRow:
        """The row [left | right] (or [left | -right]) of the real system."""
        row = [(t, GaussianRational(x)) for t, x in sorted(left.items()) if x]
        row += [(n + t, GaussianRational(-x if negate_right else x))
                for t, x in sorted(right.items()) if x]
        return tuple(row)

    blocks: list[list[ScalarRow]] = [[], []]
    for i, krow in enumerate(ScalarRowMatrix.of(j.k).sparse_rows):
        a_minus, b = _parts(krow, i, -1)
        a_plus, _ = _parts(krow, i, 1)
        blocks[0].append(joined(a_minus, b, False))
        blocks[1].append(joined(b, a_plus, True))
    for m_op in fixed_ops:
        if m_op.rows != n or m_op.cols != n:
            raise DimensionMismatch("constraint operator shape does not match the antiunitary")
        first: list[ScalarRow] = []
        second: list[ScalarRow] = []
        for i, mrow in enumerate(ScalarRowMatrix.of(m_op).sparse_rows):
            p_minus, q = _parts(mrow, i, -1)
            first.append(joined(p_minus, q, True))
            second.append(joined(q, p_minus, False))
        blocks += [first, second]
    rows = tuple(row for block in blocks for row in block)
    return ScalarRowMatrix(len(rows), 2 * n, rows).to_exact()


class NotInvolutive(KocalcError):
    """An antiunitary operator was required to square to +identity."""


def real_fixed_dim(j: Antiunitary) -> int:
    """Real dimension of the fixed subspace {v : j(v) = v}, by elimination.

    This was the package's route to the Majorana-Weyl dimensions before it
    read them off the real-form theorem.  Requires j o j = +identity; a j
    with j o j = -identity has no fixed vectors besides 0 and is rejected
    as NotInvolutive.
    """
    return real_fixed_dim_constrained(j, ())


def real_fixed_dim_constrained(j: Antiunitary, fixed_ops: Sequence[ExactMatrix]) -> int:
    """Real dimension of {v : j(v) = v and M v = v for every M in fixed_ops}."""
    if not j.squared().is_identity():
        raise NotInvolutive("antiunitary does not square to +identity")
    return kernel_dim(_fixed_point_system(j, tuple(fixed_ops)))


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


# --- the document object of a serialized triple ------------------------------------

def _matrix_to_block(m: ExactMatrix) -> dict:
    cells = [{"re": "0", "im": "0"} for _ in range(m.rows * m.cols)]
    d = m.den
    for i, row in enumerate(m.sparse_rows):
        for j, re, im in row:
            cells[i * m.cols + j] = {"re": str(Fraction(re, d)), "im": str(Fraction(im, d))}
    return {"rows": m.rows, "cols": m.cols, "entries": cells}


def to_json_dict(t: FiniteSpectralTriple, metadata: dict[str, str] | None = None) -> dict:
    """The schema-v1 document of ``t``: ``serialize_triple(t, metadata)`` must
    equal ``json.dumps`` of it with ``indent=2, ensure_ascii=True`` and a
    newline."""
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": t.dim,
        "dirac": _matrix_to_block(t.dirac),
        "chirality": None if t.chirality is None else _matrix_to_block(t.chirality),
        "real_structure_k": _matrix_to_block(t.real_structure.k),
        "algebra_gens": [_matrix_to_block(a) for a in t.algebra_gens],
        "metadata": dict(sorted((metadata or {}).items())),
    }


# --- the per-cell writer the compact form replaced ---------------------------------

def per_cell_block_text(m: ExactMatrix, depth: int) -> str:
    """Matrix block ``m`` as ``json.dumps(..., indent=2)`` writes it ``depth``
    levels deep.  Rational strings need no JSON escaping."""
    pad = "\n" + "  " * depth
    key_pad = pad + "  "
    cell_pad = key_pad + "  "
    part_pad = cell_pad + "  "

    def cell(re: object, im: object) -> str:
        return f'{{{part_pad}"re": "{re}",{part_pad}"im": "{im}"{cell_pad}}}'

    zero = cell(0, 0)
    d = m.den
    cells: list[str] = []
    for row in m.sparse_rows:
        col = 0
        for j, re, im in row:
            cells += [zero] * (j - col)
            # str of an int, or of a lowest-terms Fraction: canonical either way
            cells.append(cell(re, im) if d == 1 else cell(Fraction(re, d), Fraction(im, d)))
            col = j + 1
        cells += [zero] * (m.cols - col)
    entries = f",{cell_pad}".join(cells)
    return (f'{{{key_pad}"rows": {m.rows},{key_pad}"cols": {m.cols},'
            f'{key_pad}"entries": [{cell_pad}{entries}{key_pad}]{pad}}}')


def per_cell_document_bytes(t: FiniteSpectralTriple, metadata: Mapping[str, str] | None) -> bytes:
    """The serializer's bytes as the per-cell writer built them: one string
    per cell, zero or not."""
    gens = "[]"
    if t.algebra_gens:
        gens = "[\n    " + ",\n    ".join(per_cell_block_text(g, 2) for g in t.algebra_gens) + "\n  ]"
    chirality = "null" if t.chirality is None else per_cell_block_text(t.chirality, 1)
    meta = json.dumps(dict(sorted((metadata or {}).items())), indent=2,
                      ensure_ascii=True).replace("\n", "\n  ")
    text = (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "dim": {json.dumps(t.dim)},\n'
        f'  "dirac": {per_cell_block_text(t.dirac, 1)},\n'
        f'  "chirality": {chirality},\n'
        f'  "real_structure_k": {per_cell_block_text(t.real_structure.k, 1)},\n'
        f'  "algebra_gens": {gens},\n'
        f'  "metadata": {meta}\n'
        "}\n"
    )
    return text.encode("utf-8")

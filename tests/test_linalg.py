"""Exact scalar and matrix arithmetic, rank/kernel, antiunitary fixed spaces."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kocalc.errors import DimensionMismatch, NotInvolutive, NotUnitary
from kocalc.linalg import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    Antiunitary,
    ExactMatrix,
    GaussianRational,
    rank,
)

from oracles import (
    FractionGaussianRational,
    dense_matmul,
    dense_rank,
    kernel_dim,
    real_fixed_dim,
    real_fixed_dim_constrained,
    sympy_rank,
    sympy_real_fixed_dim,
    to_sympy,
)

# --- scalar arithmetic -------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_scalar_basics():
    z = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert z + z == GaussianRational(1, -6)
    assert z - z == 0
    assert -z == GaussianRational(Fraction(-1, 2), 3)
    assert z.conjugate() == GaussianRational(Fraction(1, 2), 3)
    assert GR_I * GR_I == -1
    assert str(z) == "1/2-3i"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(-2)) == "-2"


def test_scalar_division_exact():
    z = GaussianRational(3, 4)
    w = GaussianRational(1, -2)
    assert (z / w) * w == z
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)


def test_scalar_mixed_type_arithmetic():
    assert GaussianRational(2) + 3 == 5
    assert 3 + GaussianRational(2) == 5
    assert Fraction(1, 2) * GaussianRational(0, 4) == GaussianRational(0, 2)
    assert 1 - GaussianRational(0, 1) == GaussianRational(1, -1)


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars, scalars)
def test_scalar_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


# --- the int-or-Fraction scalar against the Fraction-pair oracle ----------------

#: parts of either type, including Fractions with denominator 1
mixed_parts = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4),
)
mixed_pairs = st.tuples(mixed_parts, mixed_parts)


def assert_canonical_parts(z):
    assert isinstance(z, GaussianRational)
    for part in (z.re, z.im):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (part.denominator == 1)


def assert_same(z, oracle):
    assert_canonical_parts(z)
    assert isinstance(oracle, FractionGaussianRational)
    assert (z.re, z.im) == (oracle.re, oracle.im)
    assert str(z) == str(oracle)
    assert hash(z) == hash(oracle)
    assert bool(z) == bool(oracle)


@given(mixed_pairs, mixed_pairs)
def test_scalar_matches_the_fraction_oracle(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    oa, ob = FractionGaussianRational(*x), FractionGaussianRational(*y)
    assert_same(a, oa)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(a * b, oa * ob)
    assert_same(-a, -oa)
    assert_same(a.conjugate(), oa.conjugate())
    assert (a == b) == (oa == ob)
    if ob:
        assert_same(a / b, oa / ob)


@given(mixed_pairs, mixed_parts)
def test_scalar_with_plain_operands_matches_the_oracle(x, r):
    a, oa = GaussianRational(*x), FractionGaussianRational(*x)
    assert_same(a + r, oa + r)
    assert_same(r + a, r + oa)
    assert_same(a - r, oa - r)
    assert_same(r - a, r - oa)
    assert_same(a * r, oa * r)
    assert_same(r * a, r * oa)
    assert (a == r) == (oa == r)
    if r:
        assert_same(a / r, oa / r)


def test_integral_fractions_become_ints():
    half = GaussianRational(Fraction(1, 2))
    total = half + half
    assert total == 1 and type(total.re) is int and type(total.im) is int
    assert type(GaussianRational(Fraction(4, 2), Fraction(-3, 1)).im) is int
    assert type((GaussianRational(Fraction(2, 3)) * 3).re) is int


def test_integer_division_stays_exact():
    z = GaussianRational(1) / 2
    assert z.re == Fraction(1, 2) and type(z.re) is Fraction
    assert type(z.im) is int
    w = GaussianRational(3, 4) / GaussianRational(0, 2)
    assert (w.re, w.im) == (2, Fraction(-3, 2))
    assert not any(isinstance(p, float) for p in (z.re, z.im, w.re, w.im))
    with pytest.raises(TypeError):
        GaussianRational(0.5)


def test_scalar_is_slotted_frozen_and_picklable():
    z = GaussianRational(Fraction(1, 2), -3)
    assert not hasattr(z, "__dict__")
    with pytest.raises(AttributeError):
        z.re = 1
    assert pickle.loads(pickle.dumps(z)) == z
    assert copy.deepcopy(z) == z


@st.composite
def mixed_row_matrices(draw, rows, cols):
    """Each row empty, one-term or several-term, so both product paths run."""
    out = []
    for _ in range(rows):
        size = draw(st.sampled_from([0, 1, 1, 2, cols]))
        columns = draw(st.permutations(range(cols)))[:size]
        row = [GR_ZERO] * cols
        for j in columns:
            row[j] = draw(small_entries.filter(bool))
        out.append(row)
    return ExactMatrix.from_rows(out)


@st.composite
def mixed_row_pairs(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(mixed_row_matrices(n, k)), draw(mixed_row_matrices(k, m))


@settings(max_examples=40)
@given(mixed_row_pairs())
def test_matmul_with_one_term_rows_matches_dense(pair):
    a, b = pair
    got = a @ b
    assert_canonical(got)
    assert got == dense_matmul(a, b)
    for v in got.entries:
        assert_canonical_parts(v)


# --- matrix construction and arithmetic --------------------------------------


def mat(rows):
    return ExactMatrix.from_rows(rows)


SIGMA_X = mat([[0, 1], [1, 0]])
SIGMA_Z = mat([[1, 0], [0, -1]])


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        mat([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        SIGMA_X @ ExactMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        SIGMA_X + ExactMatrix.identity(3)


def test_matrix_product_frozen_example():
    # sigma_x sigma_z = -i sigma_y, computed by hand
    assert SIGMA_X @ SIGMA_Z == mat([[0, -1], [1, 0]])
    assert SIGMA_Z @ SIGMA_X == mat([[0, 1], [-1, 0]])


def test_kron_frozen_example():
    got = SIGMA_X.kron(SIGMA_Z)
    assert got == mat(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ]
    )


def test_dagger_and_conj():
    m = mat([[GaussianRational(1, 2), 3], [GaussianRational(0, -1), 0]])
    assert m.dagger() == mat([[GaussianRational(1, -2), GaussianRational(0, 1)], [3, 0]])
    assert m.conj().transpose() == m.dagger()


small_entries = st.builds(
    GaussianRational,
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3),
)


def matrices(n, m=None):
    m = n if m is None else m
    return st.lists(
        st.lists(small_entries, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(ExactMatrix.from_rows)


@settings(max_examples=30)
@given(matrices(2), matrices(2), matrices(2))
def test_matrix_ring_properties(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    assert (a @ b).dagger() == b.dagger() @ a.dagger()


@settings(max_examples=30)
@given(matrices(2), matrices(2), matrices(2), matrices(2))
def test_kron_mixed_product(a, b, c, d):
    assert (a @ c).kron(b @ d) == a.kron(b) @ c.kron(d)


@settings(max_examples=30)
@given(matrices(2), matrices(2))
def test_kron_dagger(a, b):
    assert a.kron(b).dagger() == a.dagger().kron(b.dagger())


def test_identity_predicates():
    assert ExactMatrix.identity(4).is_identity()
    assert not SIGMA_X.is_identity()
    assert SIGMA_X.is_hermitian() and SIGMA_Z.is_hermitian()
    assert SIGMA_X.is_unitary()
    assert not mat([[1, 1], [0, 1]]).is_unitary()
    assert ExactMatrix.zeros(2, 3).is_zero()


def test_scaled_and_rmul():
    assert SIGMA_X.scaled(GR_I) == mat([[0, GR_I], [GR_I, 0]])
    assert 2 * SIGMA_Z == SIGMA_Z.scaled(GaussianRational(2))


# --- sparse storage against the dense and sympy oracles ------------------------


def assert_canonical(m):
    """Rows hold nonzero int numerators at strictly increasing in-range
    columns, over a positive denominator that shares no factor with all of
    them (so the zero matrix has denominator 1)."""
    assert len(m.sparse_rows) == m.rows
    assert type(m.den) is int and m.den >= 1
    for row in m.sparse_rows:
        cols = [j for j, _re, _im in row]
        assert cols == sorted(set(cols))
        assert all(0 <= j < m.cols for j in cols)
        assert all(type(re) is int and type(im) is int and (re or im) for _j, re, im in row)
    assert math.gcd(m.den, *(p for row in m.sparse_rows for _j, re, im in row
                             for p in (re, im))) == 1


@st.composite
def exact_matrices(draw, rows=None, cols=None):
    """Rectangular Gaussian-rational matrices: all-zero, sparse or fully dense."""
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    cell = draw(st.sampled_from([
        st.just(GR_ZERO),
        st.one_of(st.just(GR_ZERO), st.just(GR_ZERO), small_entries),
        small_entries.filter(bool),
    ]))
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return ExactMatrix(rows, cols, cells)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(exact_matrices(n, k)), draw(exact_matrices(k, m))


@settings(max_examples=60)
@given(product_pairs())
def test_matmul_matches_dense_and_sympy(pair):
    a, b = pair
    got = a @ b
    assert_canonical(got)
    assert got == dense_matmul(a, b)
    assert to_sympy(got) == (to_sympy(a) * to_sympy(b)).expand()


@settings(max_examples=40)
@given(product_pairs())
def test_cancelling_product_stores_no_zero(pair):
    # [a | a] @ [b ; -b] = a b - a b: every term meets its negation
    a, b = pair
    twice = ExactMatrix.from_rows([list(a.row(i)) * 2 for i in range(a.rows)])
    stacked = ExactMatrix.from_rows([list(b.row(t)) for t in range(b.rows)]
                                    + [list((-b).row(t)) for t in range(b.rows)])
    got = twice @ stacked
    assert_canonical(got)
    assert got.is_zero() and got == ExactMatrix.zeros(a.rows, b.cols)
    assert got == dense_matmul(twice, stacked)


@settings(max_examples=40)
@given(exact_matrices(), exact_matrices())
def test_kron_dagger_sum_match_sympy(a, b):
    k = a.kron(b)
    assert_canonical(k)
    assert to_sympy(k) == sympy.kronecker_product(to_sympy(a), to_sympy(b)).expand()
    d = a.dagger()
    assert_canonical(d)
    assert to_sympy(d) == to_sympy(a).H
    for got, want in ((a + a, to_sympy(a) * 2), (a - a, sympy.zeros(a.rows, a.cols)),
                      (-a, -to_sympy(a)), (a.scaled(0), sympy.zeros(a.rows, a.cols)),
                      (a.scaled(GR_I), (to_sympy(a) * sympy.I).expand())):
        assert_canonical(got)
        assert to_sympy(got) == want


@settings(max_examples=40)
@given(exact_matrices(), exact_matrices())
def test_equality_and_hash_follow_entries(a, b):
    assert_canonical(a)
    rebuilt = ExactMatrix(a.rows, a.cols, a.entries)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    same = (a.rows, a.cols, a.entries) == (b.rows, b.cols, b.entries)
    assert (a == b) is same
    if same:
        assert hash(a) == hash(b)
    assert a.entries == tuple(a.entry(i, j) for i in range(a.rows) for j in range(a.cols))
    assert a.entries == sum((a.row(i) for i in range(a.rows)), ())


@st.composite
def low_rank_matrices(draw):
    """Products through an inner dimension of 1 or 2, below the outer sizes."""
    n, m, k = draw(st.integers(3, 4)), draw(st.integers(3, 4)), draw(st.integers(1, 2))
    return draw(matrices(n, k)) @ draw(matrices(k, m))


@settings(max_examples=60)
@given(st.one_of(exact_matrices(), low_rank_matrices()))
def test_rank_matches_dense_elimination_and_sympy(m):
    assert rank(m) == dense_rank(m) == sympy_rank(m)


def test_dense_input_keeps_only_nonzeros():
    m = ExactMatrix.from_rows([[0, 2, 0], [0, 0, 0], [GR_I, 0, Fraction(-1, 3)]])
    # numerators over the common denominator 3
    assert m.den == 3
    assert m.sparse_rows == (((1, 6, 0),), (), ((0, 0, 3), (2, -1, 0)))
    assert m.entry(1, 1) == 0 and m.entry(2, 2) == Fraction(-1, 3)


def test_matrix_is_immutable_and_copies():
    m = ExactMatrix.from_rows([[1, GR_I], [0, 2]])
    with pytest.raises(AttributeError):
        m.rows = 3
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert twin == m and hash(twin) == hash(m)


# --- rank and kernel ----------------------------------------------------------


def test_rank_frozen_examples():
    assert rank(ExactMatrix.identity(3)) == 3
    assert rank(ExactMatrix.zeros(2, 2)) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert kernel_dim(mat([[1, 2], [2, 4]])) == 1
    # a rank computation that needs fractions to stay exact
    assert rank(mat([[Fraction(1, 3), Fraction(1, 7)], [Fraction(7, 3), 1]])) == 1


@settings(max_examples=40)
@given(st.one_of(matrices(2), matrices(3), matrices(2, 3)))
def test_rank_matches_sympy(m):
    assert rank(m) == sympy_rank(m)
    assert kernel_dim(m) == m.cols - sympy_rank(m)


# --- antiunitary operators and fixed spaces -------------------------------------


def test_antiunitary_requires_unitary_linear_part():
    with pytest.raises(NotUnitary, match="^antiunitary linear part must be unitary$"):
        Antiunitary(mat([[1, 1], [0, 1]]))
    with pytest.raises(DimensionMismatch):
        Antiunitary(mat([[1, 0, 0], [0, 1, 0]]))


def test_antiunitary_apply_and_square():
    j = Antiunitary(SIGMA_X)
    v = ExactMatrix.from_rows([[GaussianRational(1, 1)], [GaussianRational(0, 2)]])
    # J(v) = K conj(v)
    assert j.apply(v) == ExactMatrix.from_rows(
        [[GaussianRational(0, -2)], [GaussianRational(1, -1)]]
    )
    assert j.squared().is_identity()


def test_real_fixed_dim_frozen_examples():
    # plain conjugation on C^n fixes R^n
    assert real_fixed_dim(Antiunitary(ExactMatrix.identity(2))) == 2
    assert real_fixed_dim(Antiunitary(ExactMatrix.identity(3))) == 3
    # K = sigma_x: fixed vectors (z, conj(z)) -> real dimension 2
    assert real_fixed_dim(Antiunitary(SIGMA_X)) == 2
    # K = i sigma_y squares to -1: no real form
    k = mat([[0, 1], [-1, 0]])
    with pytest.raises(NotInvolutive):
        real_fixed_dim(Antiunitary(k))


def test_real_fixed_dim_against_oracle():
    eye2 = ExactMatrix.identity(2)
    candidates = [
        ExactMatrix.identity(2),
        SIGMA_X,
        SIGMA_Z,
        mat([[GR_I, 0], [0, GR_I]]),
        SIGMA_X.kron(SIGMA_Z),
        SIGMA_Z.kron(eye2),
        mat([[0, GR_I], [GaussianRational(0, -1), 0]]),
    ]
    for k in candidates:
        j = Antiunitary(k)
        if not j.squared().is_identity():
            continue
        assert real_fixed_dim(j) == sympy_real_fixed_dim(k)


def test_real_fixed_dim_constrained_against_oracle():
    # conjugation on C^2 plus the constraint sigma_z v = v keeps one real line
    j = Antiunitary(ExactMatrix.identity(2))
    assert real_fixed_dim_constrained(j, (SIGMA_Z,)) == 1
    assert real_fixed_dim_constrained(j, (SIGMA_Z,)) == sympy_real_fixed_dim(
        ExactMatrix.identity(2), (SIGMA_Z,)
    )
    # constraint -I v = v kills everything
    minus = ExactMatrix.identity(2).scaled(GaussianRational(-1))
    assert real_fixed_dim_constrained(j, (minus,)) == 0


def test_compose_and_precompose():
    j = Antiunitary(SIGMA_X)
    u = SIGMA_Z
    jt = j.precompose_linear(u)
    # (J o U)(v) = K conj(U) conj(v)
    assert jt.k == SIGMA_X @ SIGMA_Z.conj()
    # composition of two antiunitaries is linear: K1 conj(K2)
    lin = j.compose(Antiunitary(u))
    assert lin == SIGMA_X @ SIGMA_Z.conj()


def test_trace_sums_the_diagonal():
    assert ExactMatrix.identity(3).trace() == 3
    assert SIGMA_Z.trace() == 0 and SIGMA_X.trace() == 0
    m = mat([[Fraction(1, 2), 5], [GR_I, GaussianRational(-2, 3)]])
    assert m.trace() == GaussianRational(Fraction(-3, 2), 3)
    with pytest.raises(DimensionMismatch):
        mat([[1, 2]]).trace()

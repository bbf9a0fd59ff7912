"""The integer matrix kernels against the scalar-row oracle.

``ExactMatrix`` keeps Gaussian-integer numerators over one reduced common
denominator.  Every kernel is compared with ``oracles.ScalarRowMatrix``,
the previous kernels on sparse rows of ``GaussianRational`` values, on
inputs with mixed denominators, all-zero matrices, cancelling terms and
denominators that cancel back to 1.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kocalc.linalg as linalg_module
from kocalc.linalg import GR_I, GR_ZERO, ExactMatrix, GaussianRational, as_sign_times_identity
from kocalc.products import ProductMode, verify_product
from kocalc.triples import _mismatch, canonical_triple

from oracles import ScalarRowMatrix
from test_linalg import assert_canonical

parts = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
)
# what the constructor accepts: ints, Fractions and Gaussian rationals
scalars = st.one_of(parts, st.builds(GaussianRational, parts, parts))
nonzero_scalars = scalars.filter(bool)


@st.composite
def matrices(draw, rows=None, cols=None):
    """All-zero, sparse or dense matrices with mixed denominators."""
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    cell = draw(st.sampled_from([
        st.just(0),
        st.one_of(st.just(GR_ZERO), st.just(0), scalars),
        nonzero_scalars,
    ]))
    return ExactMatrix(rows, cols, draw(st.lists(cell, min_size=rows * cols,
                                                 max_size=rows * cols)))


@st.composite
def same_shape_pairs(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(matrices(rows, cols)), draw(matrices(rows, cols))


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


def square_matrices():
    return st.integers(1, 4).flatmap(lambda n: matrices(n, n))


def assert_matches(got, want):
    """got is a canonical ExactMatrix equal to the oracle's result."""
    assert_canonical(got)
    assert ScalarRowMatrix.of(got) == want
    rebuilt = want.to_exact()
    assert got == rebuilt and hash(got) == hash(rebuilt)


@settings(max_examples=50)
@given(product_pairs())
def test_matmul_matches_the_oracle(pair):
    a, b = pair
    assert_matches(a @ b, ScalarRowMatrix.of(a) @ ScalarRowMatrix.of(b))


@settings(max_examples=40)
@given(matrices(), matrices())
def test_kron_matches_the_oracle(a, b):
    assert_matches(a.kron(b), ScalarRowMatrix.of(a).kron(ScalarRowMatrix.of(b)))


@settings(max_examples=50)
@given(same_shape_pairs())
def test_sums_match_the_oracle(pair):
    a, b = pair
    oa, ob = ScalarRowMatrix.of(a), ScalarRowMatrix.of(b)
    assert_matches(a + b, oa + ob)
    assert_matches(a - b, oa - ob)
    assert_matches(-a, -oa)


@settings(max_examples=50)
@given(matrices(), scalars)
def test_scaled_matches_the_oracle(a, s):
    want = ScalarRowMatrix.of(a).scaled(s)
    assert_matches(a.scaled(s), want)
    assert_matches(a * s, want)
    if not isinstance(s, GaussianRational):  # whose __mul__ takes only scalars
        assert_matches(s * a, want)


@settings(max_examples=40)
@given(matrices())
def test_conj_transpose_dagger_match_the_oracle(a):
    oa = ScalarRowMatrix.of(a)
    assert_matches(a.conj(), oa.conj())
    assert_matches(a.transpose(), oa.transpose())
    assert_matches(a.dagger(), oa.dagger())


@settings(max_examples=40)
@given(square_matrices())
def test_square_predicates_match_the_oracle(a):
    oa = ScalarRowMatrix.of(a)
    assert a.trace() == oa.trace()
    assert a.is_zero() is oa.is_zero()
    assert a.is_unitary() is oa.is_unitary()
    c = oa.scalar_multiple()
    got = a._scalar_multiple()
    if c is None:
        assert got is None
    else:
        assert GaussianRational(Fraction(got[0], a.den), Fraction(got[1], a.den)) == c
    assert a.is_identity() is (c == 1)
    assert as_sign_times_identity(a) == (1 if c == 1 else -1 if c == -1 else None)


@settings(max_examples=40)
@given(st.integers(1, 4), scalars)
def test_scalar_multiples_of_the_identity(n, c):
    m = ExactMatrix.identity(n).scaled(c)
    assert_canonical(m)
    assert ScalarRowMatrix.of(m).scalar_multiple() == c
    assert m.is_identity() is (c == 1)
    assert as_sign_times_identity(m) == (1 if c == 1 else -1 if c == -1 else None)


@settings(max_examples=40)
@given(product_pairs())
def test_cancelling_terms_store_no_zero(pair):
    # [a | a] @ [b ; -b] = a b - a b, and a + (-a): every term meets its negation
    a, b = pair
    twice = ExactMatrix.from_rows([list(a.row(i)) * 2 for i in range(a.rows)])
    stacked = ExactMatrix.from_rows([list(b.row(t)) for t in range(b.rows)]
                                    + [list((-b).row(t)) for t in range(b.rows)])
    for got in (twice @ stacked, a + (-a), a - a, a.kron(b) - a.kron(b)):
        assert_canonical(got)
        assert got.is_zero() and got.den == 1
        assert got == ExactMatrix.zeros(got.rows, got.cols)


@settings(max_examples=40)
@given(matrices(), st.integers(1, 12))
def test_denominators_cancel_back(a, k):
    half = ExactMatrix.from_rows([[Fraction(1, 2)]])
    assert half.den == 2 and half.scaled(2) == ExactMatrix.identity(1)
    assert half.scaled(2).den == 1 and (half + half).den == 1
    assert (half @ ExactMatrix.from_rows([[2]])).den == 1
    assert half.kron(ExactMatrix.from_rows([[4]])) == ExactMatrix.from_rows([[2]])
    # scaling by the denominator leaves Gaussian integers over 1
    assert a.scaled(a.den).den == 1
    there_and_back = a.scaled(Fraction(1, k)).scaled(k)
    assert_canonical(there_and_back)
    assert there_and_back == a and hash(there_and_back) == hash(a)


@settings(max_examples=40)
@given(product_pairs(), scalars)
def test_equal_matrices_by_different_routes(pair, s):
    a, b = pair
    routes = [
        a.scaled(s),
        ExactMatrix(a.rows, a.cols, [GaussianRational.coerce(s) * v for v in a.entries]),
        ExactMatrix.from_rows([[v * s for v in a.row(i)] for i in range(a.rows)]),
        a.transpose().scaled(s).transpose(),
        a.dagger().dagger().scaled(s),
    ]
    for m in routes:
        assert m == routes[0] and hash(m) == hash(routes[0])
    product = a @ b
    via_dagger = (b.dagger() @ a.dagger()).dagger()
    assert via_dagger == product and hash(via_dagger) == hash(product)


@settings(max_examples=40)
@given(matrices())
def test_pickle_and_copy_round_trips(a):
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and hash(twin) == hash(a)
        assert (twin.den, twin.sparse_rows) == (a.den, a.sparse_rows)
        assert twin.entries == a.entries


@settings(max_examples=40)
@given(same_shape_pairs())
def test_mismatch_compares_across_denominators(pair):
    a, b = pair
    witness = _mismatch(a, b)
    assert (witness is None) is (a == b)
    if witness is not None:
        i, j = (int(x) for x in witness.split(")")[0].split("(")[1].split(","))
        assert a.entry(i, j) != b.entry(i, j)
        assert all(a.row(r) == b.row(r) for r in range(i))
        assert a.row(i)[:j] == b.row(i)[:j]


# --- strict scalar parts --------------------------------------------------------

@pytest.mark.parametrize("parts", [(True, False), (1, True), (False, 0)])
def test_scalar_rejects_bool_parts(parts):
    with pytest.raises(TypeError, match="got bool"):
        GaussianRational(*parts)


@pytest.mark.parametrize("entry", [True, False, 0.5])
def test_matrix_rejects_bool_and_float_entries(entry):
    with pytest.raises(TypeError):
        ExactMatrix(1, 1, [entry])
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[1, entry]])
    with pytest.raises(TypeError):
        ExactMatrix.identity(2).scaled(entry)


def test_scalar_operators_defer_to_a_matrix_operand():
    m = ExactMatrix.from_rows([[1, Fraction(1, 2)], [GR_I, 0]])
    assert GR_I * m == m.scaled(GR_I) == m * GR_I
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a / b):
        with pytest.raises(TypeError):
            op(GR_I, m)


@pytest.mark.parametrize("other", [0.5, True])
def test_scalar_operators_reject_float_and_bool_operands(other):
    with pytest.raises(TypeError):
        GR_I * other
    with pytest.raises(TypeError):
        other * GR_I
    with pytest.raises(TypeError):
        GR_I - other
    with pytest.raises(TypeError):
        other - GR_I


# --- no scalar objects on the product path ----------------------------------------

def test_dim_64_verification_constructs_no_scalar(monkeypatch):
    pairs = [((6, 0), (6, 0)), ((4, 4), (4, 0))]
    factors = {pq: canonical_triple(*pq, "gamma1") for pair in pairs for pq in pair}
    created = []
    post_init = GaussianRational.__post_init__

    def counted(obj):
        created.append(obj)
        post_init(obj)

    # counted the way the benchmark's tracer counts them
    monkeypatch.setattr(linalg_module.GaussianRational, "__post_init__", counted)
    assert GaussianRational(1, 1) and len(created) == 1  # the wrapper counts
    created.clear()
    for a, b in pairs:
        for mode in ProductMode:
            v = verify_product(factors[a], factors[b], mode)
            assert v.product_dim == 64 and v.agreement
    assert created == []

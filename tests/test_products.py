"""Tensor products of triples: construction, sign prediction, matrix verification."""

import pytest

from kocalc.clifford import signature
import kocalc.products as products_module
import dataclasses
import weakref

from kocalc.errors import (
    IncompleteSigns,
    IndefiniteSign,
    InvalidComponent,
    NoChirality,
    NoTableMatch,
    NotSignInvolutive,
)
from kocalc.linalg import GR_I, Antiunitary, ExactMatrix, GaussianRational
from kocalc.products import (
    Incompatible,
    ProductMode,
    predicted_signs,
    product_triple,
    verify_product,
)
from kocalc.triples import (
    EPSILON_TABLE,
    FiniteSpectralTriple,
    SignTriple,
    canonical_triple,
    extract_signs,
    ko_from_signs,
    restrict_majorana_weyl,
    validate_triple,
)

EVEN_PQ_SMALL = [(p, n - p) for n in (2, 4) for p in range(n + 1)]


def rep_triple(p, q):
    return canonical_triple(p, q, "gamma1" if p >= 1 else "zero")


# --- construction ---------------------------------------------------------------


def test_product_operators_natural():
    t1 = rep_triple(1, 1)
    t2 = rep_triple(2, 0)
    prod = product_triple(t1, t2, ProductMode.NATURAL)
    eye1 = ExactMatrix.identity(t1.dim)
    eye2 = ExactMatrix.identity(t2.dim)
    assert prod.dim == t1.dim * t2.dim
    assert prod.dirac == t1.dirac.kron(eye2) + t1.chirality.kron(t2.dirac)
    assert prod.chirality == t1.chirality.kron(t2.chirality)
    assert prod.real_structure.k == t1.real_structure.k.kron(t2.real_structure.k)


def test_product_operators_modified():
    t1 = rep_triple(3, 1)
    t2 = rep_triple(0, 2)
    prod = product_triple(t1, t2, ProductMode.MODIFIED)
    k2_twisted = t2.real_structure.k @ t2.chirality.conj()
    assert prod.real_structure.k == t1.real_structure.k.kron(k2_twisted)


def test_product_dirac_square_splits():
    # cross terms cancel because D1 anticommutes with Omega1:
    # (D1 x 1 + Omega1 x D2)^2 = D1^2 x 1 + 1 x D2^2
    t1 = rep_triple(2, 0)
    t2 = rep_triple(1, 1)
    prod = product_triple(t1, t2, ProductMode.NATURAL)
    eye1 = ExactMatrix.identity(t1.dim)
    eye2 = ExactMatrix.identity(t2.dim)
    lhs = prod.dirac @ prod.dirac
    rhs = (t1.dirac @ t1.dirac).kron(eye2) + eye1.kron(t2.dirac @ t2.dirac)
    assert lhs == rhs


def test_product_requires_chirality():
    odd_style = FiniteSpectralTriple(
        dim=2, algebra_gens=(), dirac=ExactMatrix.zeros(2, 2),
        chirality=None,
        real_structure=Antiunitary(ExactMatrix.identity(2)),
    )
    with pytest.raises(NoChirality):
        product_triple(odd_style, rep_triple(1, 1), ProductMode.NATURAL)
    with pytest.raises(NoChirality):
        product_triple(rep_triple(1, 1), odd_style, ProductMode.NATURAL)


def test_product_tensors_generators():
    eye = ExactMatrix.identity(2)
    diag = ExactMatrix.from_rows([[2, 0], [0, 3]])
    sigma_z = ExactMatrix.from_rows([[1, 0], [0, -1]])
    with_gen = FiniteSpectralTriple(
        dim=2, algebra_gens=(diag,), dirac=ExactMatrix.zeros(2, 2),
        chirality=sigma_z, real_structure=Antiunitary(eye),
    )
    assert validate_triple(with_gen).passed
    prod = product_triple(with_gen, with_gen, ProductMode.NATURAL)
    assert prod.algebra_gens == (diag.kron(eye), eye.kron(diag))
    assert validate_triple(prod).passed


# --- sign calculus --------------------------------------------------------------


def test_predicted_signs_natural_rules():
    s1 = EPSILON_TABLE[0]
    s2 = EPSILON_TABLE[2]
    got = predicted_signs(s1, s2, ProductMode.NATURAL)
    assert got == SignTriple(s1.eps * s2.eps, s2.eps_prime, s1.eps_dprime * s2.eps_dprime)


def test_predicted_signs_natural_constraint_violation():
    s1 = EPSILON_TABLE[2]  # eps1' = +1, eps1'' = -1
    s2 = EPSILON_TABLE[0]  # eps2' = +1 -> constraint +1 = -1*+1 fails
    got = predicted_signs(s1, s2, ProductMode.NATURAL)
    assert isinstance(got, Incompatible)
    assert "eps1' = eps1''*eps2'" in got.violated_relation


def test_predicted_signs_modified_rules():
    s1 = EPSILON_TABLE[2]
    s2 = EPSILON_TABLE[6]
    got = predicted_signs(s1, s2, ProductMode.MODIFIED)
    assert got == SignTriple(
        s1.eps * s2.eps * s2.eps_dprime,
        s2.eps_prime,
        s1.eps_dprime * s2.eps_dprime,
    )
    assert got == SignTriple(1, 1, 1)


def test_predicted_signs_requires_enough_data():
    with pytest.raises(IncompleteSigns):
        predicted_signs(SignTriple(1, None, 1), SignTriple(1, 1, 1), ProductMode.NATURAL)
    with pytest.raises(IncompleteSigns):
        predicted_signs(SignTriple(1, 1, 1), SignTriple(1, 1, None), ProductMode.MODIFIED)


def test_predicted_signs_needs_the_first_factors_chirality_sign():
    for mode in ProductMode:
        with pytest.raises(IncompleteSigns) as err:
            predicted_signs(SignTriple(1, 1, None), SignTriple(1, 1, 1), mode)
        assert str(err.value) == "composition needs eps'' of the first factor"


def test_predicted_signs_odd_second_factor_keeps_odd_shape():
    s1 = EPSILON_TABLE[0]
    s2 = EPSILON_TABLE[1]
    got = predicted_signs(s1, s2, ProductMode.NATURAL)
    assert got == SignTriple(1, 1, None)


# --- matrix-level verification over the small grid ---------------------------------


@pytest.mark.parametrize("p1,q1", EVEN_PQ_SMALL)
@pytest.mark.parametrize("p2,q2", EVEN_PQ_SMALL)
@pytest.mark.parametrize("mode", [ProductMode.NATURAL, ProductMode.MODIFIED])
def test_grid_verification_is_consistent(p1, q1, p2, q2, mode):
    t1 = rep_triple(p1, q1)
    t2 = rep_triple(p2, q2)
    v = verify_product(t1, t2, mode)
    sigma_sum = (signature(p1, q1) + signature(p2, q2)) % 8
    assert v.agreement, (v.status, v.notes)
    if isinstance(v.prediction, SignTriple):
        assert v.status == "confirmed-compatible"
        assert v.matrix_signs is not None
        assert v.matrix_signs.eps == v.prediction.eps
        assert v.matrix_signs.eps_dprime == v.prediction.eps_dprime
        assert v.predicted_sigma == sigma_sum
        assert v.matrix_ko == sigma_sum
        # the product triple itself satisfies every axiom
        assert validate_triple(product_triple(t1, t2, mode)).passed
    else:
        assert v.status in ("confirmed-incompatible", "not-falsifiable")
        both_dirac_nonzero = not t1.dirac.is_zero() and not t2.dirac.is_zero()
        if both_dirac_nonzero:
            # a concrete witness vector is guaranteed
            assert v.status == "confirmed-incompatible"
            assert v.indefinite_witness is not None


def test_frozen_connes_product():
    v = verify_product(rep_triple(4, 0), rep_triple(2, 0), ProductMode.NATURAL)
    assert v.status == "confirmed-compatible"
    assert v.matrix_signs == SignTriple(-1, 1, -1)
    assert v.matrix_ko == 6
    assert v.product_dim == 8


def test_frozen_barrett_product():
    v = verify_product(rep_triple(3, 1), rep_triple(0, 2), ProductMode.MODIFIED)
    assert v.status == "confirmed-compatible"
    assert v.matrix_signs == SignTriple(1, 1, 1)
    assert v.matrix_ko == 0
    # real structure of the product is multiplication by i before conjugation
    prod = product_triple(rep_triple(3, 1), rep_triple(0, 2), ProductMode.MODIFIED)
    assert prod.real_structure.k == ExactMatrix.identity(8).scaled(GaussianRational(0, 1))
    assert restrict_majorana_weyl(prod) == (8, 4)


def test_frozen_incompatible_with_witness():
    t = rep_triple(2, 0)
    v = verify_product(t, t, ProductMode.NATURAL)
    assert v.status == "confirmed-incompatible"
    assert isinstance(v.prediction, Incompatible)
    assert "basis vector" in v.indefinite_witness


@pytest.mark.parametrize("pq1,pq2,mode", [
    ((2, 0), (2, 0), ProductMode.NATURAL),
    ((4, 0), (1, 1), ProductMode.MODIFIED),
])
def test_indefinite_witness_text_is_pinned(pq1, pq2, mode):
    v = verify_product(rep_triple(*pq1), rep_triple(*pq2), mode)
    assert v.status == "confirmed-incompatible"
    assert v.indefinite_witness == (
        "basis vector e0: (JD - DJ)e0 != 0 and (JD + DJ)e0 != 0"
    )


def test_indefinite_sign_carries_the_compared_sides():
    t = rep_triple(2, 0)
    prod = product_triple(t, t, ProductMode.NATURAL)
    k, d = prod.real_structure.k, prod.dirac
    with pytest.raises(IndefiniteSign) as info:
        extract_signs(prod)
    assert info.value.sides == (k @ d.conj(), d @ k)


@pytest.mark.parametrize("pq1", EVEN_PQ_SMALL)
@pytest.mark.parametrize("pq2", EVEN_PQ_SMALL)
def test_antiunitary_tensor_matches_checked_kron(pq1, pq2):
    t1, t2 = rep_triple(*pq1), rep_triple(*pq2)
    j1 = t1.real_structure
    for j2 in (t2.real_structure, t2.real_structure.precompose_linear(t2.chirality)):
        j = j1.tensor(j2)
        assert j == Antiunitary(j1.k.kron(j2.k))
        assert j.k.is_unitary()


@pytest.mark.parametrize("mode,checks", [(ProductMode.NATURAL, 0), (ProductMode.MODIFIED, 1)])
def test_product_checks_unitarity_only_of_the_twisted_factor(monkeypatch, mode, checks):
    t1, t2 = rep_triple(3, 1), rep_triple(2, 0)
    calls = []
    is_unitary = ExactMatrix.is_unitary

    def counted(m):
        calls.append(m.rows)
        return is_unitary(m)

    monkeypatch.setattr(ExactMatrix, "is_unitary", counted)
    reports = (validate_triple(t1), validate_triple(t2))
    calls.clear()
    product_triple(t1, t2, mode, reports)
    # the modified mode's K2 conj(Omega2) is checked, the Kronecker product is not
    assert calls == [t2.dim] * checks


def test_not_falsifiable_when_second_dirac_vanishes():
    v = verify_product(rep_triple(2, 0), rep_triple(0, 2), ProductMode.NATURAL)
    assert isinstance(v.prediction, Incompatible)
    assert v.status == "not-falsifiable"
    assert v.matrix_signs is not None
    # the realized product lands in the class the sum rule forbids for
    # a genuine nonzero-Dirac pairing
    assert v.matrix_ko == 4
    assert any("D = 0" in n for n in v.notes)


def test_prediction_depends_only_on_signature_class():
    # two different sigma = 2 first factors against the same second factor
    second = rep_triple(0, 2)
    v_a = verify_product(rep_triple(2, 0), second, ProductMode.MODIFIED)
    v_b = verify_product(rep_triple(3, 1), second, ProductMode.MODIFIED)
    assert v_a.prediction == v_b.prediction
    assert v_a.matrix_signs == v_b.matrix_signs
    assert v_a.matrix_ko == v_b.matrix_ko == 0


def test_eps_prime_evidence_notes():
    v = verify_product(rep_triple(2, 0), rep_triple(0, 2), ProductMode.MODIFIED)
    assert "component 2 has D = 0" in v.eps_prime_evidence
    assert any("table row" in n for n in v.notes)


def _ko_failing_on_product(monkeypatch, error):
    """Let the two component lookups through, then fail the product's lookup."""
    calls = []

    def lookup(signs, parity):
        calls.append(signs)
        if len(calls) > 2:
            raise error
        return ko_from_signs(signs, parity)

    monkeypatch.setattr(products_module, "ko_from_signs", lookup)
    return calls


def test_product_lookup_no_table_match_is_recorded(monkeypatch):
    calls = _ko_failing_on_product(monkeypatch, NoTableMatch("no row"))
    v = verify_product(rep_triple(4, 0), rep_triple(2, 0), ProductMode.NATURAL)
    assert len(calls) == 3
    assert v.matrix_ko is None
    assert any("match no table row" in n for n in v.notes)


def test_product_lookup_other_errors_propagate(monkeypatch):
    _ko_failing_on_product(monkeypatch, RuntimeError("broken lookup"))
    with pytest.raises(RuntimeError, match="broken lookup"):
        verify_product(rep_triple(4, 0), rep_triple(2, 0), ProductMode.NATURAL)


def test_verification_keeps_the_measured_product():
    t1, t2 = rep_triple(4, 0), rep_triple(2, 0)
    v = verify_product(t1, t2, ProductMode.MODIFIED, keep_product=True)
    assert v.product == product_triple(t1, t2, ProductMode.MODIFIED)
    assert v.product.dim == v.product_dim
    assert v == verify_product(t1, t2, ProductMode.MODIFIED)


def test_verification_frees_the_product_before_returning(monkeypatch):
    built = []

    def recording(*args):
        product = product_triple(*args)
        built.append(weakref.ref(product))
        return product

    monkeypatch.setattr(products_module, "product_triple", recording)
    v = verify_product(rep_triple(4, 0), rep_triple(2, 0), ProductMode.MODIFIED)
    assert len(built) == 1 and built[0]() is None
    assert v.product is None and v.product_dim == 8


# --- invalid factors ------------------------------------------------------------------


def _factor_with_bad_j_square():
    """Cl(1,1) with a unitary K whose K conj(K) = diag(-i, i) is not +-I."""
    k = ExactMatrix.from_rows([[0, 1], [GR_I, 0]])
    return dataclasses.replace(rep_triple(1, 1), real_structure=Antiunitary(k))


def _factor_with_non_hermitian_dirac():
    """Cl(1,1) with D = sigma_x + i sigma_z: J still commutes with D and D
    still anticommutes with the chirality, but D is not hermitian."""
    d = ExactMatrix.from_rows([[GR_I, 1], [1, -GR_I]])
    return dataclasses.replace(rep_triple(1, 1), dirac=d)


@pytest.mark.parametrize("mode", [ProductMode.NATURAL, ProductMode.MODIFIED])
@pytest.mark.parametrize("bad_first", [True, False])
def test_verify_product_rejects_a_j_that_is_not_sign_involutive(mode, bad_first):
    bad, good = _factor_with_bad_j_square(), rep_triple(1, 1)
    pair = (bad, good) if bad_first else (good, bad)
    with pytest.raises(NotSignInvolutive, match=r"^J squared is not \+-identity$"):
        verify_product(*pair, mode)


@pytest.mark.parametrize("mode", [ProductMode.NATURAL, ProductMode.MODIFIED])
@pytest.mark.parametrize("which", ["first", "second"])
def test_verify_product_rejects_a_non_hermitian_dirac(mode, which):
    bad, good = _factor_with_non_hermitian_dirac(), rep_triple(1, 1)
    assert extract_signs(bad) == SignTriple(+1, +1, +1)  # the signs alone look fine
    pair = (bad, good) if which == "first" else (good, bad)
    message = f"^{which} factor fails validation: dirac_hermitian$"
    with pytest.raises(InvalidComponent, match=message):
        verify_product(*pair, mode)
    with pytest.raises(InvalidComponent, match=message):
        product_triple(*pair, mode)

"""Gamma construction, volume element, chirality, real structure, classification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kocalc.clifford import (
    CliffordRep,
    build_gammas,
    chirality,
    classify_algebra,
    find_real_structure,
    signature,
    theta_square_sign,
    volume_element,
)
from kocalc.errors import OddDimensionUnsupported, RealStructureNotFound, TooManyGenerators
from kocalc.linalg import ExactMatrix, GaussianRational

from oracles import lex_subset_real_structure, sympy_is_unitary

EVEN_PQ = [(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]


def eta(p, q):
    return [1] * p + [-1] * q


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_anticommutation_relations(p, q):
    rep = build_gammas(p, q)
    n = p + q
    assert rep.dim == 2 ** (n // 2)
    metric = eta(p, q)
    eye = ExactMatrix.identity(rep.dim)
    for a in range(n):
        for b in range(a, n):
            anti = rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a]
            expected = eye.scaled(GaussianRational(2 * metric[a])) if a == b \
                else ExactMatrix.zeros(rep.dim, rep.dim)
            assert anti == expected


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_hermiticity_pattern(p, q):
    rep = build_gammas(p, q)
    metric = eta(p, q)
    for g, s in zip(rep.gammas, metric):
        # gamma^dagger = eta^{aa} gamma, i.e. hermitian iff square +1
        assert g.dagger() == g.scaled(GaussianRational(s))
        assert g.is_unitary()


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_entries_are_signed_units(p, q):
    rep = build_gammas(p, q)
    allowed = {
        GaussianRational(0, 0), GaussianRational(1), GaussianRational(-1),
        GaussianRational(0, 1), GaussianRational(0, -1),
    }
    for g in rep.gammas:
        all_real = all(e.im == 0 for e in g.entries)
        all_imag = all(e.re == 0 for e in g.entries)
        assert all_real or all_imag
        assert set(g.entries) <= allowed


def test_base_case_matrices():
    rep = build_gammas(2, 0)
    assert rep.gammas[0] == ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert rep.gammas[1] == ExactMatrix.from_rows([[1, 0], [0, -1]])
    rep = build_gammas(0, 2)
    i = GaussianRational(0, 1)
    assert rep.gammas[0] == ExactMatrix.from_rows([[0, i], [i, 0]])
    assert rep.gammas[1] == ExactMatrix.from_rows([[i, 0], [0, -i]])


def test_odd_dimension_rejected():
    with pytest.raises(OddDimensionUnsupported):
        build_gammas(2, 1)
    with pytest.raises(ValueError):
        build_gammas(0, 0)


@pytest.mark.parametrize("p,q", [(16, 0), (8, 8), (0, 16), (15, 0), (40, 0), (1, 10**9)])
def test_generator_count_bounded(p, q):
    with pytest.raises(TooManyGenerators, match="at most 14"):
        build_gammas(p, q)


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_volume_element_square(p, q):
    rep = build_gammas(p, q)
    theta = volume_element(rep)
    sign = theta_square_sign(p, q)
    assert (-1) ** (((p - q) // 2) % 2) == sign
    assert theta @ theta == ExactMatrix.identity(rep.dim).scaled(GaussianRational(sign))


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_chirality_properties(p, q):
    rep = build_gammas(p, q)
    omega = chirality(rep)
    eye = ExactMatrix.identity(rep.dim)
    assert omega.is_hermitian()
    assert omega @ omega == eye
    for g in rep.gammas:
        assert omega @ g == (g @ omega).scaled(GaussianRational(-1))


# The expected value of K conj(K) for each signature class, from the
# stored sign table (independently re-derived in test_triples).
EPS_BY_SIGMA = {0: 1, 2: 1, 4: -1, 6: -1}
EPS_DPRIME_BY_SIGMA = {0: 1, 2: -1, 4: 1, 6: -1}


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_real_structure_invariants(p, q):
    rep = build_gammas(p, q)
    j = find_real_structure(rep)
    k = j.k
    sigma = signature(p, q)
    assert k.is_unitary()
    assert sympy_is_unitary(k)
    # J commutes with every real-linear combination of the gammas
    for g in rep.gammas:
        assert k @ g.conj() == g @ k
    # J^2 = eps * identity with the table sign
    eps = EPS_BY_SIGMA[sigma]
    assert j.squared() == ExactMatrix.identity(rep.dim).scaled(GaussianRational(eps))
    # J Omega = eps'' Omega J
    omega = chirality(rep)
    eps_dd = EPS_DPRIME_BY_SIGMA[sigma]
    assert k @ omega.conj() == (omega @ k).scaled(GaussianRational(eps_dd))


def test_real_structure_deterministic_and_cached():
    rep = build_gammas(2, 2)
    assert find_real_structure(rep) is find_real_structure(rep)


def test_real_structure_eight_dimensional_spot_checks():
    for p, q in [(8, 0), (4, 4), (0, 8), (10, 0), (5, 5), (12, 0), (7, 5), (14, 0), (0, 14)]:
        rep = build_gammas(p, q)
        dim = 2 ** ((p + q) // 2)
        assert rep.dim == dim
        j = find_real_structure(rep)
        assert j.k.is_unitary()
        for g in rep.gammas:
            assert j.k @ g.conj() == g @ j.k
        eps = EPS_BY_SIGMA[signature(p, q)]
        assert j.squared() == ExactMatrix.identity(dim).scaled(GaussianRational(eps))
        eps_dd = EPS_DPRIME_BY_SIGMA[signature(p, q)]
        omega = chirality(rep)
        assert j.k @ omega.conj() == (omega @ j.k).scaled(GaussianRational(eps_dd))


ORACLE_PQ = [(p, n - p) for n in (2, 4, 6, 8) for p in range(n + 1)]


@pytest.mark.parametrize("p,q", ORACLE_PQ)
def test_real_structure_matches_lex_subset_search(p, q):
    rep = build_gammas(p, q)
    assert find_real_structure(rep).k == lex_subset_real_structure(rep).k


def test_real_structure_issues_linearly_many_products(monkeypatch):
    rep = build_gammas(10, 0)
    calls = []
    matmul = ExactMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    find_real_structure.__wrapped__(rep)
    # at most n products build K, 2n check it and one checks unitarity
    assert len(calls) <= 3 * rep.n + 1


def _rotated_cl20() -> CliffordRep:
    """Cl(2,0) conjugated by a rational unitary that mixes real and
    imaginary parts.  U = 3/5 + (4i/5) sigma_x commutes with G_1 = sigma_x
    and turns G_2 = sigma_z into -7/25 sigma_z + 24/25 sigma_y, which is
    neither real nor imaginary."""
    f = Fraction
    u = ExactMatrix.from_rows([
        [GaussianRational(f(3, 5)), GaussianRational(0, f(4, 5))],
        [GaussianRational(0, f(4, 5)), GaussianRational(f(3, 5))],
    ])
    assert u.is_unitary()
    rep = build_gammas(2, 0)
    gammas = tuple(u @ g @ u.dagger() for g in rep.gammas)
    assert gammas[0] == rep.gammas[0]
    assert gammas[1].conj() not in (gammas[1], -gammas[1])
    return CliffordRep(2, 0, gammas, rep.metric)


def test_no_real_structure_for_generators_neither_real_nor_imaginary():
    rep = _rotated_cl20()
    with pytest.raises(RealStructureNotFound, match="neither real nor imaginary"):
        find_real_structure(rep)
    with pytest.raises(RealStructureNotFound):
        lex_subset_real_structure(rep)


# --- classification ------------------------------------------------------------


def test_five_named_isomorphisms():
    assert classify_algebra(1, 3).algebra_name() == "M₂(H)"
    assert classify_algebra(3, 1).algebra_name() == "M₄(R)"
    assert classify_algebra(4, 0).algebra_name() == "M₂(H)"
    assert classify_algebra(0, 2).algebra_name() == "H"
    assert "SU(2)" in classify_algebra(0, 2).unitary_group_label
    assert classify_algebra(2, 0).algebra_name() == "M₂(R)"


def test_unitary_group_labels():
    assert classify_algebra(2, 0).unitary_group_label == "O(2)"
    assert classify_algebra(2, 0).connected_note == "SO(2) ≅ U(1)"
    assert classify_algebra(1, 3).unitary_group_label == "Sp(2)"
    assert classify_algebra(1, 1).unitary_group_label == "O(2)"


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=49)
def test_classification_real_dimension_identity(p, q):
    cls = classify_algebra(p, q)
    base_dim = {"R": 1, "C": 2, "H": 4}[cls.base[0]]
    assert cls.summands * base_dim * cls.matrix_size**2 == 2 ** (p + q)


def test_classification_depends_only_on_sigma():
    for p, q in EVEN_PQ:
        mirror = classify_algebra(p + 1, q + 1)
        here = classify_algebra(p, q)
        assert signature(p + 1, q + 1) == signature(p, q)
        assert mirror.base == here.base
        assert mirror.matrix_size == 2 * here.matrix_size


def test_odd_signature_classification():
    # sigma = 1: R + R; sigma = 3: C; sigma = 5: H + H; sigma = 7: C
    assert classify_algebra(1, 0).algebra_name() == "R ⊕ R"
    assert classify_algebra(0, 1).algebra_name() == "C"
    assert classify_algebra(3, 0).algebra_name() == "M₂(C)"
    assert classify_algebra(5, 0).algebra_name() == "M₂(H) ⊕ M₂(H)"

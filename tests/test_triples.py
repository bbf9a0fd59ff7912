"""Finite triple construction, axiom validation, signs, KO lookup, twist, restriction."""

from fractions import Fraction

import pytest

import kocalc.triples as triples_module
from kocalc.clifford import signature
from kocalc.errors import (
    DimensionMismatch,
    IncompleteSigns,
    IndefiniteSign,
    InvalidArgument,
    InvalidComponent,
    InvalidTriple,
    NoChirality,
    NoHermitianGenerator,
    NoTableMatch,
    NotSignInvolutive,
    NotUnitary,
    RestrictionUndefined,
)
from kocalc.linalg import Antiunitary, ExactMatrix, GaussianRational
from kocalc.triples import (
    EPSILON_TABLE,
    FiniteSpectralTriple,
    SignTriple,
    canonical_triple,
    extract_signs,
    ko_from_signs,
    restrict_majorana_weyl,
    twist_real_structure,
    validate_triple,
)
from kocalc.products import ProductMode, product_triple, verify_product
from kocalc.triple_io import parse_triple, serialize_triple

from oracles import real_fixed_dim, real_fixed_dim_constrained, sympy_real_fixed_dim

EVEN_PQ = [(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]


def mat(rows):
    return ExactMatrix.from_rows(rows)


def dirac_modes(p):
    return ("zero", "gamma1") if p >= 1 else ("zero",)


# --- sign table shape -----------------------------------------------------------


def test_stored_table_values():
    assert EPSILON_TABLE[0] == SignTriple(1, 1, 1)
    assert EPSILON_TABLE[1] == SignTriple(1, 1, None)
    assert EPSILON_TABLE[2] == SignTriple(1, 1, -1)
    assert EPSILON_TABLE[3] == SignTriple(-1, -1, None)
    assert EPSILON_TABLE[4] == SignTriple(-1, 1, 1)
    assert EPSILON_TABLE[5] == SignTriple(-1, 1, None)
    assert EPSILON_TABLE[6] == SignTriple(-1, 1, -1)
    assert EPSILON_TABLE[7] == SignTriple(1, -1, None)


def test_sign_triple_validation_and_rendering():
    with pytest.raises(InvalidArgument):
        SignTriple(2, 1, 1)
    assert str(SignTriple(1, None, -1)) == "(+1, ., -1)"


def test_sign_triple_rejects_booleans():
    # bool is a subclass of int and True == 1, so it needs its own check
    with pytest.raises(InvalidArgument):
        SignTriple(True)
    with pytest.raises(InvalidArgument):
        SignTriple(1, True, None)


# --- canonical triples ------------------------------------------------------------


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_canonical_triples_validate_and_match_table(p, q):
    row = EPSILON_TABLE[signature(p, q)]
    for mode in dirac_modes(p):
        t = canonical_triple(p, q, mode)
        report = validate_triple(t)
        assert report.passed, report.failures
        signs = extract_signs(t)
        assert signs.eps == row.eps
        assert signs.eps_dprime == row.eps_dprime
        if mode == "gamma1":
            assert signs.eps_prime == row.eps_prime
        else:
            assert signs.eps_prime is None
        assert ko_from_signs(signs, "even") == signature(p, q)


def test_gamma1_requires_hermitian_generator():
    with pytest.raises(NoHermitianGenerator):
        canonical_triple(0, 2, "gamma1")
    t = canonical_triple(1, 1, "gamma1")
    assert t.dirac == mat([[0, 1], [1, 0]])


def test_canonical_triple_cached():
    assert canonical_triple(2, 2) is canonical_triple(2, 2)


# --- validation failure witnesses ----------------------------------------------------


def _triple_20():
    return canonical_triple(2, 0, "gamma1")


def test_validate_flags_nonhermitian_dirac():
    t = _triple_20()
    bad = FiniteSpectralTriple(
        dim=t.dim, algebra_gens=t.algebra_gens,
        dirac=mat([[0, 1], [0, 0]]),
        chirality=t.chirality, real_structure=t.real_structure,
    )
    report = validate_triple(bad)
    assert not report.passed
    assert "dirac_hermitian" in [c.name for c in report.failures]
    check = {c.name: c for c in report.checks}["dirac_hermitian"]
    assert check.witness  # pinpoints an entry


def test_validate_flags_bad_chirality():
    t = _triple_20()
    bad = FiniteSpectralTriple(
        dim=t.dim, algebra_gens=t.algebra_gens, dirac=t.dirac,
        chirality=ExactMatrix.identity(2),  # fails to anticommute with D
        real_structure=t.real_structure,
    )
    report = validate_triple(bad)
    assert "dirac_anticommutes_chirality" in [c.name for c in report.failures]


def test_validate_flags_sign_relation_break():
    # real structure that is unitary and involutive but has no definite
    # commutation sign with D
    t = canonical_triple(1, 1, "gamma1")
    k = mat([[1, 0], [0, GaussianRational(0, 1)]])  # K conj(K) = I
    bad = FiniteSpectralTriple(
        dim=2, algebra_gens=(), dirac=t.dirac, chirality=t.chirality,
        real_structure=Antiunitary(k),
    )
    report = validate_triple(bad)
    assert "real_structure_vs_dirac" in [c.name for c in report.failures]


def test_validate_order_zero_condition():
    eye = ExactMatrix.identity(2)
    diag = mat([[2, 0], [0, 3]])
    good = FiniteSpectralTriple(
        dim=2, algebra_gens=(diag,), dirac=ExactMatrix.zeros(2, 2),
        chirality=mat([[1, 0], [0, -1]]), real_structure=Antiunitary(eye),
    )
    assert validate_triple(good).passed

    sigma_x = mat([[0, 1], [1, 0]])
    bad = FiniteSpectralTriple(
        dim=2, algebra_gens=(diag, sigma_x), dirac=ExactMatrix.zeros(2, 2),
        chirality=mat([[1, 0], [0, -1]]), real_structure=Antiunitary(eye),
    )
    report = validate_triple(bad)
    failing = [c.name for c in report.failures]
    # sigma_x fails to commute with chirality, and the two generators
    # break the order-zero commutator condition
    assert "chirality_commutes_gen_1" in failing
    assert any(name.startswith("order_zero") for name in failing)


def test_dirac_zero_skips_vacuous_anticommutation():
    t = canonical_triple(0, 2, "zero")
    names = [c.name for c in validate_triple(t).checks]
    assert "dirac_anticommutes_chirality" in names  # present but vacuous
    assert validate_triple(t).passed


# --- sign extraction edge cases ---------------------------------------------------------


def test_extract_signs_not_involutive():
    t = _triple_20()
    k = mat([[0, 1], [GaussianRational(0, 1), 0]])  # K conj(K) = diag(-i, i)... not +-I
    bad = FiniteSpectralTriple(
        dim=2, algebra_gens=(), dirac=ExactMatrix.zeros(2, 2),
        chirality=t.chirality, real_structure=Antiunitary(k),
    )
    with pytest.raises(NotSignInvolutive):
        extract_signs(bad)


def test_extract_signs_indefinite():
    one_i = GaussianRational(1, 1)
    one_mi = GaussianRational(1, -1)
    d = mat([[0, one_i], [one_mi, 0]])  # hermitian but conj(D) != +-D
    t = canonical_triple(1, 1, "zero")
    bad = FiniteSpectralTriple(
        dim=2, algebra_gens=(), dirac=d, chirality=t.chirality,
        real_structure=Antiunitary(ExactMatrix.identity(2)),
    )
    with pytest.raises(IndefiniteSign):
        extract_signs(bad)


def test_extract_signs_odd_style_triple():
    # no chirality: eps'' must come back absent
    t = FiniteSpectralTriple(
        dim=2, algebra_gens=(), dirac=mat([[0, 1], [1, 0]]),
        chirality=None, real_structure=Antiunitary(ExactMatrix.identity(2)),
    )
    signs = extract_signs(t)
    assert signs == SignTriple(1, 1, None)
    assert ko_from_signs(signs, "odd") == 1


# --- one measurement for validation and signs ---------------------------------------


def _outcome(fn, t):
    try:
        return fn(t)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _edge_triples():
    t20 = _triple_20()
    t11 = canonical_triple(1, 1, "gamma1")
    i = GaussianRational(0, 1)
    return [
        # J o J is not +-I
        FiniteSpectralTriple(2, (), ExactMatrix.zeros(2, 2), t20.chirality,
                             Antiunitary(mat([[0, 1], [i, 0]]))),
        # no uniform sign against D
        FiniteSpectralTriple(2, (), mat([[0, GaussianRational(1, 1)], [GaussianRational(1, -1), 0]]),
                             t11.chirality, Antiunitary(ExactMatrix.identity(2))),
        # no uniform sign against Omega
        FiniteSpectralTriple(2, (), ExactMatrix.zeros(2, 2), mat([[1, 0], [0, i]]),
                             Antiunitary(ExactMatrix.identity(2))),
        # D not hermitian, signs fine
        FiniteSpectralTriple(2, (), mat([[i, 1], [1, -i]]), t11.chirality, t11.real_structure),
        # no chirality
        FiniteSpectralTriple(2, (), mat([[0, 1], [1, 0]]), None,
                             Antiunitary(ExactMatrix.identity(2))),
        # operator shapes disagree with dim
        FiniteSpectralTriple(4, (), t20.dirac, t20.chirality, t20.real_structure),
    ]


@pytest.mark.parametrize("t", [canonical_triple(p, q, mode)
                               for p, q in EVEN_PQ[:8] for mode in dirac_modes(p)]
                         + _edge_triples())
def test_validate_and_extract_matches_the_two_calls(t):
    # the signs read from the validation report are extract_signs' outcome
    expected = _outcome(extract_signs, t)
    report = validate_triple(t)
    got = _outcome(lambda t: report.require_signs(), t)
    assert got == expected
    if isinstance(expected, SignTriple) and report.measured is not None:
        assert report.signs == expected


def _misshaped_triples():
    """A D, an Omega and a generator whose shapes disagree with J's."""
    t20, t40 = _triple_20(), canonical_triple(4, 0, "gamma1")
    return [
        FiniteSpectralTriple(2, (), t40.dirac, t20.chirality, t20.real_structure),
        FiniteSpectralTriple(2, (), t20.dirac, t40.chirality, t20.real_structure),
        FiniteSpectralTriple(2, (ExactMatrix.identity(3),), t20.dirac, t20.chirality,
                             t20.real_structure),
    ]


def _fails(*names):
    """The InvalidComponent outcomes of a product with this factor first and second."""
    listed = ", ".join(names)
    return tuple((InvalidComponent, f"{which} factor fails validation: {listed}")
                 for which in ("first", "second"))


_NOT_INVOLUTIVE = (NotSignInvolutive, "J squared is not +-identity")
_INDEFINITE_D = (IndefiniteSign, "J has no uniform commutation sign with D")
_INDEFINITE_OMEGA = (IndefiniteSign, "J has no uniform commutation sign with Omega")
_MISMATCH = (DimensionMismatch, "cannot multiply 2x2 by 4x4")
_SHAPES = _fails("operator_shapes")

#: Per triple of _edge_triples() + _misshaped_triples(): the outcomes of
#: extract_signs, restrict_majorana_weyl, product_triple with the triple as
#: first and as second factor, and verify_product likewise.  The other
#: factor is the canonical Cl(1,1) triple, and both modes agree.
_PINNED_OUTCOMES = [
    (_NOT_INVOLUTIVE, _NOT_INVOLUTIVE,
     *_fails("real_structure_sign_involutive", "real_structure_vs_chirality"),
     _NOT_INVOLUTIVE, _NOT_INVOLUTIVE),
    (_INDEFINITE_D, _INDEFINITE_D,
     *_fails("dirac_anticommutes_chirality", "real_structure_vs_dirac"),
     _INDEFINITE_D, _INDEFINITE_D),
    (_INDEFINITE_OMEGA, _INDEFINITE_OMEGA,
     *_fails("chirality_hermitian", "chirality_involution", "real_structure_vs_chirality"),
     _INDEFINITE_OMEGA, _INDEFINITE_OMEGA),
    (SignTriple(1, 1, 1), (InvalidTriple, "triple fails validation: dirac_hermitian"),
     *_fails("dirac_hermitian"), *_fails("dirac_hermitian")),
    (SignTriple(1, 1, None),
     (RestrictionUndefined, "needs eps = +1 and eps'' = +1, got (+1, +1, .)"),
     (NoChirality, "first factor needs a chirality operator"),
     (NoChirality, "second factor needs a chirality operator"),
     (IncompleteSigns, "even lookup needs eps''"), (IncompleteSigns, "even lookup needs eps''")),
    (SignTriple(1, 1, -1), (InvalidTriple, "triple fails validation: operator_shapes"),
     *_SHAPES, *_SHAPES),
    (_MISMATCH, _MISMATCH, *_SHAPES, _MISMATCH, _MISMATCH),
    (_MISMATCH, _MISMATCH, *_SHAPES, _MISMATCH, _MISMATCH),
    (SignTriple(1, 1, -1), (InvalidTriple, "triple fails validation: operator_shapes"),
     *_SHAPES, *_SHAPES),
]


@pytest.mark.parametrize("mode", list(ProductMode))
@pytest.mark.parametrize("t, expected", list(zip(_edge_triples() + _misshaped_triples(),
                                                 _PINNED_OUTCOMES)))
def test_every_measuring_caller_keeps_its_outcome(t, expected, mode):
    good = canonical_triple(1, 1, "gamma1")
    got = (
        _outcome(extract_signs, t),
        _outcome(restrict_majorana_weyl, t),
        _outcome(lambda t: product_triple(t, good, mode), t),
        _outcome(lambda t: product_triple(good, t, mode), t),
        _outcome(lambda t: verify_product(t, good, mode), t),
        _outcome(lambda t: verify_product(good, t, mode), t),
    )
    assert got == expected


def test_indefinite_sign_carries_the_sides_of_the_first_failing_relation():
    f = GaussianRational
    # D = 4 sigma_x - 3 sigma_y and Omega = (3 sigma_x + 4 sigma_y)/5 mix real
    # and imaginary parts, so J = complex conjugation has no uniform sign
    # against either; D is reported, being measured first.
    d = mat([[0, f(4, 3)], [f(4, -3), 0]])
    omega = mat([[0, f(Fraction(3, 5), Fraction(-4, 5))], [f(Fraction(3, 5), Fraction(4, 5)), 0]])
    eye = ExactMatrix.identity(2)
    both = FiniteSpectralTriple(2, (), d, omega, Antiunitary(eye))
    only_omega = FiniteSpectralTriple(2, (), ExactMatrix.zeros(2, 2), omega, Antiunitary(eye))
    for t, op, name in ((both, d, "D"), (only_omega, omega, "Omega")):
        for call in (extract_signs, lambda t: validate_triple(t).require_signs()):
            with pytest.raises(IndefiniteSign, match=f"sign with {name}$") as info:
                call(t)
            assert info.value.sides == (op.conj(), op)


def test_validation_reports_a_misshaped_generator():
    t = _triple_20()
    bad = FiniteSpectralTriple(t.dim, (ExactMatrix.identity(3),), t.dirac,
                               t.chirality, t.real_structure)
    report = validate_triple(bad)
    assert [c.name for c in report.failures] == ["operator_shapes"]


def test_verify_product_measures_each_triple_once(monkeypatch):
    measured = []
    original = triples_module._measure_signs

    def counting(t, *args, **kwargs):
        measured.append(t)
        return original(t, *args, **kwargs)

    monkeypatch.setattr(triples_module, "_measure_signs", counting)
    t1, t2 = canonical_triple(2, 0, "gamma1"), canonical_triple(1, 1, "gamma1")
    v = verify_product(t1, t2, ProductMode.NATURAL, keep_product=True)
    assert measured == [t1, t2, v.product]


def _unitarity_cases():
    """Canonical, twisted and product triples, products in both modes."""
    canon = [canonical_triple(p, q, mode) for p, q in EVEN_PQ[:8] for mode in dirac_modes(p)]
    twisted = [twist_real_structure(t) for t in canon]
    t20, t40, t02 = (canonical_triple(2, 0, "gamma1"), canonical_triple(4, 0, "gamma1"),
                     canonical_triple(0, 2, "zero"))
    products = [product_triple(a, b, mode)
                for a in (t20, t40) for b in (t20, t02) for mode in ProductMode]
    return canon + twisted + products


@pytest.mark.parametrize("t", _unitarity_cases())
def test_unitarity_entry_equals_a_fresh_unitarity_check(t):
    # validate_triple no longer recomputes K^dagger K: the entry must still
    # say what the check would say
    report = validate_triple(t)
    entry = next(c for c in report.checks if c.name == "real_structure_unitary")
    assert entry.passed is t.real_structure.k.is_unitary() is True
    assert entry.witness is None


def test_non_unitary_real_structure_is_rejected_on_construction():
    with pytest.raises(NotUnitary, match="unitary"):
        Antiunitary(mat([[1, 1], [0, 1]]))
    with pytest.raises(NotUnitary, match="unitary"):
        Antiunitary(ExactMatrix.identity(2).scaled(2))


def test_validation_checks_unitarity_only_on_construction(monkeypatch):
    calls = []
    original = ExactMatrix.is_unitary

    def counting(m):
        calls.append(m)
        return original(m)

    data = serialize_triple(canonical_triple(4, 4, "gamma1"), {})
    monkeypatch.setattr(ExactMatrix, "is_unitary", counting)
    parse_triple(data, validate=True)
    assert len(calls) == 1  # the parser's Antiunitary(...), not validate_triple


# --- KO lookup --------------------------------------------------------------------------


def test_ko_lookup_even_rows():
    for sigma in (0, 2, 4, 6):
        assert ko_from_signs(EPSILON_TABLE[sigma], "even") == sigma


def test_ko_lookup_odd_rows():
    for sigma in (1, 3, 5, 7):
        row = EPSILON_TABLE[sigma]
        assert ko_from_signs(SignTriple(row.eps, row.eps_prime, None), "odd") == sigma


def test_ko_lookup_rejects_bad_rows():
    with pytest.raises(NoTableMatch):
        ko_from_signs(SignTriple(1, -1, 1), "even")  # eps' = -1 is not an even row
    with pytest.raises(IncompleteSigns):
        ko_from_signs(SignTriple(1, 1, None), "even")  # eps'' needed for even parity
    with pytest.raises(IncompleteSigns):
        ko_from_signs(SignTriple(1, None, None), "odd")  # eps' needed for odd parity
    # D = 0 leaves eps' free: even lookup fills the table value
    assert ko_from_signs(SignTriple(-1, None, -1), "even") == 6


# --- twist ------------------------------------------------------------------------------


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_twist_sign_map_and_involution(p, q):
    for mode in dirac_modes(p):
        t = canonical_triple(p, q, mode)
        before = extract_signs(t)
        tw = twist_real_structure(t)
        after = extract_signs(tw)
        assert after.eps == before.eps * before.eps_dprime
        assert after.eps_dprime == before.eps_dprime
        if before.eps_prime is not None:
            assert after.eps_prime == -before.eps_prime
        else:
            assert after.eps_prime is None
        # twisting twice restores the exact matrix
        assert twist_real_structure(tw).real_structure.k == t.real_structure.k


def test_twisted_even_triple_with_dirac_leaves_the_table():
    t = canonical_triple(2, 0, "gamma1")
    tw = twist_real_structure(t)
    with pytest.raises(NoTableMatch):
        ko_from_signs(extract_signs(tw), "even")


def test_twist_requires_chirality():
    t = FiniteSpectralTriple(
        dim=2, algebra_gens=(), dirac=ExactMatrix.zeros(2, 2),
        chirality=None, real_structure=Antiunitary(ExactMatrix.identity(2)),
    )
    with pytest.raises(NoChirality):
        twist_real_structure(t)


# --- Majorana-Weyl restriction -------------------------------------------------------------


def test_restriction_on_sigma_zero_family():
    # every constructed sigma = 0 canonical triple restricts to half
    for p, q in EVEN_PQ:
        if signature(p, q) != 0:
            continue
        for mode in dirac_modes(p):
            t = canonical_triple(p, q, mode)
            full, chiral = restrict_majorana_weyl(t)
            assert full == t.dim
            assert chiral == t.dim // 2


def test_restriction_frozen_example():
    assert restrict_majorana_weyl(canonical_triple(1, 1, "gamma1")) == (2, 1)


def test_restriction_matches_oracle():
    t = canonical_triple(3, 3, "gamma1")
    full, chiral = restrict_majorana_weyl(t)
    k = t.real_structure.k
    assert full == sympy_real_fixed_dim(k)
    assert chiral == sympy_real_fixed_dim(k, (t.chirality,))


@pytest.mark.parametrize(
    "p,q", [(2, 0), (0, 2), (4, 0), (1, 3)]
)
def test_restriction_undefined_off_sigma_zero(p, q):
    t = canonical_triple(p, q)
    with pytest.raises(RestrictionUndefined):
        restrict_majorana_weyl(t)


def _restriction_candidates():
    """Canonical triples with p + q <= 10 in both Dirac modes, their twists,
    and the products of dim <= 16 of the dim <= 4 canonical triples, in
    both modes."""
    canon = [canonical_triple(p, n - p, mode) for n in (2, 4, 6, 8, 10)
             for p in range(n + 1) for mode in dirac_modes(p)]
    small = [t for t in canon if t.dim <= 4]
    products = [product_triple(a, b, mode) for a in small for b in small
                for mode in ProductMode]
    return canon + [twist_real_structure(t) for t in canon] + products


def test_restriction_theorem_matches_elimination_on_every_eligible_triple():
    eligible = 0
    for t in _restriction_candidates():
        signs = extract_signs(t) if validate_triple(t).passed else None
        if signs is None or signs.eps != 1 or signs.eps_dprime != 1:
            continue
        eligible += 1
        assert restrict_majorana_weyl(t) == (
            real_fixed_dim(t.real_structure),
            real_fixed_dim_constrained(t.real_structure, (t.chirality,)),
        )
    assert eligible == 123  # of 522 candidates


def test_restriction_validates_first():
    # 2 Omega still has a uniform sign against J, but is no involution: the
    # trace formula would give (2, 1) and elimination (2, 0)
    t = canonical_triple(1, 1, "gamma1")
    doubled = FiniteSpectralTriple(t.dim, (), t.dirac, t.chirality.scaled(2), t.real_structure)
    assert validate_triple(doubled).require_signs() == SignTriple(1, 1, 1)
    with pytest.raises(InvalidTriple,
                       match="^triple fails validation: chirality_involution$"):
        restrict_majorana_weyl(doubled)

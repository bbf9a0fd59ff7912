"""Pure sign-table calculus: grids, annotations, scenarios, consistency scans."""

from dataclasses import replace
from unittest import mock

import pytest

import kocalc.signcalc as signcalc_module
from kocalc.errors import InvalidArgument
from kocalc.products import ProductMode, verify_product
from kocalc.signcalc import (
    MATRIX_REPRESENTATIVES,
    SCENARIOS,
    ScenarioCase,
    additivity_scan,
    case_annotations,
    enumerate_compatible,
    epsilon_table_cells,
    matrix_calculus_agreement,
    scenario_check,
)
from kocalc.triples import EPSILON_TABLE, SignTriple, canonical_triple

from signature_sweep import canonical_factors, sweep

EVEN = (0, 2, 4, 6)
ODD = (1, 3, 5, 7)


def entry_map(sigma1, mode):
    return {e.sigma2: e for e in enumerate_compatible(sigma1, mode)}


# --- natural-mode grid -----------------------------------------------------------


@pytest.mark.parametrize("sigma1", EVEN)
def test_natural_even_grid(sigma1):
    entries = entry_map(sigma1, ProductMode.NATURAL)
    for sigma2 in EVEN:
        e = entries[sigma2]
        if sigma1 in (0, 4):
            assert e.compatible and not e.without_chirality
            assert e.sigma_product == (sigma1 + sigma2) % 8
            assert e.signs is not None and e.signs.eps_dprime is not None
        else:
            assert not e.compatible and not e.undefined
            assert "eps1' = eps1''*eps2'" in e.violated_relation


@pytest.mark.parametrize("sigma1", EVEN)
def test_natural_odd_grid(sigma1):
    entries = entry_map(sigma1, ProductMode.NATURAL)
    expected = {0: (1, 5), 4: (1, 5), 2: (3, 7), 6: (3, 7)}[sigma1]
    compatible = tuple(s for s in ODD if entries[s].compatible)
    assert compatible == expected
    for sigma2 in compatible:
        e = entries[sigma2]
        # an odd second factor removes the product chirality
        assert e.without_chirality
        assert e.status == "compatible-without-chirality"
        assert e.signs.eps_dprime is None
        assert e.sigma_product == (sigma1 + sigma2) % 8


# --- modified-mode grid ------------------------------------------------------------


@pytest.mark.parametrize("sigma1", EVEN)
def test_modified_even_grid(sigma1):
    entries = entry_map(sigma1, ProductMode.MODIFIED)
    for sigma2 in EVEN:
        e = entries[sigma2]
        if sigma1 in (2, 6):
            assert e.compatible
            assert e.sigma_product == (sigma1 + sigma2) % 8
        else:
            assert not e.compatible and not e.undefined


@pytest.mark.parametrize("sigma1", EVEN)
def test_modified_odd_second_factor_is_undefined(sigma1):
    entries = entry_map(sigma1, ProductMode.MODIFIED)
    for sigma2 in ODD:
        e = entries[sigma2]
        assert e.undefined
        assert e.status == "undefined"
        assert not e.compatible
        assert "chirality" in e.violated_relation


@pytest.mark.parametrize("mode", [ProductMode.NATURAL, ProductMode.MODIFIED])
@pytest.mark.parametrize("sigma1", ODD)
def test_odd_first_factor_is_undefined(sigma1, mode):
    for e in enumerate_compatible(sigma1, mode):
        assert e.undefined and not e.compatible


def test_enumerate_is_deterministic():
    a = enumerate_compatible(4, ProductMode.NATURAL)
    b = enumerate_compatible(4, ProductMode.NATURAL)
    assert a == b
    assert [e.sigma2 for e in a] == list(range(8))


def test_enumerate_rejects_out_of_range_sigma():
    with pytest.raises(InvalidArgument):
        enumerate_compatible(8, ProductMode.NATURAL)
    with pytest.raises(InvalidArgument):
        enumerate_compatible(-1, ProductMode.NATURAL)


# --- published-case annotations ------------------------------------------------------


def test_divergence_annotations_natural_sigma6():
    notes = case_annotations(6, ProductMode.NATURAL)
    assert len(notes) == 2
    odd_note = next(n for n in notes if "{1, 5}" in n)
    assert "{3, 7}" in odd_note
    assert "divergence" in odd_note
    sign_note = next(n for n in notes if "eps = +eps2" in n)
    assert "-eps2" in sign_note


def test_divergence_annotation_modified_sigma2():
    notes = case_annotations(2, ProductMode.MODIFIED)
    assert len(notes) == 1
    assert "-eps2*eps2''" in notes[0] or "-eps2*eps2″" in notes[0]
    assert "divergence" in notes[0]


def test_no_annotations_elsewhere():
    assert case_annotations(0, ProductMode.NATURAL) == ()
    assert case_annotations(4, ProductMode.NATURAL) == ()
    assert case_annotations(6, ProductMode.MODIFIED) == ()
    assert case_annotations(2, ProductMode.NATURAL) == ()


# --- scenarios -------------------------------------------------------------------------


def test_connes_scenario():
    report = scenario_check("connes")
    assert report.mode is ProductMode.NATURAL
    assert report.target_sigma == 6
    assert report.target_signs == SignTriple(-1, 1, -1)
    assert report.expected == {4: (2,)}


def test_barrett_scenario():
    report = scenario_check("barrett")
    assert report.mode is ProductMode.MODIFIED
    assert report.target_sigma == 0
    assert report.target_signs == SignTriple(1, 1, 1)
    assert report.expected == {2: (6,), 6: (2,)}


def test_unknown_scenario_rejected():
    with pytest.raises(InvalidArgument):
        scenario_check("nonesuch")


def test_scenarios_match_the_published_answers():
    # the published answers are written out, independent of the calculus
    assert SCENARIOS["connes"].published == (ScenarioCase(4, (2,)),)
    assert SCENARIOS["barrett"].published == (ScenarioCase(2, (6,)), ScenarioCase(6, (2,)))
    for name in SCENARIOS:
        report = scenario_check(name)
        assert report.published == SCENARIOS[name].published
        assert report.matches_expected is True


def test_scenario_reports_a_wrong_expectation(monkeypatch):
    wrong = replace(SCENARIOS["barrett"],
                    published=(ScenarioCase(2, (6,)), ScenarioCase(6, (2, 4))))
    monkeypatch.setitem(signcalc_module.SCENARIOS, "barrett", wrong)
    report = scenario_check("barrett")
    assert report.expected == {2: (6,), 6: (2,)}  # what the calculus finds
    assert report.matches_expected is False


# --- epsilon table provenance ---------------------------------------------------------------


def test_epsilon_table_cells_hold_the_table_with_provenance():
    cells, consistent = epsilon_table_cells()
    assert consistent is True
    assert sorted(cells) == list(range(8))
    for sigma, row in cells.items():
        stored = EPSILON_TABLE[sigma]
        assert {k: c["value"] for k, c in row.items()} == {
            "eps": stored.eps, "eps_prime": stored.eps_prime, "eps_dprime": stored.eps_dprime}
        verified = {k for k, c in row.items() if c["provenance"] == "verified"}
        if sigma not in MATRIX_REPRESENTATIVES:
            assert verified == set()
        elif sigma == 6:  # the (0,2) representative has D = 0: eps' stays stored
            assert verified == {"eps", "eps_dprime"}
        else:
            assert verified == {"eps", "eps_prime", "eps_dprime"}


@pytest.mark.parametrize("sigma, wrong", [
    (2, SignTriple(-1, +1, -1)),  # eps
    (4, SignTriple(-1, -1, +1)),  # eps'
    (0, SignTriple(+1, +1, -1)),  # eps''
])
def test_epsilon_table_cells_flag_a_wrong_stored_sign(sigma, wrong):
    with mock.patch.dict(EPSILON_TABLE, {sigma: wrong}):
        cells, consistent = epsilon_table_cells()
    assert consistent is False
    assert {k: c["value"] for k, c in cells[sigma].items()} == {
        "eps": EPSILON_TABLE[sigma].eps, "eps_prime": EPSILON_TABLE[sigma].eps_prime,
        "eps_dprime": EPSILON_TABLE[sigma].eps_dprime}


def test_epsilon_table_cells_ignore_a_stored_only_cell():
    # eps' at sigma = 6 is not measured, so a change there goes unnoticed
    with mock.patch.dict(EPSILON_TABLE, {6: SignTriple(-1, -1, -1)}):
        cells, consistent = epsilon_table_cells()
    assert consistent is True
    assert cells[6]["eps_prime"] == {"value": -1, "provenance": "stored"}


# --- global scans -------------------------------------------------------------------------


def test_additivity_scan_covers_grid():
    entries = additivity_scan()  # raises AdditivityViolation on failure
    assert len(entries) == 128
    compatible = [e for e in entries if e.compatible]
    # natural: sigma1 in {0,4} x (4 even + 2 odd) = 12; modified: {2,6} x 4 even = 8
    assert len(compatible) == 20 + 4
    for e in compatible:
        assert e.sigma_product == (e.sigma1 + e.sigma2) % 8


def test_matrix_calculus_agreement_rows():
    rows = matrix_calculus_agreement()
    assert len(rows) == 32
    assert all(r.consistent for r in rows)
    statuses = {(r.mode, r.sigma1, r.sigma2): r.verification_status for r in rows}
    assert statuses[(ProductMode.NATURAL, 4, 2)] == "confirmed-compatible"
    assert statuses[(ProductMode.NATURAL, 2, 0)] == "confirmed-incompatible"
    # sigma2 = 6 representative has D = 0, so refutation cannot be concrete
    assert statuses[(ProductMode.NATURAL, 2, 6)] == "not-falsifiable"
    assert statuses[(ProductMode.MODIFIED, 2, 6)] == "confirmed-compatible"


def test_matrix_calculus_agreement_measures_each_representative_once(monkeypatch):
    calls = []
    original = signcalc_module._validate

    def counting(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(signcalc_module, "_validate", counting)
    rows = matrix_calculus_agreement()
    assert len(calls) == 4
    # the unmeasured route: verify_product measures both factors per cell
    reps = {sigma: canonical_triple(p, q, "gamma1" if p >= 1 else "zero")
            for sigma, (p, q) in MATRIX_REPRESENTATIVES.items()}
    for r in rows:
        v = verify_product(reps[r.sigma1], reps[r.sigma2], r.mode)
        assert (r.verification_status, r.matrix_ko) == (v.status, v.matrix_ko)


def test_representatives_have_small_dimension():
    assert set(MATRIX_REPRESENTATIVES) == {0, 2, 4, 6}
    for sigma, (p, q) in MATRIX_REPRESENTATIVES.items():
        assert (p - q) % 8 == sigma
        assert 2 ** ((p + q) // 2) <= 4


def test_every_canonical_triple_up_to_eight_generators_agrees_with_the_calculus():
    # 44 factors (p+q in 2..8, both Dirac modes), 44 x 44 cells per mode
    assert len(canonical_factors(8)) == 44
    statuses, disagreeing = sweep(8)
    assert disagreeing == []
    assert statuses == {"confirmed-compatible": 1936, "confirmed-incompatible": 400,
                        "not-falsifiable": 1536}

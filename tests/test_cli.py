"""Command-line behaviour: exit codes, output channels, JSON mode."""

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import kocalc
import kocalc.cli as cli_module
import kocalc.products as products_module
import kocalc.signcalc as signcalc_module
import kocalc.triples as triples_module
from kocalc.cli import run_cli
from kocalc.signcalc import ScenarioCase


def _env_with_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# --- classify ---------------------------------------------------------------


def test_classify_reports_algebra(capsys):
    code, out, _ = run(capsys, "classify", "--p", "1", "--q", "3")
    assert code == 0
    assert "M₂(H)" in out
    assert "σ=6" in out
    assert "Θ²=-1" in out


def test_classify_json(capsys):
    code, doc, _ = run_json(capsys, "classify", "--p", "0", "--q", "2")
    assert code == 0
    assert doc["algebra"] == "H"
    assert doc["sigma"] == 6
    assert "SU(2)" in doc["unitary_group"]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "classify", "--p", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_classify_at_the_generator_bound(capsys):
    code, doc, _ = run_json(capsys, "classify", "--p", "1024", "--q", "0")
    assert code == 0
    assert doc["real_dimension"] == 2 ** 1024


@pytest.mark.parametrize("p", ["1025", "2000000"])
def test_classify_beyond_the_generator_bound_exits_2_at_once(capsys, p):
    for mode in ((), ("--json",)):
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--p", p, "--q", "0", *mode)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err == f"error: p + q must be at most 1024 to classify Cl(p,q), got {p}\n"


# --- epsilon-table ------------------------------------------------------------


def test_epsilon_table_marks_provenance(capsys):
    code, out, _ = run(capsys, "epsilon-table")
    assert code == 0
    assert "+1*" in out and "-1*" in out  # verified cells
    assert "stored" in out


def test_epsilon_table_json(capsys):
    code, doc, _ = run_json(capsys, "epsilon-table")
    assert code == 0
    assert doc["consistent"] is True
    col0 = doc["columns"]["0"]
    assert col0["eps"] == {"value": 1, "provenance": "verified"}
    col1 = doc["columns"]["1"]
    assert col1["eps"]["provenance"] == "stored"
    assert doc["columns"]["7"]["eps_dprime"]["value"] is None


# --- make-triple / validate -----------------------------------------------------


def test_make_and_validate_round_trip(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, "make-triple", "--p", "2", "--q", "0",
                     "--dirac", "gamma1", "--out", str(out))
    assert code == 0
    assert out.exists()

    code, text, _ = run(capsys, "validate", str(out))
    assert code == 0
    assert "PASS" in text
    assert "KO dimension: 2" in text


def test_make_triple_rejects_odd_dimension(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, err = run(capsys, "make-triple", "--p", "2", "--q", "1",
                       "--out", str(out))
    assert code == 2
    assert "even" in err
    assert not out.exists()


def test_make_triple_rejects_too_many_generators(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, stdout, err = run(capsys, "make-triple", "--p", "40", "--q", "0",
                            "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and "at most 14" in err
    assert not out.exists()


def test_make_triple_at_dimension_64_by_python_dash_m(tmp_path):
    out = tmp_path / "t.json"
    done = subprocess.run(
        [sys.executable, "-m", "kocalc", "make-triple", "--p", "12", "--q", "0",
         "--out", str(out)],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["dim"] == 64


def test_make_triple_rejects_gamma1_without_positive_generator(tmp_path, capsys):
    code, _, err = run(capsys, "make-triple", "--p", "0", "--q", "2",
                       "--dirac", "gamma1", "--out", str(tmp_path / "t.json"))
    assert code == 2
    assert "hermitian" in err


def test_validate_corrupted_file_exits_1(tmp_path, capsys):
    out = tmp_path / "t.json"
    run(capsys, "make-triple", "--p", "2", "--q", "0", "--dirac", "gamma1",
        "--out", str(out))
    doc = json.loads(out.read_text())
    doc["dirac"]["entries"][1]["re"] = "5"  # break hermiticity
    out.write_text(json.dumps(doc))
    code, text, _ = run(capsys, "validate", str(out))
    assert code == 1
    assert "FAIL" in text and "dirac_hermitian" in text


def test_validate_unparseable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(capsys, "validate", str(bad))[0] == 2
    assert run(capsys, "validate", str(tmp_path / "missing.json"))[0] == 2


def test_validate_json_mode(tmp_path, capsys):
    out = tmp_path / "t.json"
    run(capsys, "make-triple", "--p", "1", "--q", "1", "--dirac", "gamma1",
        "--out", str(out))
    code, doc, _ = run_json(capsys, "validate", str(out))
    assert code == 0
    assert doc["passed"] is True
    assert doc["ko_dimension"] == 0
    assert {"name": "dirac_hermitian", "passed": True, "witness": None} in doc["checks"]


def test_validate_measures_the_signs_once(triple_files, capsys, monkeypatch):
    path = triple_files(4, 4, "gamma1")
    measured = []
    original = triples_module._measure_signs

    def counting(t, *args, **kwargs):
        measured.append(t)
        return original(t, *args, **kwargs)

    monkeypatch.setattr(triples_module, "_measure_signs", counting)
    code, doc, _ = run_json(capsys, "validate", path)
    assert code == 0 and doc["signs"] == {"eps": 1, "eps_prime": 1, "eps_dprime": 1}
    assert len(measured) == 1


# --- product ------------------------------------------------------------------------


@pytest.fixture
def triple_files(tmp_path, capsys):
    def make(p, q, dirac):
        path = tmp_path / f"t{p}{q}{dirac}.json"
        code = run_cli(["make-triple", "--p", str(p), "--q", str(q),
                        "--dirac", dirac, "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        return str(path)
    return make


def test_product_compatible_writes_output(triple_files, tmp_path, capsys):
    a = triple_files(4, 0, "gamma1")
    b = triple_files(2, 0, "gamma1")
    out = tmp_path / "prod.json"
    code, text, _ = run(capsys, "product", "--mode", "natural", a, b,
                        "--out", str(out))
    assert code == 0
    assert "confirmed-compatible" in text
    assert out.exists()
    code, text, _ = run(capsys, "validate", str(out))
    assert code == 0
    assert "KO dimension: 6" in text


def test_product_out_builds_the_product_once(triple_files, tmp_path, capsys, monkeypatch):
    a = triple_files(4, 0, "gamma1")
    b = triple_files(2, 0, "gamma1")
    built = []
    original = products_module.product_triple

    def counting(*args):
        built.append(args)
        return original(*args)

    # count a build through any binding the CLI might hold as well
    monkeypatch.setattr(products_module, "product_triple", counting)
    monkeypatch.setattr(cli_module, "product_triple", counting, raising=False)
    out = tmp_path / "prod.json"
    code, _, _ = run(capsys, "product", "--mode", "natural", a, b, "--out", str(out))
    assert code == 0 and out.exists()
    assert len(built) == 1


def test_product_incompatible_exits_1(triple_files, tmp_path, capsys):
    a = triple_files(2, 0, "gamma1")
    out = tmp_path / "prod.json"
    code, text, _ = run(capsys, "product", "--mode", "natural", a, a,
                        "--out", str(out))
    assert code == 1
    assert "confirmed-incompatible" in text
    assert not out.exists()


def test_product_json(triple_files, capsys):
    a = triple_files(3, 1, "gamma1")
    b = triple_files(0, 2, "zero")
    code, doc, _ = run_json(capsys, "product", "--mode", "modified", a, b)
    assert code == 0
    assert doc["status"] == "confirmed-compatible"
    assert doc["matrix_ko"] == 0
    assert doc["matrix_signs"] == {"eps": 1, "eps_prime": 1, "eps_dprime": 1}


# --- enumerate ------------------------------------------------------------------------


def test_enumerate_prints_divergence_annotation(capsys):
    code, out, _ = run(capsys, "enumerate", "--sigma1", "6", "--mode", "natural")
    assert code == 0
    assert "σ₂ = 3: compatible" in out
    assert "σ₂ = 7: compatible" in out
    assert "divergence" in out
    assert "{1, 5}" in out and "{3, 7}" in out


def test_enumerate_json(capsys):
    code, doc, _ = run_json(capsys, "enumerate", "--sigma1", "4", "--mode", "natural")
    assert code == 0
    assert doc["compatible_sigma2"] == [0, 1, 2, 4, 5, 6]
    assert doc["annotations"] == []


def test_enumerate_rejects_bad_sigma(capsys):
    assert run(capsys, "enumerate", "--sigma1", "9", "--mode", "natural")[0] == 2


# --- scenario ----------------------------------------------------------------------------


def test_scenario_connes(capsys):
    code, out, _ = run(capsys, "scenario", "--name", "connes")
    assert code == 0
    assert "σ₁ = 4" in out and "{2}" in out
    assert "as expected" in out


def test_scenario_barrett_json(capsys):
    code, doc, _ = run_json(capsys, "scenario", "--name", "barrett")
    assert code == 0
    assert doc["matches_expected"] is True
    assert {"sigma1": 2, "solutions": [6]} in doc["cases"]
    assert {"sigma1": 6, "solutions": [2]} in doc["cases"]


def test_scenario_with_a_wrong_expectation_exits_1(capsys, monkeypatch):
    wrong = replace(signcalc_module.SCENARIOS["connes"], published=(ScenarioCase(4, (6,)),))
    monkeypatch.setitem(signcalc_module.SCENARIOS, "connes", wrong)
    code, out, _ = run(capsys, "scenario", "--name", "connes")
    assert code == 1
    assert "even σ₂ solutions {2} (expected {6})" in out
    assert "MISMATCH" in out
    code, doc, _ = run_json(capsys, "scenario", "--name", "connes")
    assert code == 1
    assert doc["matches_expected"] is False
    assert doc["expected"] == {"4": [6]}


# --- twist / restrict ----------------------------------------------------------------------


def test_twist_round_trip(triple_files, tmp_path, capsys):
    a = triple_files(2, 0, "gamma1")
    out = tmp_path / "twisted.json"
    code, text, _ = run(capsys, "twist", a, "--out", str(out))
    assert code == 0
    assert "(+1, +1, -1) -> (-1, -1, -1)" in text
    code, out2, _ = run(capsys, "validate", str(out))
    assert code == 0
    assert "no table row" in out2


def test_restrict_reports_dimensions(triple_files, capsys):
    a = triple_files(1, 1, "gamma1")
    code, out, _ = run(capsys, "restrict", a)
    assert code == 0
    assert ": 2" in out and ": 1" in out


def test_restrict_undefined_exits_1(triple_files, capsys):
    a = triple_files(2, 0, "gamma1")
    code, _, err = run(capsys, "restrict", a)
    assert code == 1
    assert err


def test_restrict_json(triple_files, capsys):
    a = triple_files(1, 1, "gamma1")
    code, doc, _ = run_json(capsys, "restrict", a)
    assert code == 0
    assert doc == {"file": a, "real_fixed_dim": 2, "majorana_weyl_dim": 1,
                   "complex_dim": 2}


# --- scan -------------------------------------------------------------------------------------


def test_scan_summarizes_grids(capsys):
    code, out, _ = run(capsys, "scan")
    assert code == 0
    assert "128 cells" in out
    assert "24 compatible" in out
    assert "agree" in out


def test_scan_json(capsys):
    code, doc, _ = run_json(capsys, "scan")
    assert code == 0
    assert doc["calculus_cells"] == 128
    assert doc["compatible_cells"] == 24
    assert doc["all_consistent"] is True
    assert len(doc["matrix_cells"]) == 32


# --- python -m kocalc ------------------------------------------------------------------


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "kocalc", "classify", "--p", "1", "--q", "3", "--json"],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["sigma"] == 6


# --- the shared parser --------------------------------------------------------------


def test_run_cli_builds_no_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
    code, doc, _ = run_json(capsys, "classify", "--p", "1", "--q", "3")
    assert code == 0 and doc["sigma"] == 6
    assert run(capsys, "nonsense")[0] == 2


def test_parser_defaults_do_not_carry_over(tmp_path, capsys):
    out = str(tmp_path / "t.json")
    code, doc, _ = run_json(capsys, "make-triple", "--p", "2", "--q", "0",
                            "--dirac", "gamma1", "--out", out)
    assert code == 0 and doc["dirac"] == "gamma1"
    code, doc, _ = run_json(capsys, "make-triple", "--p", "2", "--q", "0", "--out", out)
    assert code == 0 and doc["dirac"] == "zero"
    assert json.loads(Path(out).read_text())["metadata"]["dirac"] == "zero"


def test_product_out_does_not_carry_over(triple_files, tmp_path, capsys):
    a = triple_files(4, 0, "gamma1")
    b = triple_files(2, 0, "gamma1")
    out = tmp_path / "prod.json"
    code, doc, _ = run_json(capsys, "product", "--mode", "natural", a, b, "--out", str(out))
    assert code == 0 and doc["out"] == str(out)
    out.unlink()
    code, text, _ = run(capsys, "product", "--mode", "natural", a, b, "--json")
    assert code == 0 and '"out": null' in text
    assert not out.exists()


def test_usage_error_then_valid_command(capsys):
    code, out, err = run(capsys, "classify", "--p", "1", "--json")
    assert code == 2 and out == "" and "--q" in err
    code, out, err = run(capsys, "classify", "--p", "0", "--q", "2")
    assert code == 0 and err == ""
    assert out.startswith("Cl(0,2) ≅ H, σ=6")
    code, out, err = run(capsys, "enumerate", "--sigma1", "9", "--mode", "natural")
    assert code == 2 and out == ""
    code, doc, err = run_json(capsys, "enumerate", "--sigma1", "4", "--mode", "natural")
    assert code == 0 and err == "" and doc["sigma1"] == 4


def test_importing_the_library_leaves_the_cli_out():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, kocalc; print('kocalc.cli' in sys.modules)"],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_commands_call_the_library_through_module_names(capsys, monkeypatch):
    # a tracer rebinds these names; a callable captured at import would escape it
    calls = []
    original = cli_module.enumerate_compatible

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli_module, "enumerate_compatible", counting)
    assert run(capsys, "enumerate", "--sigma1", "4", "--mode", "natural")[0] == 0
    assert len(calls) == 1


def test_cli_catches_named_errors_only():
    # a bare ValueError or other built-in from the library is a bug, not a
    # usage error; only file-access errors come from outside the package
    from kocalc.errors import KocalcError

    caught = cli_module._USAGE_ERRORS + cli_module._MATH_ERRORS
    outside = {c for c in caught if not issubclass(c, KocalcError)}
    assert outside == {FileNotFoundError, IsADirectoryError, PermissionError}
    assert ValueError not in caught


@pytest.mark.parametrize("call, message", [
    (lambda: kocalc.build_gammas(-1, 3), "p and q must be nonnegative"),
    (lambda: kocalc.classify_algebra(0, -2), "p and q must be nonnegative"),
    (lambda: kocalc.canonical_triple(1, 1, "one"), "unknown dirac_mode 'one'"),
    (lambda: kocalc.ko_from_signs(kocalc.SignTriple(1, 1, 1), "both"),
     "parity must be 'even' or 'odd', got 'both'"),
    (lambda: kocalc.predicted_signs(kocalc.SignTriple(1, 1, 1), kocalc.SignTriple(1, 1, 1),
                                    "natural"), "unknown mode 'natural'"),
    (lambda: kocalc.product_triple(kocalc.canonical_triple(1, 1), kocalc.canonical_triple(1, 1),
                                   "natural"), "unknown mode 'natural'"),
    (lambda: kocalc.CompatibilityEntry(0, 0, kocalc.ProductMode.NATURAL, compatible=True),
     "compatible entries carry a product class and no violation"),
    (lambda: kocalc.CompatibilityEntry(0, 0, kocalc.ProductMode.NATURAL, compatible=False),
     "incompatible entries must name the violated relation"),
])
def test_bad_arguments_raise_a_named_error_with_the_old_text(call, message):
    with pytest.raises(kocalc.InvalidArgument) as info:
        call()
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)  # callers that catch ValueError keep working

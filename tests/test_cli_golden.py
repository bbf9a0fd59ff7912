"""Exact command-line output, pinned per subcommand in text and JSON mode.

Each case in ``CASES`` has a golden file ``tests/golden/cli/<name>.json``
holding the argument vector and, for text mode and for ``--json`` mode,
the exit code, stdout, stderr and the sha256 of every document the
command wrote.  The temporary directory is written as ``{tmp}``.  After
an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

from kocalc import (
    EPSILON_TABLE,
    SignTriple,
    canonical_triple,
    serialize_triple,
    twist_real_structure,
)
import kocalc.cli as cli_module
from kocalc.cli import run_cli
from kocalc.signcalc import matrix_calculus_agreement

GOLDEN = Path(__file__).parent / "golden" / "cli"
TMP = "{tmp}"

# (case name, argv); inputs are documents in {tmp}, outputs go to {tmp}/out
CASES = (
    ("classify-1-3", ("classify", "--p", "1", "--q", "3")),
    ("classify-1-1", ("classify", "--p", "1", "--q", "1")),
    ("classify-0-2", ("classify", "--p", "0", "--q", "2")),
    ("classify-negative", ("classify", "--p", "-1", "--q", "0")),
    ("classify-missing-q", ("classify", "--p", "1")),
    ("epsilon-table", ("epsilon-table",)),
    ("make-triple-2-0-gamma1", ("make-triple", "--p", "2", "--q", "0", "--dirac", "gamma1",
                                "--out", "{tmp}/out/made.json")),
    ("make-triple-1-1-default", ("make-triple", "--p", "1", "--q", "1",
                                 "--out", "{tmp}/out/made.json")),
    ("make-triple-odd", ("make-triple", "--p", "2", "--q", "1",
                         "--out", "{tmp}/out/made.json")),
    ("make-triple-no-hermitian", ("make-triple", "--p", "0", "--q", "2", "--dirac", "gamma1",
                                  "--out", "{tmp}/out/made.json")),
    ("make-triple-too-many", ("make-triple", "--p", "40", "--q", "0",
                              "--out", "{tmp}/out/made.json")),
    ("validate-1-1", ("validate", "{tmp}/c11.json")),
    ("validate-2-0", ("validate", "{tmp}/c20.json")),
    ("validate-twisted", ("validate", "{tmp}/twisted20.json")),
    ("validate-not-hermitian", ("validate", "{tmp}/not_hermitian.json")),
    ("validate-malformed-rational", ("validate", "{tmp}/malformed.json")),
    ("validate-unparseable", ("validate", "{tmp}/unparseable.json")),
    ("validate-missing", ("validate", "{tmp}/missing.json")),
    ("product-natural-out", ("product", "--mode", "natural", "{tmp}/c40.json",
                             "{tmp}/c20.json", "--out", "{tmp}/out/prod.json")),
    ("product-natural-not-written", ("product", "--mode", "natural", "{tmp}/c20.json",
                                     "{tmp}/c20.json", "--out", "{tmp}/out/prod.json")),
    ("product-modified", ("product", "--mode", "modified", "{tmp}/c31.json",
                          "{tmp}/c02.json")),
    ("product-bad-mode", ("product", "--mode", "graded", "{tmp}/c20.json", "{tmp}/c20.json")),
    ("enumerate-6-natural", ("enumerate", "--sigma1", "6", "--mode", "natural")),
    ("enumerate-2-modified", ("enumerate", "--sigma1", "2", "--mode", "modified")),
    ("enumerate-bad-sigma", ("enumerate", "--sigma1", "9", "--mode", "natural")),
    ("scenario-connes", ("scenario", "--name", "connes")),
    ("scenario-barrett", ("scenario", "--name", "barrett")),
    ("twist-2-0", ("twist", "{tmp}/c20.json", "--out", "{tmp}/out/twisted.json")),
    ("twist-doubled-chirality", ("twist", "{tmp}/doubled_omega.json",
                                 "--out", "{tmp}/out/twisted.json")),
    ("restrict-1-1", ("restrict", "{tmp}/c11.json")),
    ("restrict-sigma4", ("restrict", "{tmp}/c40.json")),
    ("restrict-doubled-chirality", ("restrict", "{tmp}/doubled_omega.json")),
    ("scan", ("scan",)),
    ("unknown-subcommand", ("nonsense",)),
    ("no-subcommand", ()),
)


def _disagreeing_replay():
    """The matrix replay with its first cell reported inconsistent."""
    rows = matrix_calculus_agreement()
    return (replace(rows[0], consistent=False),) + rows[1:]


#: Cases run with the library patched, so that the checks inside the
#: commands fail: a wrong stored eps at sigma = 2, and a matrix replay
#: that disagrees with the calculus.
PATCHED_CASES = (
    ("tampered-epsilon-table", ("epsilon-table",), "table"),
    ("tampered-scenario-barrett", ("scenario", "--name", "barrett"), "table"),
    ("tampered-scan", ("scan",), "table"),
    ("scan-disagreeing", ("scan",), "replay"),
)


def _patched(kind: str):
    if kind == "table":
        return mock.patch.dict(EPSILON_TABLE, {2: SignTriple(-1, +1, -1)})
    return mock.patch.object(cli_module, "matrix_calculus_agreement", _disagreeing_replay)


def write_inputs(tmp: Path) -> None:
    """The input documents every case reads."""
    docs = {
        "c11": canonical_triple(1, 1, "gamma1"),
        "c20": canonical_triple(2, 0, "gamma1"),
        "c40": canonical_triple(4, 0, "gamma1"),
        "c31": canonical_triple(3, 1, "gamma1"),
        "c02": canonical_triple(0, 2, "zero"),
        "twisted20": twist_real_structure(canonical_triple(2, 0, "gamma1")),
    }
    for name, t in docs.items():
        (tmp / f"{name}.json").write_bytes(serialize_triple(t, {"name": name}))
    doc = json.loads((tmp / "c20.json").read_text())
    doc["dirac"]["entries"][1]["re"] = "5"
    (tmp / "not_hermitian.json").write_text(json.dumps(doc))
    # Cl(1,1) with Omega replaced by 2 Omega: J keeps its signs, but Omega
    # is no involution and J o Omega is not antiunitary
    doc = json.loads((tmp / "c11.json").read_text())
    for cell in doc["chirality"]["entries"]:
        cell["im"] = str(2 * int(cell["im"]))
    (tmp / "doubled_omega.json").write_text(json.dumps(doc))
    text = (tmp / "c20.json").read_bytes()
    (tmp / "malformed.json").write_bytes(text.replace(b'"re": "0",', b'"re": "0.5",', 1))
    (tmp / "unparseable.json").write_text("{")


def run_case(tmp: Path, argv: tuple[str, ...]) -> dict:
    """Exit code, stdout, stderr and written documents, in both modes."""
    result = {"argv": list(argv)}
    out_dir = tmp / "out"
    args = [a.replace(TMP, str(tmp)) for a in argv]
    for mode, extra in (("text", []), ("json", ["--json"])):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(args + extra)
        result[mode] = {
            "exit": code,
            "stdout": stdout.getvalue().replace(str(tmp), TMP),
            "stderr": stderr.getvalue().replace(str(tmp), TMP),
            "written": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out_dir.iterdir())},
        }
    return result


def record_all(tmp: Path) -> dict[str, dict]:
    """Every case's outputs, with argparse's line width fixed at 80 columns."""
    write_inputs(tmp)
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        cases = {name: run_case(tmp, argv) for name, argv in CASES}
        for name, argv, kind in PATCHED_CASES:
            with _patched(kind):
                cases[name] = run_case(tmp, argv)
    return cases


def _golden_text(case: dict) -> str:
    return json.dumps(case, indent=2, ensure_ascii=False) + "\n"


#: The golden files were recorded on Python 3.11 and match 3.10 and 3.12
#: byte for byte.  Later versions wrap argparse's usage lines differently.
ARGPARSE_EXACT = sys.version_info[:2] <= (3, 12)


def _comparable(case: dict) -> dict:
    """The case, with argparse's usage text unwrapped where it may differ."""
    if ARGPARSE_EXACT:
        return case
    case = json.loads(json.dumps(case))
    for mode in ("text", "json"):
        usage, sep, error = case[mode]["stderr"].rpartition("\nkocalc")
        if sep and usage.startswith("usage: "):
            case[mode]["stderr"] = " ".join(usage.split()) + sep + error
    return case


def test_cli_output_matches_golden_files(tmp_path):
    recorded = record_all(tmp_path)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(recorded)
    for name, case in recorded.items():
        want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        assert _comparable(case) == _comparable(want), name


def test_golden_cases_cover_every_subcommand_and_exit_code():
    from kocalc.cli import PARSER

    sub = next(a for a in PARSER._actions if a.dest == "command")
    covered = {argv[0] for _name, argv in CASES if argv}
    assert set(sub.choices) <= covered
    codes = {json.loads(p.read_text(encoding="utf-8"))[mode]["exit"]
             for p in GOLDEN.glob("*.json") for mode in ("text", "json")}
    assert codes == {0, 1, 2}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = record_all(Path(tmp))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, case in cases.items():
        (GOLDEN / f"{name}.json").write_text(_golden_text(case), encoding="utf-8")
    print(f"wrote {len(cases)} golden files to {GOLDEN}", file=sys.stderr)

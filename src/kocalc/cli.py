"""Command-line front end.

Subcommands: classify, epsilon-table, make-triple, validate, product,
enumerate, scenario, twist, restrict, scan.  Each subcommand computes one
payload (a JSON-ready dict) and an exit code.  With --json the payload is
printed as JSON on stdout; otherwise the text output is rendered from the
same payload, so the two renderings cannot disagree.  Diagnostics always
go to stderr.  Exit codes: 0 success, 1 mathematical validation failure,
2 usage or input error.

The argument parser is static configuration: it is built once, when this
module is imported (``import kocalc`` does not import it), and every
parse returns a fresh namespace.  Library functions are looked up through
this module's names at call time, never captured in the parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .clifford import classify_algebra, signature, theta_square_sign
from .errors import IncompleteSigns, KocalcError, NoTableMatch
from .products import Incompatible, ProductMode, verify_product
from .signcalc import (
    MATRIX_REPRESENTATIVES,
    SCENARIOS,
    additivity_scan,
    case_annotations,
    enumerate_compatible,
    epsilon_table_cells,
    matrix_calculus_agreement,
    scenario_check,
)
from .triple_io import MAX_DOCUMENT_BYTES, check_document_dim, parse_document, serialize_triple
from .triples import (
    AxiomCheck,
    FiniteSpectralTriple,
    SignTriple,
    ValidationReport,
    canonical_triple,
    extract_signs,
    ko_from_signs,
    restrict_majorana_weyl,
    twist_real_structure,
    validate_triple,
)


def _signs_json(s: SignTriple | None) -> dict | None:
    if s is None:
        return None
    return {"eps": s.eps, "eps_prime": s.eps_prime, "eps_dprime": s.eps_dprime}


def _signs_text(d: dict) -> str:
    return str(SignTriple(**d))


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _load_triple(path: str) -> tuple[FiniteSpectralTriple, dict[str, str]]:
    with open(path, "rb") as f:
        # A regular file is read in one call sized by its length.  Anything
        # else, or a file that grew, is read on to one byte over the bound,
        # which is enough for parse_document to refuse it.
        size = os.fstat(f.fileno()).st_size
        data = f.read(min(size, MAX_DOCUMENT_BYTES) + 1)
        if len(data) > size:
            data += f.read(MAX_DOCUMENT_BYTES + 1 - len(data))
    return parse_document(data)


# Each subcommand has a ``_cmd_*(args) -> (payload, exit code)`` and a
# ``_text_*(payload, args)`` that prints the text rendering of the payload
# (and any diagnostic that only text mode prints).

# --- classify -----------------------------------------------------------------

def _cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    cls = classify_algebra(args.p, args.q)
    return {
        "p": args.p, "q": args.q, "sigma": signature(args.p, args.q),
        "base": cls.base, "matrix_size": cls.matrix_size,
        "algebra": cls.algebra_name(),
        "unitary_group": cls.unitary_group_label,
        "connected_note": cls.connected_note,
        "theta_squared": theta_square_sign(args.p, args.q),
        "real_dimension": 2 ** (args.p + args.q),
    }, 0


def _text_classify(d: dict, args: argparse.Namespace) -> None:
    print(f"Cl({d['p']},{d['q']}) ≅ {d['algebra']}, "
          f"σ={d['sigma']}, Θ²={d['theta_squared']:+d}")
    print(f"unitary group: {d['unitary_group']}")
    if d["connected_note"]:
        print(f"connected component: {d['connected_note']}")


# --- epsilon-table ------------------------------------------------------------

def _cmd_epsilon_table(args: argparse.Namespace) -> tuple[dict, int]:
    cells, consistent = epsilon_table_cells()
    return {
        "columns": {str(s): cells[s] for s in range(8)},
        "consistent": consistent,
        "representatives": {str(s): list(pq) for s, pq in MATRIX_REPRESENTATIVES.items()},
    }, 0 if consistent else 1


def _text_epsilon_table(d: dict, args: argparse.Namespace) -> None:
    def fmt(sigma: int, key: str) -> str:
        cell = d["columns"][str(sigma)][key]
        mark = "*" if cell["provenance"] == "verified" else " "
        value = "." if cell["value"] is None else f"{cell['value']:+d}"
        return f"{value}{mark}".rjust(5)

    print("σ     " + "".join(f"{s}".rjust(5) for s in range(8)))
    for label, key in (("ε    ", "eps"), ("ε′   ", "eps_prime"), ("ε″   ", "eps_dprime")):
        print(label + "".join(fmt(s, key) for s in range(8)))
    reps = ", ".join(f"σ={s}: ({p},{q})" for s, (p, q) in d["representatives"].items())
    print(f"* recomputed from canonical representations ({reps});")
    print("  unmarked cells are stored table values "
          "(the (0,2) representative has D = 0, so ε′ at σ=6 stays stored).")
    if not d["consistent"]:
        _err("MISMATCH between recomputed and stored values")


# --- make-triple ----------------------------------------------------------------

def _cmd_make_triple(args: argparse.Namespace) -> tuple[dict, int]:
    t = canonical_triple(args.p, args.q, args.dirac)
    signs = extract_signs(t)
    meta = {"generator": "canonical", "p": str(args.p), "q": str(args.q), "dirac": args.dirac}
    Path(args.out).write_bytes(serialize_triple(t, meta))
    return {
        "p": args.p, "q": args.q, "dirac": args.dirac,
        "dim": t.dim, "sigma": signature(args.p, args.q), "signs": _signs_json(signs),
        "out": args.out,
    }, 0


def _text_make_triple(d: dict, args: argparse.Namespace) -> None:
    print(f"wrote canonical Cl({d['p']},{d['q']}) triple (D = {d['dirac']}) to {d['out']}")
    print(f"dim = {d['dim']}, σ = {d['sigma']}, signs {_signs_text(d['signs'])}")


# --- validate --------------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> tuple[dict, int]:
    triple, meta = _load_triple(args.file)
    report = validate_triple(triple)
    signs = ko = ko_error = None
    if report.passed:
        signs = report.signs
        parity = "even" if triple.chirality is not None else "odd"
        try:
            ko = ko_from_signs(signs, parity)
        except (NoTableMatch, IncompleteSigns) as exc:
            ko_error = str(exc)
    return {
        "file": args.file,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in report.checks
        ],
        "signs": _signs_json(signs),
        "ko_dimension": ko,
        "ko_error": ko_error,
        "metadata": meta,
    }, 0 if report.passed else 1


def _text_validate(d: dict, args: argparse.Namespace) -> None:
    print(ValidationReport(tuple(AxiomCheck(**c) for c in d["checks"])))
    if d["signs"] is None:
        print("signs not extracted: validation failed")
        return
    print(f"signs {_signs_text(d['signs'])}")
    if d["ko_dimension"] is not None:
        print(f"KO dimension: {d['ko_dimension']}")
    else:
        print(f"KO dimension: no table row ({d['ko_error']})")


# --- product -----------------------------------------------------------------------

def _cmd_product(args: argparse.Namespace) -> tuple[dict, int]:
    mode = ProductMode(args.mode)
    t1, _m1 = _load_triple(args.first)
    t2, _m2 = _load_triple(args.second)
    if args.out:
        check_document_dim(t1.dim * t2.dim)
    v = verify_product(t1, t2, mode, keep_product=bool(args.out))

    wrote = None
    if v.matrix_signs is not None and args.out:
        meta = {"generator": "product", "mode": mode.value,
                "sigma1": str(v.sigma1), "sigma2": str(v.sigma2)}
        Path(args.out).write_bytes(serialize_triple(v.product, meta))
        wrote = args.out

    return {
        "mode": v.mode.value,
        "sigma1": v.sigma1,
        "sigma2": v.sigma2,
        "component_signs": [_signs_json(s) for s in v.component_signs],
        "prediction": (
            {"incompatible": True, "violated_relation": v.prediction.violated_relation}
            if isinstance(v.prediction, Incompatible)
            else {"incompatible": False, "signs": _signs_json(v.prediction),
                  "sigma": v.predicted_sigma}
        ),
        "matrix_signs": _signs_json(v.matrix_signs),
        "indefinite_witness": v.indefinite_witness,
        "matrix_ko": v.matrix_ko,
        "eps_prime_evidence": v.eps_prime_evidence,
        "status": v.status,
        "agreement": v.agreement,
        "product_dim": v.product_dim,
        "notes": list(v.notes),
        "out": wrote,
    }, 0 if (v.agreement and v.matrix_signs is not None) else 1


def _text_product(d: dict, args: argparse.Namespace) -> None:
    first, second = (_signs_text(s) for s in d["component_signs"])
    pred = d["prediction"]
    print(f"mode: {d['mode']}")
    print(f"σ₁ = {d['sigma1']}, σ₂ = {d['sigma2']}, component signs {first} and {second}")
    if pred["incompatible"]:
        print(f"calculus: incompatible — {pred['violated_relation']}")
    else:
        print(f"calculus: signs {_signs_text(pred['signs'])}, σ = {pred['sigma']}")
    if d["matrix_signs"] is None:
        print(f"matrix: no uniform sign for J against D — {d['indefinite_witness']}")
    else:
        ko = "(no table row)" if d["matrix_ko"] is None else d["matrix_ko"]
        print(f"matrix: signs {_signs_text(d['matrix_signs'])}, KO dimension {ko}, "
              f"dim {d['product_dim']}")
    print(f"eps' evidence: {d['eps_prime_evidence']}")
    for note in d["notes"]:
        print(f"note: {note}")
    print(f"status: {d['status']}")
    if d["out"]:
        print(f"wrote product triple to {d['out']}")
    elif args.out:
        _err("product not written: no valid real structure sign")


# --- enumerate -----------------------------------------------------------------------

def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict, int]:
    mode = ProductMode(args.mode)
    entries = enumerate_compatible(args.sigma1, mode)
    return {
        "sigma1": args.sigma1,
        "mode": mode.value,
        "entries": [
            {
                "sigma1": e.sigma1, "sigma2": e.sigma2, "mode": e.mode.value,
                "status": e.status, "compatible": e.compatible,
                "sigma_product": e.sigma_product,
                "signs": _signs_json(e.signs),
                "violated_relation": e.violated_relation,
            }
            for e in entries
        ],
        "annotations": list(case_annotations(args.sigma1, mode)),
        "compatible_sigma2": [e.sigma2 for e in entries if e.compatible],
    }, 0


def _text_enumerate(d: dict, args: argparse.Namespace) -> None:
    print(f"products with first factor σ₁ = {d['sigma1']}, {d['mode']} mode:")
    for e in d["entries"]:
        if e["compatible"]:
            extra = (" (no product chirality)"
                     if e["status"] == "compatible-without-chirality" else "")
            print(f"  σ₂ = {e['sigma2']}: compatible{extra}, "
                  f"σ = {e['sigma_product']}, signs {_signs_text(e['signs'])}")
        else:
            print(f"  σ₂ = {e['sigma2']}: {e['status']} — {e['violated_relation']}")
    for note in d["annotations"]:
        print(f"  {note}")


# --- scenario ------------------------------------------------------------------------

def _cmd_scenario(args: argparse.Namespace) -> tuple[dict, int]:
    report = scenario_check(args.name)
    return {
        "name": report.name,
        "mode": report.mode.value,
        "target_sigma": report.target_sigma,
        "target_signs": _signs_json(report.target_signs),
        "cases": [
            {"sigma1": c.sigma1, "solutions": list(c.solutions)}
            for c in report.cases
        ],
        "expected": {str(c.sigma1): list(c.solutions) for c in report.published},
        "matches_expected": report.matches_expected,
    }, 0 if report.matches_expected else 1


def _text_scenario(d: dict, args: argparse.Namespace) -> None:
    print(f"scenario {d['name']}: {d['mode']} mode, "
          f"target σ = {d['target_sigma']}, signs {_signs_text(d['target_signs'])}")
    for c in d["cases"]:
        sols = ", ".join(str(s) for s in c["solutions"]) or "none"
        want = ", ".join(str(s) for s in d["expected"][str(c["sigma1"])])
        print(f"  σ₁ = {c['sigma1']}: even σ₂ solutions {{{sols}}} "
              f"(expected {{{want}}})")
    print("result: " + ("as expected" if d["matches_expected"] else "MISMATCH"))


# --- twist ---------------------------------------------------------------------------

def _cmd_twist(args: argparse.Namespace) -> tuple[dict, int]:
    triple, meta = _load_triple(args.file)
    before = extract_signs(triple)
    twisted = twist_real_structure(triple)
    after = extract_signs(twisted)
    Path(args.out).write_bytes(serialize_triple(twisted, meta))
    return {
        "file": args.file, "out": args.out,
        "signs_before": _signs_json(before),
        "signs_after": _signs_json(after),
    }, 0


def _text_twist(d: dict, args: argparse.Namespace) -> None:
    print("twisted real structure: J -> J ∘ Ω")
    print(f"signs {_signs_text(d['signs_before'])} -> {_signs_text(d['signs_after'])}")
    print(f"wrote twisted triple to {d['out']}")


# --- restrict ------------------------------------------------------------------------

def _cmd_restrict(args: argparse.Namespace) -> tuple[dict, int]:
    triple, _meta = _load_triple(args.file)
    full, chiral = restrict_majorana_weyl(triple)
    return {
        "file": args.file,
        "real_fixed_dim": full,
        "majorana_weyl_dim": chiral,
        "complex_dim": triple.dim,
    }, 0


def _text_restrict(d: dict, args: argparse.Namespace) -> None:
    print(f"real dimension of {{J v = v}}: {d['real_fixed_dim']}")
    print(f"real dimension of {{J v = v, Ω v = v}}: {d['majorana_weyl_dim']}")


# --- scan -----------------------------------------------------------------------------

_SCAN_DISAGREES = "matrix/calculus disagreement"


def _cmd_scan(args: argparse.Namespace) -> tuple[dict, int]:
    entries = additivity_scan()  # raises AdditivityViolation on failure
    rows = matrix_calculus_agreement()
    all_consistent = all(r.consistent for r in rows)
    return {
        "calculus_cells": len(entries),
        "compatible_cells": sum(1 for e in entries if e.compatible),
        "additivity": "verified",
        "matrix_cells": [
            {
                "mode": r.mode.value, "sigma1": r.sigma1, "sigma2": r.sigma2,
                "entry_status": r.entry.status,
                "verification_status": r.verification_status,
                "matrix_ko": r.matrix_ko,
                "consistent": r.consistent,
            }
            for r in rows
        ],
        "all_consistent": all_consistent,
    }, 0 if all_consistent else 1


def _text_scan(d: dict, args: argparse.Namespace) -> None:
    print(f"calculus grid: {d['calculus_cells']} cells "
          f"(8 σ₁ x 8 σ₂ x 2 modes), {d['compatible_cells']} compatible, "
          "mod-8 additivity holds on every compatible cell")
    print("matrix replay on canonical representatives "
          + ", ".join(f"σ={s}:({p},{q})" for s, (p, q) in MATRIX_REPRESENTATIVES.items())
          + ":")
    for r in d["matrix_cells"]:
        ok = "ok" if r["consistent"] else "DISAGREES"
        print(f"  {r['mode']:8s} σ₁={r['sigma1']} σ₂={r['sigma2']}: "
              f"calculus {r['entry_status']:26s} matrix {r['verification_status']:22s} {ok}")
    print("result: " + ("calculus and matrices agree" if d["all_consistent"] else "MISMATCH"))
    if not d["all_consistent"]:
        _err(_SCAN_DISAGREES)


# --- parser ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kocalc",
        description="Exact computations with real Clifford algebras and finite real spectral triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, cmd, text, help, json_failure=None) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(cmd=cmd, text=text, json_failure=json_failure)
        return sp

    sp = command("classify", _cmd_classify, _text_classify,
                 "name the matrix algebra Cl(p,q) and its mod-8 class")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)

    command("epsilon-table", _cmd_epsilon_table, _text_epsilon_table,
            "render the mod-8 sign table, recomputing even columns",
            json_failure="epsilon-table mismatch")

    sp = command("make-triple", _cmd_make_triple, _text_make_triple,
                 "write a canonical triple document")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--dirac", choices=["zero", "gamma1"], default="zero")
    sp.add_argument("--out", required=True)

    sp = command("validate", _cmd_validate, _text_validate,
                 "check every axiom of a triple document")
    sp.add_argument("file")

    sp = command("product", _cmd_product, _text_product,
                 "build and verify a tensor product of two triples")
    sp.add_argument("--mode", choices=["natural", "modified"], required=True)
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--out")

    sp = command("enumerate", _cmd_enumerate, _text_enumerate,
                 "list compatible second factors for a first-factor class")
    sp.add_argument("--sigma1", type=int, required=True, choices=range(8))
    sp.add_argument("--mode", choices=["natural", "modified"], required=True)

    sp = command("scenario", _cmd_scenario, _text_scenario,
                 "replay a named product search on the calculus")
    sp.add_argument("--name", choices=list(SCENARIOS), required=True)

    sp = command("twist", _cmd_twist, _text_twist,
                 "replace J by J o Omega in a triple document")
    sp.add_argument("file")
    sp.add_argument("--out", required=True)

    sp = command("restrict", _cmd_restrict, _text_restrict,
                 "Majorana-Weyl fixed-space dimensions of a triple document")
    sp.add_argument("file")

    command("scan", _cmd_scan, _text_scan,
            "full additivity and calculus/matrix agreement grid",
            json_failure=_SCAN_DISAGREES)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


#: Built once at import; parse_args returns a fresh namespace every call.
PARSER = _build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        payload, code = args.cmd(args)
    except KocalcError as exc:
        _err(f"error: {exc}")
        return exc.exit_code
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        _err(f"error: {exc}")
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
        if code and args.json_failure:
            _err(args.json_failure)
    else:
        args.text(payload, args)
    return code


def main() -> None:
    sys.exit(run_cli())

"""Command-line front end.

Subcommands: classify, epsilon-table, make-triple, validate, product,
enumerate, scenario, twist, restrict, scan.  Every subcommand accepts
--json for machine-readable output on stdout; diagnostics always go to
stderr.  Exit codes: 0 success, 1 mathematical validation failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .clifford import classify_algebra, signature, theta_square_sign
from .errors import (
    AdditivityViolation,
    IncompleteSigns,
    IndefiniteSign,
    InvalidComponent,
    InvalidTriple,
    NoChirality,
    NoHermitianGenerator,
    NoTableMatch,
    NotInvolutive,
    NotSignInvolutive,
    OddDimensionUnsupported,
    ParseError,
    RealStructureNotFound,
    RestrictionUndefined,
    TooManyGenerators,
    UnsupportedVersion,
)
from .products import Incompatible, ProductMode, verify_product
from .signcalc import (
    MATRIX_REPRESENTATIVES,
    additivity_scan,
    case_annotations,
    enumerate_compatible,
    matrix_calculus_agreement,
    scenario_check,
)
from .triple_io import parse_document, serialize_triple
from .triples import (
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

_USAGE_ERRORS = (
    ParseError, UnsupportedVersion, OddDimensionUnsupported, TooManyGenerators,
    NoHermitianGenerator, FileNotFoundError, IsADirectoryError,
    PermissionError, ValueError,
)
_MATH_ERRORS = (
    InvalidTriple, NoChirality, RestrictionUndefined, InvalidComponent,
    NotSignInvolutive, IndefiniteSign, IncompleteSigns, NoTableMatch,
    AdditivityViolation, NotInvolutive, RealStructureNotFound,
)


def _sgn(v: int | None) -> str:
    if v is None:
        return "."
    return f"{v:+d}"


def _signs_json(s: SignTriple | None) -> dict | None:
    if s is None:
        return None
    return {"eps": s.eps, "eps_prime": s.eps_prime, "eps_dprime": s.eps_dprime}


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _read_file(path: str) -> bytes:
    return Path(path).read_bytes()


def _load_triple(path: str) -> tuple[FiniteSpectralTriple, dict[str, str]]:
    return parse_document(_read_file(path))


# --- classify -----------------------------------------------------------------

def _cmd_classify(args: argparse.Namespace) -> int:
    cls = classify_algebra(args.p, args.q)
    sigma = signature(args.p, args.q)
    theta2 = theta_square_sign(args.p, args.q)
    if args.json:
        _emit_json({
            "p": args.p, "q": args.q, "sigma": sigma,
            "base": cls.base, "matrix_size": cls.matrix_size,
            "algebra": cls.algebra_name(),
            "unitary_group": cls.unitary_group_label,
            "connected_note": cls.connected_note,
            "theta_squared": theta2,
            "real_dimension": 2 ** (args.p + args.q),
        })
        return 0
    line = (f"Cl({args.p},{args.q}) ≅ {cls.algebra_name()}, "
            f"σ={sigma}, Θ²={theta2:+d}")
    print(line)
    print(f"unitary group: {cls.unitary_group_label}")
    if cls.connected_note:
        print(f"connected component: {cls.connected_note}")
    return 0


# --- epsilon-table ------------------------------------------------------------

def _epsilon_table_cells() -> tuple[dict[int, dict[str, dict[str, Any]]], bool]:
    """Per-sigma cells with value and provenance; bool = recomputation agrees."""
    cells: dict[int, dict[str, dict[str, Any]]] = {}
    consistent = True
    for sigma in range(8):
        stored = EPSILON_TABLE[sigma]
        row = {
            "eps": {"value": stored.eps, "provenance": "stored"},
            "eps_prime": {"value": stored.eps_prime, "provenance": "stored"},
            "eps_dprime": {"value": stored.eps_dprime, "provenance": "stored"},
        }
        if sigma in MATRIX_REPRESENTATIVES:
            p, q = MATRIX_REPRESENTATIVES[sigma]
            t = canonical_triple(p, q, "gamma1" if p >= 1 else "zero")
            measured = extract_signs(t)
            row["eps"] = {"value": measured.eps, "provenance": "verified"}
            row["eps_dprime"] = {"value": measured.eps_dprime, "provenance": "verified"}
            if measured.eps_prime is not None:
                row["eps_prime"] = {"value": measured.eps_prime, "provenance": "verified"}
            if (measured.eps != stored.eps
                    or measured.eps_dprime != stored.eps_dprime
                    or (measured.eps_prime is not None
                        and measured.eps_prime != stored.eps_prime)):
                consistent = False
        cells[sigma] = row
    return cells, consistent


def _cmd_epsilon_table(args: argparse.Namespace) -> int:
    cells, consistent = _epsilon_table_cells()
    if args.json:
        _emit_json({
            "columns": {str(s): cells[s] for s in range(8)},
            "consistent": consistent,
            "representatives": {str(s): list(pq) for s, pq in MATRIX_REPRESENTATIVES.items()},
        })
    else:
        def fmt(sigma: int, key: str) -> str:
            cell = cells[sigma][key]
            mark = "*" if cell["provenance"] == "verified" else " "
            return f"{_sgn(cell['value'])}{mark}".rjust(5)

        header = "σ     " + "".join(f"{s}".rjust(5) for s in range(8))
        print(header)
        print("ε    " + "".join(fmt(s, "eps") for s in range(8)))
        print("ε′   " + "".join(fmt(s, "eps_prime") for s in range(8)))
        print("ε″   " + "".join(fmt(s, "eps_dprime") for s in range(8)))
        reps = ", ".join(f"σ={s}: ({p},{q})" for s, (p, q) in MATRIX_REPRESENTATIVES.items())
        print(f"* recomputed from canonical representations ({reps});")
        print("  unmarked cells are stored table values "
              "(the (0,2) representative has D = 0, so ε′ at σ=6 stays stored).")
        if not consistent:
            print("MISMATCH between recomputed and stored values", file=sys.stderr)
    if not consistent:
        if args.json:
            print("epsilon-table mismatch", file=sys.stderr)
        return 1
    return 0


# --- make-triple ----------------------------------------------------------------

def _cmd_make_triple(args: argparse.Namespace) -> int:
    t = canonical_triple(args.p, args.q, args.dirac)
    signs = extract_signs(t)
    sigma = signature(args.p, args.q)
    meta = {
        "generator": "canonical",
        "p": str(args.p), "q": str(args.q), "dirac": args.dirac,
    }
    Path(args.out).write_bytes(serialize_triple(t, meta))
    if args.json:
        _emit_json({
            "p": args.p, "q": args.q, "dirac": args.dirac,
            "dim": t.dim, "sigma": sigma, "signs": _signs_json(signs),
            "out": args.out,
        })
    else:
        print(f"wrote canonical Cl({args.p},{args.q}) triple (D = {args.dirac}) to {args.out}")
        print(f"dim = {t.dim}, σ = {sigma}, signs {signs}")
    return 0


# --- validate --------------------------------------------------------------------

def _cmd_validate(args: argparse.Namespace) -> int:
    triple, meta = _load_triple(args.file)
    report = validate_triple(triple)

    signs: SignTriple | None = None
    signs_error: str | None = None
    ko: int | None = None
    ko_error: str | None = None
    if report.passed:
        signs = extract_signs(triple)
        parity = "even" if triple.chirality is not None else "odd"
        try:
            ko = ko_from_signs(signs, parity)
        except (NoTableMatch, IncompleteSigns) as exc:
            ko_error = str(exc)
    else:
        signs_error = "signs not extracted: validation failed"

    if args.json:
        _emit_json({
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
        })
    else:
        print(report)
        if signs is not None:
            print(f"signs {signs}")
            if ko is not None:
                print(f"KO dimension: {ko}")
            else:
                print(f"KO dimension: no table row ({ko_error})")
        elif signs_error:
            print(signs_error)
    return 0 if report.passed else 1


# --- product -----------------------------------------------------------------------

def _render_verification(v) -> None:
    print(f"mode: {v.mode.value}")
    print(f"σ₁ = {v.sigma1}, σ₂ = {v.sigma2}, "
          f"component signs {v.component_signs[0]} and {v.component_signs[1]}")
    if isinstance(v.prediction, Incompatible):
        print(f"calculus: incompatible — {v.prediction.violated_relation}")
    else:
        print(f"calculus: signs {v.prediction}, σ = {v.predicted_sigma}")
    if v.matrix_signs is None:
        print(f"matrix: no uniform sign for J against D — {v.indefinite_witness}")
    else:
        ko = "(no table row)" if v.matrix_ko is None else str(v.matrix_ko)
        print(f"matrix: signs {v.matrix_signs}, KO dimension {ko}, dim {v.product_dim}")
    print(f"eps' evidence: {v.eps_prime_evidence}")
    for note in v.notes:
        print(f"note: {note}")
    print(f"status: {v.status}")


def _verification_json(v) -> dict:
    return {
        "mode": v.mode.value,
        "sigma1": v.sigma1,
        "sigma2": v.sigma2,
        "component_signs": [_signs_json(v.component_signs[0]),
                            _signs_json(v.component_signs[1])],
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
    }


def _cmd_product(args: argparse.Namespace) -> int:
    mode = ProductMode(args.mode)
    t1, _m1 = _load_triple(args.first)
    t2, _m2 = _load_triple(args.second)
    v = verify_product(t1, t2, mode)

    wrote = None
    if v.matrix_signs is not None and args.out:
        meta = {"generator": "product", "mode": mode.value,
                "sigma1": str(v.sigma1), "sigma2": str(v.sigma2)}
        Path(args.out).write_bytes(serialize_triple(v.product, meta))
        wrote = args.out

    if args.json:
        payload = _verification_json(v)
        payload["out"] = wrote
        _emit_json(payload)
    else:
        _render_verification(v)
        if wrote:
            print(f"wrote product triple to {wrote}")
        elif args.out:
            print("product not written: no valid real structure sign", file=sys.stderr)
    return 0 if (v.agreement and v.matrix_signs is not None) else 1


# --- enumerate -----------------------------------------------------------------------

def _entry_json(e) -> dict:
    return {
        "sigma1": e.sigma1, "sigma2": e.sigma2, "mode": e.mode.value,
        "status": e.status, "compatible": e.compatible,
        "sigma_product": e.sigma_product,
        "signs": _signs_json(e.signs),
        "violated_relation": e.violated_relation,
    }


def _cmd_enumerate(args: argparse.Namespace) -> int:
    mode = ProductMode(args.mode)
    entries = enumerate_compatible(args.sigma1, mode)
    annotations = case_annotations(args.sigma1, mode)
    if args.json:
        _emit_json({
            "sigma1": args.sigma1,
            "mode": mode.value,
            "entries": [_entry_json(e) for e in entries],
            "annotations": list(annotations),
            "compatible_sigma2": [e.sigma2 for e in entries if e.compatible],
        })
    else:
        print(f"products with first factor σ₁ = {args.sigma1}, {mode.value} mode:")
        for e in entries:
            if e.compatible:
                extra = " (no product chirality)" if e.without_chirality else ""
                print(f"  σ₂ = {e.sigma2}: compatible{extra}, "
                      f"σ = {e.sigma_product}, signs {e.signs}")
            else:
                word = "undefined" if e.undefined else "incompatible"
                print(f"  σ₂ = {e.sigma2}: {word} — {e.violated_relation}")
        for note in annotations:
            print(f"  {note}")
    return 0


# --- scenario ------------------------------------------------------------------------

_SCENARIO_EXPECTED: dict[str, dict[int, tuple[int, ...]]] = {
    "connes": {4: (2,)},
    "barrett": {2: (6,), 6: (2,)},
}


def _cmd_scenario(args: argparse.Namespace) -> int:
    report = scenario_check(args.name)
    expected = _SCENARIO_EXPECTED[args.name]
    found = report.expected
    matches = found == expected
    if args.json:
        _emit_json({
            "name": report.name,
            "mode": report.mode.value,
            "target_sigma": report.target_sigma,
            "target_signs": _signs_json(report.target_signs),
            "cases": [
                {"sigma1": c.sigma1, "solutions": list(c.solutions)}
                for c in report.cases
            ],
            "expected": {str(k): list(v) for k, v in expected.items()},
            "matches_expected": matches,
        })
    else:
        print(f"scenario {report.name}: {report.mode.value} mode, "
              f"target σ = {report.target_sigma}, signs {report.target_signs}")
        for c in report.cases:
            sols = ", ".join(str(s) for s in c.solutions) or "none"
            want = ", ".join(str(s) for s in expected[c.sigma1])
            print(f"  σ₁ = {c.sigma1}: even σ₂ solutions {{{sols}}} "
                  f"(expected {{{want}}})")
        print("result: " + ("as expected" if matches else "MISMATCH"))
    return 0 if matches else 1


# --- twist ---------------------------------------------------------------------------

def _cmd_twist(args: argparse.Namespace) -> int:
    triple, meta = _load_triple(args.file)
    before = extract_signs(triple)
    twisted = twist_real_structure(triple)
    after = extract_signs(twisted)
    Path(args.out).write_bytes(serialize_triple(twisted, meta))
    if args.json:
        _emit_json({
            "file": args.file, "out": args.out,
            "signs_before": _signs_json(before),
            "signs_after": _signs_json(after),
        })
    else:
        print(f"twisted real structure: J -> J ∘ Ω")
        print(f"signs {before} -> {after}")
        print(f"wrote twisted triple to {args.out}")
    return 0


# --- restrict ------------------------------------------------------------------------

def _cmd_restrict(args: argparse.Namespace) -> int:
    triple, _meta = _load_triple(args.file)
    full, chiral = restrict_majorana_weyl(triple)
    if args.json:
        _emit_json({
            "file": args.file,
            "real_fixed_dim": full,
            "majorana_weyl_dim": chiral,
            "complex_dim": triple.dim,
        })
    else:
        print(f"real dimension of {{J v = v}}: {full}")
        print(f"real dimension of {{J v = v, Ω v = v}}: {chiral}")
    return 0


# --- scan -----------------------------------------------------------------------------

def _cmd_scan(args: argparse.Namespace) -> int:
    entries = additivity_scan()  # raises AdditivityViolation on failure
    rows = matrix_calculus_agreement()
    all_consistent = all(r.consistent for r in rows)
    if args.json:
        _emit_json({
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
        })
    else:
        compat = sum(1 for e in entries if e.compatible)
        print(f"calculus grid: {len(entries)} cells "
              f"(8 σ₁ x 8 σ₂ x 2 modes), {compat} compatible, "
              "mod-8 additivity holds on every compatible cell")
        print("matrix replay on canonical representatives "
              + ", ".join(f"σ={s}:({p},{q})" for s, (p, q) in MATRIX_REPRESENTATIVES.items())
              + ":")
        for r in rows:
            ok = "ok" if r.consistent else "DISAGREES"
            print(f"  {r.mode.value:8s} σ₁={r.sigma1} σ₂={r.sigma2}: "
                  f"calculus {r.entry.status:26s} matrix {r.verification_status:22s} {ok}")
        print("result: " + ("calculus and matrices agree" if all_consistent else "MISMATCH"))
    if not all_consistent:
        print("matrix/calculus disagreement", file=sys.stderr)
        return 1
    return 0


# --- parser ----------------------------------------------------------------------------

def _add_json_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kocalc",
        description="Exact computations with real Clifford algebras and finite real spectral triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="name the matrix algebra Cl(p,q) and its mod-8 class")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("epsilon-table", help="render the mod-8 sign table, recomputing even columns")
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_epsilon_table)

    sp = sub.add_parser("make-triple", help="write a canonical triple document")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--dirac", choices=["zero", "gamma1"], default="zero")
    sp.add_argument("--out", required=True)
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_make_triple)

    sp = sub.add_parser("validate", help="check every axiom of a triple document")
    sp.add_argument("file")
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("product", help="build and verify a tensor product of two triples")
    sp.add_argument("--mode", choices=["natural", "modified"], required=True)
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--out")
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("enumerate", help="list compatible second factors for a first-factor class")
    sp.add_argument("--sigma1", type=int, required=True, choices=range(8))
    sp.add_argument("--mode", choices=["natural", "modified"], required=True)
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("scenario", help="replay a named product search on the calculus")
    sp.add_argument("--name", choices=["connes", "barrett"], required=True)
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_scenario)

    sp = sub.add_parser("twist", help="replace J by J o Omega in a triple document")
    sp.add_argument("file")
    sp.add_argument("--out", required=True)
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_twist)

    sp = sub.add_parser("restrict", help="Majorana-Weyl fixed-space dimensions of a triple document")
    sp.add_argument("file")
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_restrict)

    sp = sub.add_parser("scan", help="full additivity and calculus/matrix agreement grid")
    _add_json_flag(sp)
    sp.set_defaults(func=_cmd_scan)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())

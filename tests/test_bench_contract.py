"""The benchmark's tracer (``kobench/tracing.py``) against the package.

The tracer wraps public kocalc functions by name.  Renaming or deleting
one of them breaks every traced benchmark run, so this test installs the
tracer, checks that each target was wrapped, uninstalls it, and checks
that every binding it touched is the original object again.  A second
test runs one traced pass of each benchmarked workload and pins every
count it reports.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "kobench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("kobench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(classes) -> dict:
    """Every module-level name of every kocalc module, and every attribute
    of the given classes."""
    snap = {(name, key): value
            for name, mod in sys.modules.items()
            if name == "kocalc" or name.startswith("kocalc.")
            for key, value in vars(mod).items()}
    snap.update({(cls, key): value for cls in classes for key, value in vars(cls).items()})
    return snap


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_wraps_every_target_and_restores_every_binding():
    tracing = _load_tracing()
    homes = {mod: importlib.import_module(f"kocalc.{mod}") for mod in tracing.MODULES}
    classes = {getattr(homes[mod], cls) for _n, mod, cls, _a, _e in tracing.TARGETS if cls}
    classes.add(homes["linalg"].GaussianRational)
    before = _bindings(classes)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, mod, cls, attr, _extra in tracing.TARGETS:
            owner = homes[mod] if cls is None else getattr(homes[mod], cls)
            key = (f"kocalc.{mod}" if cls is None else owner, attr)
            assert vars(owner)[attr] is not before[key], name
    finally:
        tracer.uninstall()
    assert _same(before, _bindings(classes))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"kobench_{name}", TRACING.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_pass_counts(workload: str, work: Path) -> dict:
    """The per-layer counts of one traced pass, taken as ``kobench/run.py``
    takes them: set-up untraced, then every item inside an operation span."""
    import kocalc

    tracing, workloads = _load("tracing"), _load("workloads")
    wl = workloads.WORKLOADS[workload](kocalc, work)
    assert wl.setup_errors == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for item in wl.ITEMS:
            wl.prepare()
            span = tracer.enter(tracing.OP)
            try:
                out = wl.run(item)
            finally:
                tracer.exit(span)
            assert wl.check(item, out) is None, item
    finally:
        tracer.uninstall()
    counts, _times = tracing.pass_metrics(*tracer.take())
    return counts


#: The counts of one traced pass.  They repeat exactly from pass to pass,
#: and a change to any of them changes the work a benchmark operation does.
PINNED_COUNTS = {
    "warm-products": {
        "linalg.antiunitary_check.calls": 14,
        "linalg.dagger.calls": 182,
        "linalg.kron.calls": 112,
        "linalg.matmul.calls": 570,
        "linalg.matmul.dense_macs": 5052624,
        "linalg.scalar.created": 0,
        "products.product_triple.calls": 28,
        "products.verify_product.calls": 28,
        "products.verify_product.matmul_calls": 570,
        "triples.extract_signs.calls": 28,
    },
    "cli-documents": {
        "cli.run_cli.calls": 15,
        "cli.run_cli.nonzero_exits": 2,
        "clifford.build_gammas.calls": 9,
        "clifford.chirality.calls": 9,
        "clifford.find_real_structure.calls": 9,
        "clifford.find_real_structure.matmul_calls": 65,
        "linalg.antiunitary_check.calls": 35,
        "linalg.dagger.calls": 68,
        "linalg.kron.calls": 140,
        "linalg.matmul.calls": 382,
        "linalg.matmul.dense_macs": 6235632,
        "linalg.scalar.created": 6,
        "products.product_triple.calls": 33,
        "products.verify_product.calls": 33,
        "products.verify_product.matmul_calls": 193,
        "signcalc.additivity_scan.calls": 1,
        "signcalc.enumerate_compatible.calls": 28,
        "signcalc.matrix_calculus_agreement.calls": 1,
        "triple_io.parse_document.bytes": 1478247,
        "triple_io.parse_document.calls": 9,
        "triple_io.parse_document.matmul_calls": 8,
        "triple_io.serialize_triple.bytes": 706966,
        "triple_io.serialize_triple.calls": 3,
        "triples.canonical_triple.calls": 9,
        "triples.extract_signs.calls": 40,
        "triples.restrict_majorana_weyl.calls": 3,
        "triples.twist_real_structure.calls": 1,
        "triples.validate_triple.calls": 2,
    },
}


def test_traced_pass_counts_are_pinned(tmp_path):
    for workload, counts in PINNED_COUNTS.items():
        assert _traced_pass_counts(workload, tmp_path / workload) == counts, workload

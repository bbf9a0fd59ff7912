"""The benchmark's tracer (``kobench/tracing.py``) against the package.

The tracer wraps public kocalc functions by name.  Renaming or deleting
one of them breaks every traced benchmark run, so this test installs the
tracer, checks that each target was wrapped, uninstalls it, and checks
that every binding it touched is the original object again.
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

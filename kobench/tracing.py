"""Span tracing of kocalc's public functions from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
kocalc module's binding of it (and the class attribute, for methods).  A
wrapper records a span ``[name, start, end, parent, extra]`` and keeps the
wrapped ``lru_cache`` reachable, so cache clearing and cache hits behave as
without tracing.  ``GaussianRational`` constructions are counted, not
spanned.  Only calls inside an operation (a harness ``OP`` span) are
recorded.  Spans stay in memory; ``pass_metrics`` turns one pass of spans
into per-layer counts and self times, where a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("linalg", "clifford", "triples", "products", "signcalc", "triple_io", "cli")


def _dense_macs(args, result):
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols


def _cells(args, result):
    return args[0].rows * args[0].cols


def _input_bytes(args, result):
    data = args[0]
    return len(data if isinstance(data, bytes) else data.encode("utf-8"))


# (span name, module, class or None, attribute, (extra metric, unit, measure) or None)
TARGETS = (
    ("linalg.matmul", "linalg", "ExactMatrix", "__matmul__", ("dense_macs", "count", _dense_macs)),
    ("linalg.kron", "linalg", "ExactMatrix", "kron", None),
    ("linalg.dagger", "linalg", "ExactMatrix", "dagger", None),
    ("linalg.rank", "linalg", None, "rank", ("cells", "count", _cells)),
    ("linalg.antiunitary_check", "linalg", "Antiunitary", "__post_init__", None),
    ("clifford.build_gammas", "clifford", None, "build_gammas", None),
    ("clifford.find_real_structure", "clifford", None, "find_real_structure", None),
    ("clifford.chirality", "clifford", None, "chirality", None),
    ("triples.canonical_triple", "triples", None, "canonical_triple", None),
    ("triples.validate_triple", "triples", None, "validate_triple", None),
    ("triples.extract_signs", "triples", None, "extract_signs", None),
    ("triples.restrict_majorana_weyl", "triples", None, "restrict_majorana_weyl", None),
    ("triples.twist_real_structure", "triples", None, "twist_real_structure", None),
    ("products.verify_product", "products", None, "verify_product", None),
    ("products.product_triple", "products", None, "product_triple", None),
    ("signcalc.additivity_scan", "signcalc", None, "additivity_scan", None),
    ("signcalc.matrix_calculus_agreement", "signcalc", None, "matrix_calculus_agreement", None),
    ("signcalc.enumerate_compatible", "signcalc", None, "enumerate_compatible", None),
    ("triple_io.serialize_triple", "triple_io", None, "serialize_triple",
     ("bytes", "bytes", lambda args, result: len(result))),
    ("triple_io.parse_document", "triple_io", None, "parse_document",
     ("bytes", "bytes", _input_bytes)),
    ("cli.run_cli", "cli", None, "run_cli",
     ("nonzero_exits", "count", lambda args, result: int(result != 0))),
)

#: spans whose matmul descendants are counted
MATMUL_OWNERS = (
    "clifford.find_real_structure", "products.verify_product", "triple_io.parse_document",
)

SCALARS = "linalg.scalar.created"
OP = "op"  # the harness's root span around one operation


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit.

    ``cli`` has a single traced function, so ``cli.run_cli.self_s`` is the
    module's self time and no ``cli.self_s`` is listed.
    """
    units: dict[str, str] = {}
    for name, _mod, _cls, _attr, extra in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if extra is not None:
            units[f"{name}.{extra[0]}"] = extra[1]
        if name in MATMUL_OWNERS:
            units[f"{name}.matmul_calls"] = "count"
    units[SCALARS] = "count"
    for mod in MODULES[:-1]:
        units[f"{mod}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scalars = 0
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[1] = perf_counter()
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, extra):
        enter, exit_ = self.enter, self.exit
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not stack:  # outside an operation, e.g. in an output check
                return fn(*args, **kwargs)
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if extra is not None:
                spans[idx][4] = (extra[0], extra[2](args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # --- patching -------------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        homes = {mod: importlib.import_module(f"kocalc.{mod}") for mod in MODULES}
        modules = [m for n, m in sys.modules.items() if n == "kocalc" or n.startswith("kocalc.")]
        for name, mod, cls, attr, extra in TARGETS:
            home = homes[mod]
            if cls is not None:
                owner = getattr(home, cls)
                self._set(owner, attr, self._wrap(name, vars(owner)[attr], extra))
                continue
            original = getattr(home, attr)
            traced = self._wrap(name, original, extra)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, binding, traced)

        scalar = homes["linalg"].GaussianRational
        post_init = scalar.__post_init__

        def counted(obj):
            if self.stack:
                self.scalars += 1
            post_init(obj)

        self._set(scalar, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> tuple[list[list], int]:
        """Return and forget the spans and scalar count recorded so far."""
        spans, scalars = self.spans[:], self.scalars
        self.spans.clear()
        self.scalars = 0
        return spans, scalars


def pass_metrics(spans: list[list], scalars: int) -> tuple[dict, dict]:
    """Per-layer counts and self times of one pass.

    ``times`` holds the self time per function and per module, and the part
    of the operations' time that no kocalc span covers
    (``trace.unattributed_s``).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    counts: dict[str, int] = defaultdict(int)
    times: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent, extra) in enumerate(spans):
        own = end - start - child[idx]
        if name == OP:
            times["trace.unattributed_s"] += own
            continue
        counts[f"{name}.calls"] += 1
        times[f"{name}.self_s"] += own
        times[f"{name.split('.')[0]}.self_s"] += own
        if extra is not None:
            counts[f"{name}.{extra[0]}"] += extra[1]
        if name == "linalg.matmul":
            up = parent
            while up >= 0:
                if spans[up][0] in MATMUL_OWNERS:
                    counts[f"{spans[up][0]}.matmul_calls"] += 1
                up = spans[up][3]
    counts[SCALARS] = scalars
    return dict(counts), dict(times)

"""kocalc benchmark: one workload per process, closed loop, one caller.

Usage, from the root of a checkout:

    python3 kobench/run.py --workload warm-products --seed 1 --seconds 40 --trace 0

A workload is a fixed list of inputs (``workloads.py``).  One pass runs the
whole list in an order drawn from ``--seed``; the next operation starts
only after the previous one returned.  kocalc is imported from ``src/`` of
the checkout, and the run fails without it.

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, each from a
fresh import (``setup_s`` is the median), then runs whole passes until
``--seconds`` have gone by and the 90th latency percentile has at least
ten samples beyond it (about seven passes of cold-construct or
cli-documents, so a short ``--seconds`` may be exceeded).  An
operation's latency is its wall time scaled to a reference host speed
(``hostspeed.py``): a fixed kernel, timed just before and after the
operation and every 40 ms during it, measures how fast the shared host
runs at that moment, and the end-to-end times read as they would on a
host where that kernel takes 1 ms.  Set-up times are scaled the same
way.  The unscaled wall times are on the line before the result.  The
cache clearing and output checks between operations are not timed.
``ops_per_s`` is the median over passes of a pass's correct operations
over its summed latencies, so a slow spell of the machine in one pass
does not move it.

``--trace 1`` sets up once, then alternates untraced and traced passes
(``tracing.py``), at least two of each, until ``--seconds`` have gone by.
Counts are those of one traced pass and must repeat exactly in every
traced pass; times are medians over traced passes, and the tracing
overhead is the median traced pass time minus the median untraced one.

``--smoke`` runs one timed pass, or two untraced and two traced passes,
with no sample-count requirement.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the Python version, ``nproc`` and the load average at start and
end, the pass and sample counts, the error rate and the first failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
from workloads import WORKLOADS, kocalc_caches

START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_BEYOND_P90 = 10
TRACED_PASSES = 2
DEADLINE_S = 150.0   # no pass starts that would likely end later than this
ATTRIBUTION = 0.02   # share of traced operation time no kocalc span may cover


def import_kocalc():
    """Import kocalc afresh from the checkout, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "kocalc" or n.startswith("kocalc.")]:
        del sys.modules[name]
    kc = importlib.import_module("kocalc")
    if Path(kc.__file__).resolve().parent != SRC / "kocalc":
        raise RuntimeError(f"imported kocalc from {kc.__file__}, not from {SRC}")
    return kc


class Loop:
    """The closed loop: passes over a workload, latencies and failures."""

    def __init__(self, wl, items, seed: int) -> None:
        self.wl, self.items = wl, items
        self.rng = random.Random(seed)
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.failures: list[str] = []

    def run_pass(self, tracer=None, speed=None) -> float:
        """Run one pass in a fresh order; return its summed latencies.

        With a ``hostspeed.Sampler`` as ``speed``, latencies are scaled to
        the reference host speed, and ``wall`` keeps the unscaled ones.
        """
        order = list(self.items)
        self.rng.shuffle(order)
        wl, busy = self.wl, 0.0
        for item in order:
            wl.prepare()
            before = speed.sample() if speed else 0.0
            t0 = perf_counter()
            span = tracer.enter(tracing.OP) if tracer else None
            try:
                out, err = wl.run(item), None
            except Exception as exc:  # an unexpected raise is a failed operation
                out, err = None, f"{item}: raised {type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.exit(span)
            t1 = perf_counter()
            dt = speed.scaled(t0, t1, before, speed.sample()) if speed else t1 - t0
            busy += dt
            self.latencies.append(dt)
            self.wall.append(t1 - t0)
            if err is None:
                err = wl.check(item, out)
            if err is not None:
                self.failures.append(err)
        return busy


def timed_run(loop: Loop, speed, seconds: float, smoke: bool) -> tuple[dict, dict]:
    rates, start = [], perf_counter()
    while True:
        failed = len(loop.failures)
        busy = loop.run_pass(speed=speed)
        rates.append((len(loop.items) - len(loop.failures) + failed) / busy)
        now = perf_counter()
        lat = loop.latencies
        p90 = statistics.quantiles(lat, n=10)[8]
        beyond = sum(x > p90 for x in lat)
        if smoke or (now - start >= seconds and beyond >= MIN_BEYOND_P90):
            break
        if now - START + (now - start) / len(rates) > DEADLINE_S:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    wall_p90 = statistics.quantiles(loop.wall, n=10)[8]
    return metrics, {
        "passes": len(rates), "samples_beyond_p90": beyond,
        "wall_latency_p50_ms": 1e3 * statistics.median(loop.wall),
        "wall_latency_p90_ms": 1e3 * wall_p90,
        "kernel_runs": len(speed.runs),
        "kernel_p10_p50_p90_ms": [1e3 * q for q in statistics.quantiles(
            [end - start for start, end in speed.runs] or [0.0, 0.0], n=10)[::4]],
    }


def traced_run(loop: Loop, seconds: float, smoke: bool) -> tuple[dict, dict, list[str]]:
    """Alternate untraced and traced passes; the difference is the overhead."""
    tracer = tracing.Tracer()
    untraced, rows, start = [], [], perf_counter()
    while True:
        untraced.append(loop.run_pass())
        tracer.install()
        try:
            busy = loop.run_pass(tracer)
        finally:
            tracer.uninstall()
        rows.append((busy, *tracing.pass_metrics(*tracer.take())))
        now = perf_counter()
        if len(rows) >= TRACED_PASSES and (smoke or now - start >= seconds):
            break
        if len(rows) >= TRACED_PASSES and now - START + (now - start) / len(rows) > DEADLINE_S:
            break

    problems = []
    counts = [row[1] for row in rows]
    if any(c != counts[0] for c in counts):
        diff = sorted(k for k in counts[0].keys() | counts[-1].keys()
                      if counts[0].get(k) != counts[-1].get(k))
        problems.append(f"traced counts differ between passes: {diff[:6]}")
    for busy, _counts, times in rows:
        modules = sum(times.get(f"{m}.self_s", 0.0) for m in tracing.MODULES)
        if abs(busy - modules) > ATTRIBUTION * busy:
            problems.append(f"module self times sum to {modules:.4f} s of a {busy:.4f} s pass")

    metrics = {}
    for name, unit in tracing.metric_units().items():
        if unit == "s":
            value = statistics.median(row[2].get(name, 0.0) for row in rows)
        else:
            value = counts[0].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    traced = statistics.median(row[0] for row in rows)
    metrics["trace.overhead_s"]["value"] = traced - statistics.median(untraced)
    info = {"passes": 2 * len(rows), "untraced_pass_s": untraced,
            "traced_pass_s": [row[0] for row in rows]}
    return metrics, info, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="kocalc benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass (two untraced and two traced with --trace 1), "
                         "no sample-count requirement")
    args = ap.parse_args(argv)

    if not (SRC / "kocalc" / "__init__.py").is_file():
        print(f"error: no kocalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    cls = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    setup_times, setup_wall, setup_errors = [], [], []
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, work, ignore_errors=True)
        speed = None if args.trace else stack.enter_context(hostspeed.Sampler())
        for _ in range(1 if args.trace or args.smoke else SETUP_REPEATS):
            wl = None  # each set-up starts from the same heap
            gc.collect()
            before = speed.sample() if speed else 0.0
            t0 = perf_counter()
            wl = cls(import_kocalc(), work)
            t1 = perf_counter()
            setup_times.append(speed.scaled(t0, t1, before, speed.sample()) if speed else t1 - t0)
            setup_wall.append(t1 - t0)
            setup_errors.extend(wl.setup_errors)
        loop = Loop(wl, cls.ITEMS, args.seed)
        problems: list[str] = []
        if args.trace:
            metrics, info, problems = traced_run(loop, args.seconds, args.smoke)
        else:
            metrics, info = timed_run(loop, speed, args.seconds, args.smoke)
            metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}

    attempted, failed = len(loop.latencies), len(loop.failures)
    problems = setup_errors + problems
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "setup_runs_s": setup_times, "setup_wall_s": setup_wall, "caches_found": len(kocalc_caches()),
        **info, "samples": attempted, "error_rate": failed / attempted,
        "problems": problems, "first_failures": loop.failures[:5],
    }))
    for line in problems + loop.failures[:20]:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not (problems or loop.failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

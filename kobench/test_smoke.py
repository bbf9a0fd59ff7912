"""Smoke test of the benchmark: each workload for a pass or two, both modes.

Run from the root of a checkout:

    python3 -m pytest kobench/test_smoke.py

It is not part of the tier-1 suite (``testpaths`` names only ``tests``)
and asserts nothing about timings: only that every metric named in
``BENCHMARK.json`` is reported with its unit and that no operation failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (includes workloads run by hand only)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "kobench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_metric_without_errors(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and info["error_rate"] == 0
    assert result["attempted"] == info["samples"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for key in ("python", "nproc", "loadavg_start", "loadavg_end"):
        assert key in info


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the run exits nonzero silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "kobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "cold-construct", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_takes_out_kernel_runs_and_divides_by_the_slowdown():
    ref = hostspeed.REFERENCE_S
    speed = hostspeed.Sampler()
    # Timer runs at twice the reference time: one before, one inside and
    # one after the stretch from 10 s to 11 s.
    speed.runs = [(9.5, 9.5 + 2 * ref), (10.2, 10.2 + 2 * ref), (11.5, 11.5 + 2 * ref)]
    scaled = speed.scaled(10.0, 11.0, 2 * ref, 2 * ref)
    assert scaled == pytest.approx((1.0 - 2 * ref) / 2)
    # A stretch that is partly fast and partly slow: the mean slowdown.
    assert speed.scaled(10.0, 11.0, ref, ref) == pytest.approx((1.0 - 2 * ref) * 3 / 4)

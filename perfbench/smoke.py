"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/smoke.py

Runs every workload, shrunk to a few rows, through both the untraced and the
traced path, checks that BENCHMARK.json names the same workloads and metrics
as the harness, and that the calibrator (calib.py) measures and stops.  The
file name keeps it out of the repository's default test run, because each
job starts fresh processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_harness():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_untraced_and_traced(name, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_PRECISION", 0.0)
    monkeypatch.setattr(workloads, "MIN_RECALL", 0.0)
    w = replace(WORKLOADS[name], name=f"tiny-{name}", n_left=20, n_right=12)
    plain = run.run(w, seed=1, seconds=0.1, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 1
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    # a traced run passes only if the traced job's artifacts match the
    # untraced job's byte for byte, and those of the run above
    traced = run.run(w, seed=1, seconds=0.1, trace=True)
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] == 2
    assert set(traced["metrics"]) == set(LAYER_METRICS)
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    assert layers["multicolumn.column_sets"] >= 1 and layers["distances.calls"] >= 2
    assert 0.0 < layers["distances.distinct_ratio"] <= 1.0
    assert 0.0 <= layers["blocking.gt_kept"] <= 1.0
    assert layers["trace.overhead_s"] > 0.0


def test_calibrator_measures_and_stops():
    from calib import Calibrator

    cpus = os.sched_getaffinity(0)
    try:
        cal = Calibrator()
        since = cal.snapshot()
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
        assert cal.rate(since) > 0
        cal.stop()
        with pytest.raises(ProcessLookupError):
            os.kill(cal.pid, 0)
    finally:
        os.sched_setaffinity(0, cpus)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "single-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

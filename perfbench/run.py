"""fuzzyjoin benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload single-full --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/``.  Set-up writes the workload's seeded inputs to CSV under
``.perfbench_work/``.  The measured part is a closed loop of one job at a
time: each job is a fresh process (job.py) that runs the CLI's pipeline with
one thread on the CSVs, so no in-process cache warms a later job, and before
each job five more fresh processes time ``import fuzzyjoin`` alone.  Jobs
start until the next one would end after ``--seconds``.  ``setup_s`` is the
import's CPU seconds.  ``job_s`` is the job's CPU seconds scaled to a
reference core speed measured beside it on the same core (calib.py), because
the speed of a shared host's core drifts by up to 2x within seconds; each
job also prints its raw CPU and wall seconds.  Every job's output
is checked (see ``check_job``), and its sha256 digests must agree with every
other job's and with earlier runs of the same program on the same inputs.

``--trace 0`` prints the end-to-end metrics, medians over the jobs.
``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics of the traced ones (spans.py), each with what it should move.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s, set-up included
IMPORTS_PER_JOB = 5  # import-only processes before each job

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "true_precision": "ratio",
    "true_recall": "ratio",
}


class Job(NamedTuple):
    """One passed job: its process's result and its artifacts' digests."""

    traced: bool
    result: dict
    digests: tuple[str, str]  # sha256 of joins.csv and solution.txt
    precision: float  # true precision and recall against the ground truth
    recall: float


class CheckFailed(Exception):
    """A job raised, or its output broke one of the benchmark's checks."""


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _child(spec: dict, spec_path: Path, deadline: float) -> dict:
    """Run job.py on one spec in a fresh process and return its result."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), str(spec_path)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed("job did not finish before the run's time limit") from None
    if proc.returncode != 0:
        raise CheckFailed(f"job exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not Path(out["module"]).resolve().is_relative_to(SRC.resolve()):
        raise CheckFailed(f"job imported fuzzyjoin from {out['module']}, not {SRC}")
    return out


def check_job(w, inputs, out: dict, joins: Path, solution: Path) -> tuple[float, float]:
    """Check one job's artifacts; return true precision and recall."""
    from fuzzyjoin.evaluation import GroundTruth, score
    from fuzzyjoin.functions import Assignment, JoinResult, load_solution
    import workloads

    with open(joins, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["right_id", "left_id", "estimated_precision", "config_index"]:
        raise CheckFailed(f"joins.csv header {rows[0]}")
    assignments = {}
    for rid, lid, prec, cfg in rows[1:]:
        if rid in assignments:
            raise CheckFailed(f"query id {rid} joined more than once")
        if rid not in inputs.right_ids or lid not in inputs.left_ids:
            raise CheckFailed(f"joined pair ({rid}, {lid}) names an id not in the inputs")
        assignments[rid] = Assignment(lid, float(prec), int(cfg))
    if assignments and not out["estimated_precision"] > workloads.TAU:
        raise CheckFailed(f"estimated precision {out['estimated_precision']} <= tau {workloads.TAU}")
    if assignments and not load_solution(solution).configs:
        raise CheckFailed("non-empty join from an empty solution.txt")
    report = score(JoinResult(assignments), GroundTruth(inputs.truth))
    floors = (workloads.MIN_PRECISION, workloads.MIN_RECALL)
    if report.precision < floors[0] or report.recall_normalized < floors[1]:
        raise CheckFailed(
            f"true precision {report.precision:.4f} / recall {report.recall_normalized:.4f}"
            f" below floors {floors[0]} / {floors[1]}"
        )
    return report.precision, report.recall_normalized


def _measure(w, inputs, work: Path, seconds: float, trace: bool, deadline: float):
    """Run jobs in a closed loop, each after IMPORTS_PER_JOB import-only
    processes, so that the import samples spread over the run like the jobs.

    Returns the import times, the passed jobs and the failure messages.
    """
    from workloads import TAU

    kinds = (False, True) if trace else (False,)
    setup, jobs, failures = [], [], []
    started = time.monotonic()
    for n in itertools.count():
        t = time.monotonic()
        traced = kinds[n % len(kinds)]
        d = work / f"job{n}"
        d.mkdir()
        spec = {
            "left": str(inputs.left_path),
            "right": str(inputs.right_path),
            "truth": str(inputs.truth_path),
            "multi": w.multi,
            "tau": TAU,
            "trace": traced,
            "joins": str(d / "joins.csv"),
            "solution": str(d / "solution.txt"),
            "manifest": str(d / "manifest.json"),
        }
        try:
            for _ in range(IMPORTS_PER_JOB):
                setup.append(_child({"import_only": True}, d / "import.json", deadline)["import_s"])
            out = _child(spec, d / "spec.json", deadline)
            setup.append(out["import_s"])
            tp, tr = check_job(w, inputs, out, d / "joins.csv", d / "solution.txt")
            digests = (_sha256(d / "joins.csv"), _sha256(d / "solution.txt"))
            jobs.append(Job(traced, out, digests, tp, tr))
            print(
                f"job {n}{' traced' if traced else ''}: {out['job_s']:.3f} s calibrated,"
                f" {out['job_cpu_s']:.3f} s CPU, {out['job_wall_s']:.3f} s wall; checks passed"
            )
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            print(f"job {n} failed: {failures[-1]}", file=sys.stderr)
        now = time.monotonic()
        wall = now - t
        if n + 1 >= len(kinds) and now + wall > min(started + seconds, deadline):
            break
    return setup, jobs, failures


def _digest_failures(w, seed: int, inputs_sha: str, jobs: list) -> int:
    """Jobs whose artifacts differ from the first job's, or, for all of
    them, from an earlier run of the same program on the same inputs."""
    if not jobs:
        return 0
    first = jobs[0].digests
    failed = sum(1 for j in jobs if j.digests != first)
    if failed:
        print(f"artifacts differ between jobs: {failed} of {len(jobs)}", file=sys.stderr)
    record = {
        "program": _sha256(*sorted((SRC / "fuzzyjoin").glob("*.py"))),
        "inputs": inputs_sha,
        "joins": first[0],
        "solution": first[1],
    }
    path = WORK / "digests" / f"{w.name}-{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        same_run = earlier["program"] == record["program"] and earlier["inputs"] == record["inputs"]
        if same_run and earlier != record:
            print("artifacts differ from an earlier run on the same inputs", file=sys.stderr)
            return len(jobs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return failed


def _report(name: str, values: list, unit: str, note: str = "") -> dict:
    value = statistics.median(values)
    print(f"{name:26s} {value:12.4f} {unit:6s} median of {len(values):2d}  {note}")
    return {"value": value, "unit": unit}


def run(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one run; return the result object."""
    from workloads import make_inputs

    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(w, seed, work)
        inputs_sha = _sha256(inputs.left_path, inputs.right_path)
        print(
            f"{w.name} seed {seed}: {len(inputs.left_ids)} reference rows,"
            f" {len(inputs.right_ids)} query rows, {len(inputs.truth)} true matches,"
            f" inputs sha256 {inputs_sha}"
        )
        setup, jobs, failures = _measure(w, inputs, work, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures) + _digest_failures(w, seed, inputs_sha, jobs)
    plain = [j for j in jobs if not j.traced]
    traced = [j for j in jobs if j.traced]
    metrics = {}
    if plain:
        print(f"joins.csv sha256 {plain[0].digests[0]}\nsolution.txt sha256 {plain[0].digests[1]}")
    if plain and not trace:
        metrics = {
            "job_s": _report("job_s", [j.result["job_s"] for j in plain], "s"),
            "setup_s": _report("setup_s", setup, "s"),
            "peak_rss_mb": _report("peak_rss_mb", [j.result["peak_rss_mb"] for j in plain], "MB"),
            "true_precision": _report("true_precision", [j.precision for j in plain], "ratio"),
            "true_recall": _report("true_recall", [j.recall for j in plain], "ratio"),
        }
    elif plain and traced:
        from spans import LAYER_METRICS

        for name, (unit, _, moves) in LAYER_METRICS.items():
            metrics[name] = _report(name, [j.result["layers"][name] for j in traced], unit, f"moves {moves}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(jobs) + len(failures),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzyjoin" / "__init__.py").is_file():
        print(f"error: no fuzzyjoin sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

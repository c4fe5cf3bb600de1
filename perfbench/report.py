"""Run every workload once and print its metrics with units.

    python3 perfbench/report.py [--seed 0] [--seconds 38] [--trace 0|1]

The same as calling run.py once per workload, with the per-workload lines
and results one after another.  Exits with 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for w in WORKLOADS.values():
        result = run.run(w, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), "\n", flush=True)
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

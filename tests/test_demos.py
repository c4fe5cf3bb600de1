"""Every narrative script under demos/ runs to completion against the
package in src/, and the distance tour, the safety estimate and the
robustness drills print the values they always have."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo_distance_tour.py's stdout, pinned so that a moved distance shows
TOUR_STDOUT = """\
preprocessing options on: '2008 Mississippi State Bulldogs football team'
  L       -> '2008 mississippi state bulldogs football team'
  L+RP    -> '2008 mississippi state bulldogs football team'
  L+S     -> '2008 mississippi state bulldog footbal team'
  L+S+RP  -> '2008 mississippi state bulldog footbal team'

tokenizations of the lowercased string:
  SP: ['2008', 'bulldogs', 'football', 'mississippi', 'state', 'team']
  3G: [' bu', ' fo', ' mi', ' st', ' te', '008', '08 ', '200'] ...

distances between
  l = '2008 Mississippi State Bulldogs football team'
  r = '2008 Missisippi State Bulldog football'
  preprocess=L tokenizer=NONE weights=NONE distance=ED         -> 0.1556
  preprocess=L tokenizer=NONE weights=NONE distance=JW         -> 0.0416
  preprocess=L tokenizer=SP weights=EW distance=JD             -> 0.6250
  preprocess=L tokenizer=SP weights=EW distance=CJD            -> 1.0000
  preprocess=L tokenizer=SP weights=IDFW distance=CD           -> 0.8551
  preprocess=L tokenizer=3G weights=EW distance=DD             -> 0.1646

the full space holds 136 join functions; each also gets a
grid of candidate thresholds, so the solver weighs thousands of
configurations per dataset.
"""

# demo_safety_estimation.py's stdout, pinned so that a moved estimate shows
SAFETY_STDOUT = """\
complete grid, r at 0.3 units from (0,0):
  ball of radius 0.6 holds only (0,0) itself -> precision 1

incomplete grid (4 records deleted), r at 0.75 units from (0,0):
  the 1.5-unit ball holds 5 surviving records -> precision 0.2

the estimate only needs to separate safe joins (clean balls) from
risky ones; whether a crowded ball scores 1/5 or 1/8 barely matters
once the target precision is 0.9.
"""

# demo_robustness.py's stdout, pinned so that a moved join or score shows
ROBUSTNESS_STDOUT = """\
zero-join stress (200 x 200 disjoint random token strings):
  joins produced: 0, false-positive rate: 0.0000 (want < 0.05)

irrelevant right rows (fraction of query table that is noise):
  rate=0.2: precision=0.898 recall_abs=114
  rate=0.6: precision=0.905 recall_abs=114

blocking factor sweep (candidates kept per row = beta * sqrt(|L|)):
  beta=0.25: precision=0.884 recall_abs=114
  beta=1.00: precision=0.898 recall_abs=114
  beta=2.00: precision=0.905 recall_abs=114
"""


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_distance_tour_stdout(tmp_path):
    proc = run_demo(ROOT / "demos" / "demo_distance_tour.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == TOUR_STDOUT


def test_safety_estimation_stdout(tmp_path):
    proc = run_demo(ROOT / "demos" / "demo_safety_estimation.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SAFETY_STDOUT


def test_robustness_stdout(tmp_path):
    proc = run_demo(ROOT / "demos" / "demo_robustness.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ROBUSTNESS_STDOUT

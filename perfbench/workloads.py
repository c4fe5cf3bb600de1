"""Benchmark workloads: seeded synthetic join inputs written to CSV.

Every workload draws its tables from the program's own synthetic generator
(``generate_synthetic``, plus ``add_random_column`` for the multi-column
workload) and then cuts the query table to a fixed row count.  The cut keeps
the amount of work the same for every seed: the generator draws 0-3 variants
per entity, so its query-table size alone varies by about 8% between seeds.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fuzzyjoin.evaluation import add_random_column, generate_synthetic
from fuzzyjoin.tables import Record, Table

TAU = 0.9
# correctness floors for true precision and recall against the ground truth;
# over seeds 10-29 at the commit that introduced the benchmark the lowest
# values were 0.908 and 0.978 across all three workloads
MIN_PRECISION = 0.85
MIN_RECALL = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_left: int
    n_right: int  # query rows kept from the generator, before repetition
    unmatched_rate: float = 0.0  # the generator's share of unmatchable queries
    repeat: int = 1  # copies of each kept query row, under fresh ids
    # run-multi on both tables with an added random-string column, instead
    # of run on column "name"
    multi: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "single-full",
            "paper default (136 functions, tau=0.9, s=50), distinct query values:"
            " distance kernels dominate; bypasses multicolumn",
            n_left=200,
            n_right=350,
            unmatched_rate=0.2,
        ),
        Workload(
            "dup-queries",
            "each query value repeated 12x: distance dedupe absorbs the repeats,"
            " so blocking, rule filtering, precompute, greedy and memory show",
            n_left=150,
            n_right=250,
            unmatched_rate=0.2,
            repeat=12,
        ),
        Workload(
            "multi-noise",
            "run-multi with a random-string column: the only workload through"
            " multicolumn, with many small solves and costly long-string ED",
            n_left=100,
            n_right=140,
            multi=True,
        ),
    )
}


@dataclass
class Inputs:
    left_path: Path
    right_path: Path
    truth_path: Path
    left_ids: set[str]
    right_ids: set[str]
    truth: dict[str, str]  # right id -> left id, for rights with a true match


def _draw(w: Workload, seed: int) -> tuple[Table, Table, dict[str, str]]:
    """The generator's tables for this seed, redrawn from derived seeds in
    the rare case that the query table comes out shorter than ``n_right``."""
    for attempt in range(100):
        sub = seed if attempt == 0 else int(np.random.SeedSequence((seed, attempt)).generate_state(1)[0])
        L, R, gt = generate_synthetic(n_left=w.n_left, seed=sub, unmatched_rate=w.unmatched_rate)
        if len(R) >= w.n_right:
            return L, R, gt.matches
    raise RuntimeError(f"{w.name}: no draw reached {w.n_right} query rows")


def _write_csv(table: Table, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id",) + table.columns)
        for rec in table.records:
            writer.writerow((rec.id,) + rec.values)


def make_inputs(w: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write left.csv, right.csv and truth.csv for one workload and seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    L, R, matches = _draw(w, seed)
    records = list(R.records[: w.n_right])  # the generator already shuffled R
    truth = {r.id: matches[r.id] for r in records if r.id in matches}
    if w.repeat > 1:
        copies = [r for r in records for _ in range(w.repeat)]
        random.Random(seed).shuffle(copies)
        records = [Record(f"Q{i:06d}", r.values) for i, r in enumerate(copies)]
        truth = {new.id: matches[r.id] for new, r in zip(records, copies) if r.id in matches}
    R = Table(R.columns, tuple(records), R.role)
    if w.multi:
        L = add_random_column(L, seed=2 * seed + 1)
        R = add_random_column(R, seed=2 * seed + 2)

    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        out_dir / "left.csv",
        out_dir / "right.csv",
        out_dir / "truth.csv",
        set(L.ids()),
        set(R.ids()),
        truth,
    )
    _write_csv(L, inputs.left_path)
    _write_csv(R, inputs.right_path)
    with open(inputs.truth_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("right_id", "left_id"))
        writer.writerows(sorted(truth.items()))
    return inputs

"""Shared helpers: CSV writers, random greedy-search instances, and the
loops that the vectorized engines are held to: the dense greedy loop and the
per-pair set-statistics loop."""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fuzzyjoin import Record, Table
from fuzzyjoin.solver import GreedyOutcome, GreedyStep
from fuzzyjoin.text import IdfIndex, tokenize


def write_table_csv(table: Table, path: Path, id_column: str = "id") -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_column] + list(table.columns))
        for rec in table.records:
            writer.writerow([rec.id] + list(rec.values))
    return path


def write_gt_csv(matches: dict[str, str], path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["right_id", "left_id"])
        for rid in sorted(matches):
            writer.writerow([rid, matches[rid]])
    return path


def repeat_queries(R: Table, k: int) -> Table:
    """Each query row k times under fresh ids: identical rows give identical
    configuration columns, so greedy profits tie often."""
    records = tuple(
        Record(f"{rec.id}-{i}", rec.values) for rec in R.records for i in range(k)
    )
    return Table(R.columns, records, R.role)


@pytest.fixture
def table_csv_writer(tmp_path):
    def _write(table: Table, name: str) -> Path:
        return write_table_csv(table, tmp_path / name)

    return _write


def make_random_instance(
    rng: np.random.Generator,
    n_cfg: int | None = None,
    n_right: int | None = None,
    n_left: int = 8,
    dyadic: bool = False,
):
    """Random per-configuration assignment arrays mimicking the solver's
    precomputed tables: sparse assignments, precisions of the form 1/k.

    With ``dyadic`` the precisions are restricted to powers of two so that
    every sum is exact in both float32 and float64 and reference
    computations agree bitwise with the vectorized engine.
    """
    n_cfg = n_cfg or int(rng.integers(4, 65))
    n_right = n_right or int(rng.integers(4, 51))
    density = rng.uniform(0.1, 0.7)
    assigned = rng.random((n_cfg, n_right)) < density
    left = np.where(
        assigned, rng.integers(0, n_left, size=(n_cfg, n_right)), -1
    ).astype(np.int32)
    if dyadic:
        k = 2 ** rng.integers(0, 4, size=(n_cfg, n_right))
    else:
        k = rng.integers(1, 7, size=(n_cfg, n_right))
    prec = np.where(assigned, 1.0 / k, 0.0).astype(np.float32)
    return left, prec


def oracle_union(rows: list[tuple[np.ndarray, np.ndarray]], n_right: int):
    """Reference union semantics, computed naively from an ordered config
    list: per right, the strictly more confident assignment wins and the
    earlier configuration keeps ties."""
    best_prec = [0.0] * n_right
    best_left = [-1] * n_right
    for left_row, prec_row in rows:
        for r in range(n_right):
            if left_row[r] != -1 and float(prec_row[r]) > best_prec[r]:
                best_prec[r] = float(prec_row[r])
                best_left[r] = int(left_row[r])
    tp = sum(best_prec)
    n_assigned = sum(1 for l in best_left if l != -1)
    fp = max(n_assigned - tp, 0.0)
    return tp, fp, best_left, best_prec


def oracle_profit(tp: float, fp: float) -> float:
    if fp > 0:
        return tp / fp
    return math.inf if tp > 0 else 0.0


def dense_greedy(
    cfg_left: np.ndarray,
    cfg_prec: np.ndarray,
    tau: float,
    rng: np.random.Generator,
) -> GreedyOutcome:
    """Reference greedy search: every pick recomputes each candidate's union
    tp and assigned count over the whole table.  Same profit, tie rule,
    random draws and stop rule as ``solver.greedy_select``."""
    n_cfg, n_right = cfg_left.shape
    cfg_assigned = cfg_left != -1
    available = np.ones(n_cfg, dtype=bool)
    cur_left = np.full(n_right, -1, dtype=np.int32)
    cur_prec = np.zeros(n_right, dtype=np.float32)
    cur_source = np.full(n_right, -1, dtype=np.int32)
    selected: list[int] = []
    trace: list[GreedyStep] = []
    tp_cur = 0.0
    stop_reason = "exhausted"

    while available.any():
        tp_new = np.maximum(cfg_prec, cur_prec).sum(axis=1, dtype=np.float64)
        n_assigned = (cfg_assigned | (cur_left != -1)).sum(axis=1)
        fp_new = np.maximum(n_assigned - tp_new, 0.0)

        eligible = available & (tp_new > tp_cur)
        if not eligible.any():
            stop_reason = "no_gain"
            break
        with np.errstate(divide="ignore"):
            prof = np.where(
                fp_new > 0,
                tp_new / np.where(fp_new > 0, fp_new, 1.0),
                np.where(tp_new > 0, np.inf, 0.0),
            )
        prof = np.where(eligible, prof, -np.inf)
        best_profit = prof.max()
        ties = prof == best_profit
        if np.isinf(best_profit):
            ties &= tp_new == tp_new[ties].max()
        tie_rows = np.nonzero(ties)[0]
        pick = int(tie_rows[0]) if len(tie_rows) == 1 else int(rng.choice(tie_rows))

        total = tp_new[pick] + fp_new[pick]
        union_precision = tp_new[pick] / total if total > 0 else 1.0
        if union_precision <= tau:
            stop_reason = "precision_target"
            break

        slot = len(selected)
        selected.append(pick)
        trace.append(
            GreedyStep(pick, float(tp_new[pick]), float(fp_new[pick]), float(union_precision))
        )
        available[pick] = False
        row_take = cfg_prec[pick] > cur_prec
        cur_left = np.where(row_take, cfg_left[pick], cur_left)
        cur_prec = np.where(row_take, cfg_prec[pick], cur_prec)
        cur_source = np.where(row_take, slot, cur_source)
        tp_cur = float(cur_prec.sum(dtype=np.float64))

    n_joined = int((cur_left != -1).sum())
    fp_cur = max(n_joined - tp_cur, 0.0)
    return GreedyOutcome(
        selected, cur_left, cur_prec, cur_source, tp_cur, fp_cur, stop_reason, trace
    )


def loop_set_stats(
    pre_pairs: list[tuple[str, str]],
    tokenizer: str,
    idf: IdfIndex | None,
) -> dict[str, np.ndarray]:
    """Per-pair intersection/size statistics for one (preprocess, tokenizer)
    combination, under both weight schemes at once: the per-pair loop over
    token ``Counter``s that the batch set kernel replaced, kept as its
    oracle."""
    n = len(pre_pairs)
    out = {
        name: np.zeros(n)
        for name in ("cnt_i", "cnt_a", "cnt_b", "idf_i", "idf_a", "idf_b")
    }
    contained = np.zeros(n, dtype=bool)
    bags: dict[str, tuple[Counter, float, float]] = {}

    def bag(s: str) -> tuple[Counter, float, float]:
        # (tokens, count, IDF weight), once per distinct string
        hit = bags.get(s)
        if hit is None:
            tokens = tokenize(s, tokenizer).tokens
            idf_w = (
                sum(m * idf.weight(t) for t, m in tokens.items()) if idf else 0.0
            )
            hit = (tokens, float(sum(tokens.values())), idf_w)
            bags[s] = hit
        return hit

    for i, (a, b) in enumerate(pre_pairs):
        A, out["cnt_a"][i], out["idf_a"][i] = bag(a)
        B, out["cnt_b"][i], out["idf_b"][i] = bag(b)
        cnt_i = 0
        idf_i = 0.0
        is_contained = True
        for t, mb in B.items():
            ma = A.get(t, 0)
            if mb > ma:
                is_contained = False
            m = ma if ma < mb else mb
            if m:
                cnt_i += m
                if idf:
                    idf_i += m * idf.weight(t)
        out["cnt_i"][i] = cnt_i
        out["idf_i"][i] = idf_i
        contained[i] = is_contained
    out["contained"] = contained
    return out

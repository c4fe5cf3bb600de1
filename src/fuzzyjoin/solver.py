"""Greedy search over join configurations.

The search space is the cross product of join functions with a per-function
grid of thresholds spanning the observed blocked cross-table distances.
Starting from an empty union, the configuration whose addition yields the
highest true-positive/false-positive ratio is added, until the estimated
precision of the union would fall to the target or no candidate adds any
true-positive mass.

All pair distances and per-configuration assignments are precomputed into
dense arrays; each greedy iteration is pure array arithmetic and touches no
string data.  The search is incremental: it keeps each configuration's tp
gain over the current union and its count of newly assigned rights, and a
pick updates them only on the rights whose union precision it raises.  Those
sums are exact (precisions are float32(1/k), k <= n_left + 1, summed in
float64 while n_right * (n_left + 1) < 2**29), so the search picks what a
full recomputation per pick would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blocking import CandidateIndex, build_index
from .distances import distance_matrix
from .functions import (
    Assignment,
    Configuration,
    JoinFunction,
    JoinResult,
    Solution,
    enumerate_function_space,
)
from .negative_rules import (
    NegativeRule,
    learn_rules,
    pair_blocked,
    preprocess_for_rules,
)
from .tables import Table
from .text import IdfIndex, build_idf_from_values


def discretize_thresholds(distances: Sequence[float] | np.ndarray, s: int) -> np.ndarray:
    """s ascending thresholds dividing [min, max] of the observed distances
    into equal steps; a degenerate range yields the single maximum value."""
    if s < 1:
        raise ValueError(f"step count must be >= 1, got {s}")
    arr = np.asarray(distances, dtype=float)
    if arr.size == 0:
        raise ValueError("no observed distances to discretize")
    dmin = float(arr.min())
    dmax = float(arr.max())
    if dmin == dmax:
        return np.array([dmax])
    grid = dmin + np.arange(1, s + 1) * ((dmax - dmin) / s)
    # rounding may overshoot dmax (and 1.0) by a few ulp mid-grid
    np.clip(grid, dmin, dmax, out=grid)
    grid[-1] = dmax
    return grid


# --- dense precomputation ---------------------------------------------------


@dataclass
class ConfigTable:
    """Per-configuration assignment arrays over all right records.

    Row c holds configuration c's join: ``left[c, r]`` is the left-record
    position joined to right r (-1 for none) and ``prec[c, r]`` its
    estimated precision under the ball of radius twice the threshold.
    ``prec`` is 0 exactly where ``left`` is -1 and > 0 elsewhere.
    """

    functions: list[JoinFunction]
    cfg_function: np.ndarray  # (n_cfg,) index into functions
    cfg_threshold: np.ndarray  # (n_cfg,)
    left: np.ndarray  # (n_cfg, n_right) int32
    prec: np.ndarray  # (n_cfg, n_right) float32

    @property
    def n_configs(self) -> int:
        return len(self.cfg_function)

    def configuration(self, c: int) -> Configuration:
        return Configuration(
            self.functions[self.cfg_function[c]], float(self.cfg_threshold[c])
        )


def _per_right_minima(
    segments: tuple[np.ndarray, np.ndarray, np.ndarray], d_row: np.ndarray, n_right: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per right record: minimum candidate distance, position of the left
    record achieving it (first on ties), and an exact-tie flag.

    ``segments`` is ``np.unique(lr_right, return_index=True,
    return_counts=True)`` of the ascending right positions of the pairs.
    """
    dmin = np.full(n_right, np.inf)
    argmin_pair = np.full(n_right, -1, dtype=np.int64)
    tie = np.zeros(n_right, dtype=bool)
    if len(d_row) == 0:
        return dmin, argmin_pair, tie
    uniq, starts, counts = segments
    seg_min = np.minimum.reduceat(d_row, starts)
    expanded = np.repeat(seg_min, counts)
    is_min = d_row == expanded
    n_min = np.add.reduceat(is_min.astype(np.int64), starts)
    first = np.minimum.reduceat(
        np.where(is_min, np.arange(len(d_row)), len(d_row)), starts
    )
    dmin[uniq] = seg_min
    argmin_pair[uniq] = first
    tie[uniq] = n_min > 1
    return dmin, argmin_pair, tie


def precompute_config_table(
    functions: Sequence[JoinFunction],
    thresholds: Sequence[np.ndarray],
    n_right: int,
    n_left: int,
    lr_right: np.ndarray,
    lr_left: np.ndarray,
    d_lr: np.ndarray,
    ll_a: np.ndarray,
    d_ll: np.ndarray,
) -> ConfigTable:
    """Expand every (function, threshold) pair into dense per-right
    assignment and precision rows, filled in place.

    ``thresholds[fi]`` is function fi's ascending grid and ``ll_a`` must be
    sorted ascending.  A precision depends only on the joined left record
    and the threshold, so each left record's ball is counted once per
    threshold and gathered at the right records joined to it.
    """
    sizes = [len(t) for t in thresholds]
    left = np.full((sum(sizes), n_right), -1, dtype=np.int32)
    prec = np.zeros((sum(sizes), n_right), dtype=np.float32)
    ll_owner, ll_starts = np.unique(ll_a, return_index=True)
    lr_segments = np.unique(lr_right, return_index=True, return_counts=True)
    row = 0
    for fi, thetas in enumerate(thresholds):
        dmin, argmin_pair, tie = _per_right_minima(lr_segments, d_lr[fi], n_right)
        joinable = np.nonzero((argmin_pair >= 0) & ~tie)[0]
        joined_left = lr_left[argmin_pair[joinable]]
        balls = np.ones((len(thetas), n_left), dtype=np.int64)
        if len(ll_starts):  # reduceat needs at least one segment
            within = d_ll[fi][None, :] <= (2.0 * thetas)[:, None]
            balls[:, ll_owner] += np.add.reduceat(within, ll_starts, axis=1, dtype=np.int64)
        inv_balls = (1.0 / balls).astype(np.float32)
        assigned = dmin[joinable][None, :] <= thetas[:, None]
        block = slice(row, row + len(thetas))
        left[block, joinable] = np.where(assigned, joined_left, -1)
        prec[block, joinable] = np.where(assigned, inv_balls[:, joined_left], 0)
        row += len(thetas)
    return ConfigTable(
        functions=list(functions),
        cfg_function=np.repeat(np.arange(len(sizes), dtype=np.int32), sizes),
        cfg_threshold=np.concatenate([np.empty(0), *thresholds]),
        left=left,
        prec=prec,
    )


# --- greedy selection -------------------------------------------------------


@dataclass
class GreedyStep:
    """One pick: the configuration row and the union's tp, fp and estimated
    precision once it is added."""

    config: int
    tp: float
    fp: float
    precision: float


@dataclass
class GreedyOutcome:
    selected: list[int]  # config row indices, in insertion order
    cur_left: np.ndarray  # (n_right,) left position or -1
    cur_prec: np.ndarray  # (n_right,) float
    cur_source: np.ndarray  # (n_right,) index into selected, or -1
    tp: float
    fp: float
    # why the search stopped: "precision_target" (the best addition would
    # bring precision down to tau), "no_gain" (no candidate adds tp) or
    # "exhausted" (every configuration was picked)
    stop_reason: str
    trace: list[GreedyStep]  # one per pick

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total > 0 else 1.0


# columns of the table gathered at once when a pick's gains are updated.  It
# bounds the (n_cfg x chunk) temporaries, so peak memory: under 1 MB at 6800
# configurations, and on a 6800 x 3000 table 32 or 64 columns ran no faster.
_UPDATE_COLUMNS = 8


def greedy_select(
    cfg_left: np.ndarray,
    cfg_prec: np.ndarray,
    tau: float,
    rng: np.random.Generator,
) -> GreedyOutcome:
    """Iteratively add the configuration maximizing the profit of the union.

    Candidates that add no true-positive mass are never picked; the loop
    stops when none remain, when the candidate pool is exhausted, or when
    the best addition would push estimated precision down to tau.  Profit
    ties are broken by larger tp among false-positive-free candidates, then
    by seeded randomness.

    ``cfg_prec`` must be 0 exactly where ``cfg_left`` is -1 and > 0
    elsewhere (the ConfigTable invariant): a union's per-right precision is
    then the elementwise maximum of its members' rows.

    The search is incremental.  Per configuration c it keeps
    ``gain[c] = sum_r max(0, prec[c, r] - cur_prec[r])`` in float64 and
    ``cover[c]``, the rights c assigns that the union leaves unassigned, so
    adding c gives tp ``tp_cur + gain[c]`` and ``n_cur + cover[c]`` assigned
    rights.  A pick changes ``cur_prec`` only on the rights it takes, and
    only those columns of the table are read to update ``gain`` and
    ``cover``.  The sums are exact, so they equal the dense per-pick
    recomputation bit for bit, and picks, ties and random draws do not
    depend on the update order: every precision is ``float32(1/k)`` with k
    at most n_left + 1, so each sum is a multiple of the smallest value's
    float32 ulp below n_right, exact in float64 while
    n_right * (n_left + 1) < 2**29.
    """
    n_cfg, n_right = cfg_left.shape
    available = np.ones(n_cfg, dtype=bool)
    cur_left = np.full(n_right, -1, dtype=np.int32)
    cur_prec = np.zeros(n_right, dtype=np.float32)
    cur_source = np.full(n_right, -1, dtype=np.int32)
    selected: list[int] = []
    trace: list[GreedyStep] = []
    tp_cur = 0.0
    n_cur = 0
    gain = cfg_prec.sum(axis=1, dtype=np.float64)
    cover = np.count_nonzero(cfg_left != -1, axis=1)
    stop_reason = "exhausted"

    while available.any():
        tp_new = tp_cur + gain
        n_assigned = n_cur + cover
        fp_new = np.maximum(n_assigned - tp_new, 0.0)

        eligible = available & (gain > 0)
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

        tp_pick, fp_pick = float(tp_new[pick]), float(fp_new[pick])
        total = tp_pick + fp_pick
        union_precision = tp_pick / total if total > 0 else 1.0
        if union_precision <= tau:
            stop_reason = "precision_target"
            break

        slot = len(selected)
        selected.append(pick)
        trace.append(GreedyStep(pick, tp_pick, fp_pick, union_precision))
        available[pick] = False
        taken = np.flatnonzero(cfg_prec[pick] > cur_prec)
        for start in range(0, len(taken), _UPDATE_COLUMNS):
            cols = taken[start : start + _UPDATE_COLUMNS]
            block = cfg_prec[:, cols]
            opened = cur_left[cols] == -1  # rights the pick newly assigns
            cover -= np.count_nonzero(block[:, opened], axis=1)  # prec > 0 iff assigned
            # max(0, p - old) - max(0, p - new) = max(0, min(p, new) - old)
            lost = np.minimum(block, cfg_prec[pick, cols], dtype=np.float64)
            lost -= cur_prec[cols]
            np.maximum(lost, 0.0, out=lost)
            gain -= lost.sum(axis=1)
        cur_left[taken] = cfg_left[pick, taken]
        cur_prec[taken] = cfg_prec[pick, taken]
        cur_source[taken] = slot
        tp_cur, n_cur = tp_pick, int(n_assigned[pick])

    fp_cur = max(n_cur - tp_cur, 0.0)
    return GreedyOutcome(
        selected, cur_left, cur_prec, cur_source, tp_cur, fp_cur, stop_reason, trace
    )


# --- column-set preparation and end-to-end solve ----------------------------


NO_PAIRS = "no candidate pairs survived blocking and negative rules"


@dataclass
class SolveResult:
    solution: Solution
    result: JoinResult
    tp: float
    fp: float
    estimated_precision: float
    estimated_recall: float
    rules_by_column: dict[str, set[NegativeRule]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    pair_counts: dict[str, int] = field(default_factory=dict)
    greedy: GreedyOutcome | None = None  # None when the search did not run


def _empty_result(
    columns: tuple[str, ...], weights: tuple[float, ...], warnings: Sequence[str]
) -> SolveResult:
    return SolveResult(
        solution=Solution((), weights, columns),
        result=JoinResult({}),
        tp=0.0,
        fp=0.0,
        estimated_precision=1.0,
        estimated_recall=0.0,
        warnings=list(warnings),
    )


@dataclass
class BlockedPairs:
    """Flattened blocked pair lists, sorted for segment arithmetic."""

    left_ids: list[str]
    right_ids: list[str]
    lr_right: np.ndarray  # (n_lr,) right positions, ascending
    lr_left: np.ndarray  # (n_lr,) left positions
    ll_a: np.ndarray  # (n_ll,) left positions, ascending
    ll_b: np.ndarray  # (n_ll,) neighbor left positions


def flatten_index(idx: CandidateIndex) -> BlockedPairs:
    lr, ll = idx.lr_pairs, idx.ll_pairs
    lr_order = np.lexsort((lr.left, lr.query))
    ll_order = np.lexsort((ll.left, ll.query))
    return BlockedPairs(
        left_ids=idx.left_ids,
        right_ids=idx.right_ids,
        lr_right=lr.query[lr_order],
        lr_left=lr.left[lr_order],
        ll_a=ll.query[ll_order],
        ll_b=ll.left[ll_order],
    )


def filter_lr_by_rules(
    pairs: BlockedPairs,
    column_rules: Sequence[tuple[Sequence[str], Sequence[str], set[NegativeRule]]],
) -> tuple[BlockedPairs, int]:
    """Drop cross-table pairs matching a learned negative rule of any column.

    ``column_rules`` holds, per column, the rule-preprocessed left values,
    the rule-preprocessed right values and that column's rules.
    """
    column_rules = [c for c in column_rules if c[2]]
    if not column_rules or len(pairs.lr_right) == 0:
        return pairs, 0
    blocked = np.zeros(len(pairs.lr_right), dtype=bool)
    for lv, rv, rules in column_rules:
        # pair_blocked once per distinct (left value, right value) pair
        codes: dict[str, int] = {}
        lc = np.array([codes.setdefault(v, len(codes)) for v in lv], dtype=np.int64)
        rc = np.array([codes.setdefault(v, len(codes)) for v in rv], dtype=np.int64)
        n = len(codes)
        distinct, inverse = np.unique(lc[pairs.lr_left] * n + rc[pairs.lr_right], return_inverse=True)
        strings = list(codes)
        a, b = np.divmod(distinct, n)
        hit = [pair_blocked(strings[x], strings[y], rules) for x, y in zip(a.tolist(), b.tolist())]
        blocked |= np.array(hit)[inverse]
    dropped = int(blocked.sum())
    if dropped == 0:
        return pairs, 0
    keep = ~blocked
    return (
        BlockedPairs(
            pairs.left_ids,
            pairs.right_ids,
            pairs.lr_right[keep],
            pairs.lr_left[keep],
            pairs.ll_a,
            pairs.ll_b,
        ),
        dropped,
    )


def solve_from_distances(
    functions: Sequence[JoinFunction],
    pairs: BlockedPairs,
    d_lr: np.ndarray,
    d_ll: np.ndarray,
    tau: float,
    s: int,
    rng: np.random.Generator,
    column_weights: tuple[float, ...] = (1.0,),
    columns: tuple[str, ...] = (),
) -> SolveResult:
    """Threshold discretization, precomputation, and greedy selection, given
    distance matrices over the blocked pairs."""
    t0 = time.perf_counter()
    thresholds = [discretize_thresholds(d_lr[fi], s) for fi in range(len(functions))]
    table = precompute_config_table(
        functions,
        thresholds,
        n_right=len(pairs.right_ids),
        n_left=len(pairs.left_ids),
        lr_right=pairs.lr_right,
        lr_left=pairs.lr_left,
        d_lr=d_lr,
        ll_a=pairs.ll_a,
        d_ll=d_ll,
    )
    t1 = time.perf_counter()
    outcome = greedy_select(table.left, table.prec, tau, rng)
    t2 = time.perf_counter()

    configs = tuple(table.configuration(c) for c in outcome.selected)
    solution = Solution(configs, column_weights, columns)
    assignments: dict[str, Assignment] = {}
    for r, rid in enumerate(pairs.right_ids):
        lpos = int(outcome.cur_left[r])
        if lpos >= 0:
            assignments[rid] = Assignment(
                pairs.left_ids[lpos],
                float(outcome.cur_prec[r]),
                int(outcome.cur_source[r]),
            )
    total = outcome.tp + outcome.fp
    warnings = [] if configs else ["no configuration met the precision target"]
    return SolveResult(
        solution=solution,
        result=JoinResult(assignments),
        tp=outcome.tp,
        fp=outcome.fp,
        estimated_precision=outcome.tp / total if total > 0 else 1.0,
        estimated_recall=outcome.tp,
        warnings=warnings,
        timings={"precompute": t1 - t0, "greedy": t2 - t1},
        pair_counts={
            "lr_pairs": int(len(pairs.lr_right)),
            "ll_pairs": int(len(pairs.ll_a)),
        },
        greedy=outcome,
    )


def needed_idf_indexes(
    functions: Sequence[JoinFunction], values: Sequence[str]
) -> dict[tuple[str, str], IdfIndex]:
    """One IdfIndex per (preprocess, tokenizer) combination used by an IDFW
    function, built over the given corpus of raw cell values."""
    combos = sorted(
        {
            (f.preprocess, f.tokenizer)
            for f in functions
            if f.is_set_based and f.weights == "IDFW"
        }
    )
    return {
        (p, t): build_idf_from_values(values, p, t) for p, t in combos
    }


@dataclass
class PreparedColumns:
    """Blocked pairs of one column set, after negative rules, with each
    column's rules and distance matrices over those pairs."""

    pairs: BlockedPairs
    rules: dict[str, set[NegativeRule]]  # empty when rules are off
    d_lr: dict[str, np.ndarray]  # empty when no cross-table pair survived
    d_ll: dict[str, np.ndarray]
    timings: dict[str, float]
    pair_counts: dict[str, int]


def prepare_columns(
    L: Table,
    R: Table,
    columns: tuple[str, ...],
    functions: Sequence[JoinFunction],
    beta: float = 1.0,
    use_negative_rules: bool = True,
) -> PreparedColumns:
    """Blocking on the columns' joined values, per-column negative rules
    filtering the cross-table pairs, and per-column distances."""
    values = {c: (L.column_values(c), R.column_values(c)) for c in columns}
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    pairs = flatten_index(build_index(L, R, columns, beta))
    timings["blocking"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rules: dict[str, set[NegativeRule]] = {}
    dropped = 0
    if use_negative_rules:
        column_rules = []
        for c in columns:
            lv = [preprocess_for_rules(v) for v in values[c][0]]
            rv = [preprocess_for_rules(v) for v in values[c][1]]
            rules[c] = learn_rules(
                (lv[a], lv[b]) for a, b in zip(pairs.ll_a, pairs.ll_b)
            )
            column_rules.append((lv, rv, rules[c]))
        pairs, dropped = filter_lr_by_rules(pairs, column_rules)
    timings["negative_rules"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    d_lr: dict[str, np.ndarray] = {}
    d_ll: dict[str, np.ndarray] = {}
    if len(pairs.lr_right) > 0:
        for c in columns:
            lvals, rvals = values[c]
            idf_by_pt = needed_idf_indexes(functions, lvals + rvals)
            lr_value_pairs = [
                (lvals[l], rvals[r]) for r, l in zip(pairs.lr_right, pairs.lr_left)
            ]
            ll_value_pairs = [
                (lvals[a], lvals[b]) for a, b in zip(pairs.ll_a, pairs.ll_b)
            ]
            d_lr[c] = distance_matrix(functions, lr_value_pairs, idf_by_pt)
            d_ll[c] = distance_matrix(functions, ll_value_pairs, idf_by_pt)
    timings["distances"] = time.perf_counter() - t0

    pair_counts = {
        "ll_pairs": int(len(pairs.ll_a)),
        "lr_pairs": int(len(pairs.lr_right)),
        "lr_dropped_by_rules": dropped,
    }
    return PreparedColumns(pairs, rules, d_lr, d_ll, timings, pair_counts)


def solve(
    L: Table,
    R: Table,
    column: str,
    tau: float = 0.9,
    functions: Sequence[JoinFunction] | None = None,
    s: int = 50,
    beta: float = 1.0,
    seed: int = 0,
    use_negative_rules: bool = True,
) -> SolveResult:
    """Single-column end-to-end solve: column preparation (blocking,
    negative rules, distances), then threshold discretization and greedy
    selection."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"precision target must be in (0, 1], got {tau}")
    fns = list(functions) if functions is not None else enumerate_function_space()
    columns = (column,)
    prep = prepare_columns(L, R, columns, fns, beta, use_negative_rules)
    if len(prep.pairs.lr_right) == 0:
        out = _empty_result(columns, (1.0,), [NO_PAIRS])
    else:
        rng = np.random.default_rng(seed)
        out = solve_from_distances(
            fns, prep.pairs, prep.d_lr[column], prep.d_ll[column], tau, s, rng, (1.0,), columns
        )
    out.rules_by_column = prep.rules
    out.timings = {**prep.timings, **out.timings}
    out.pair_counts = {**prep.pair_counts, **out.pair_counts}
    return out

"""Greedy search over join configurations.

The search space is the cross product of join functions with a per-function
grid of thresholds spanning the observed blocked cross-table distances.
Starting from an empty union, the configuration whose addition yields the
highest true-positive/false-positive ratio is added, until the estimated
precision of the union would fall to the target or no candidate adds any
true-positive mass.

The solve works per distinct query, not per right record.  Right records
with equal raw values in the column set block the same candidates, pass the
same negative rules, get the same distances and join alike, so
``prepare_columns`` numbers the distinct value tuples by first appearance,
keeps only the first record's cross-table pairs for each, and measures
distances over those; the configuration table maps every record back to its
query, and the assignments are expanded to every record.

A trial's distances are first reduced (``reduce_distances``) to what the
configuration table needs, per function: its threshold grid, each query's
join at its minimum distance and the first threshold assigning it, and each
self-join pair's ball slot.  The reduction reads the per-column matrices one
block of functions at a time and forms their weighted sum for that block
only, so the caller can drop the matrices before the table is allocated:
peak memory is the larger of the two stages, not their sum.

All per-configuration assignments are precomputed into arrays; each greedy
iteration is pure array arithmetic and touches no string data.  The
configuration table has one column per distinct query, weighted by its
count of right records.  It has one row per run of consecutive thresholds
of a function that join alike: a row changes only where a query is first
assigned or the ball of a joined left record grows, so only those
thresholds are filled, and the search runs over the rows, each standing for
its run of configurations.  The search is incremental: it keeps each row's
weighted tp gain over the current union and its weighted count of newly
assigned rights, and a pick updates them only on the queries whose union
precision it raises.  Those sums are exact (precisions are
float32(1/k), k <= n_left + 1, times integer weights summing to n_right, in
float64 while n_right * (n_left + 1) < 2**29), so the search picks what a
full recomputation per pick over all rights would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .blocking import CandidateIndex, build_index
from .distances import ColumnStrings, distance_matrix
from .functions import (
    Assignment,
    Configuration,
    JoinFunction,
    JoinResult,
    Solution,
)
from .negative_rules import (
    NegativeRule,
    learn_rules,
    pair_blocked,
    preprocess_for_rules,
)
from .tables import Table


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


# --- configuration table ----------------------------------------------------


# cells (functions x pairs) in one block of the reduction: it bounds the
# block's weighted sums and temporaries, so peak memory
_BLOCK_CELLS = 1 << 16


@dataclass
class ReducedDistances:
    """What the configuration table needs of a trial's distances, per
    function: its threshold grid, per query the left record it joins at its
    minimum distance and the first threshold that assigns it, and per
    self-join pair its ball slot.  A threshold index equal to the grid's
    size stands for none."""

    thresholds: list[np.ndarray]  # per function, its ascending grid
    joined: np.ndarray  # (n_fn, n_query) int32 left position, -1 for none
    assign_at: np.ndarray  # (n_fn, n_query) unsigned threshold index
    ball_slot: np.ndarray  # (n_fn, n_ll) unsigned threshold index
    seconds: float  # the reduction's time, reported in "precompute"


def reduce_distances(
    pairs: BlockedPairs,
    d_lr: Sequence[np.ndarray],
    d_ll: Sequence[np.ndarray],
    weights: Sequence[float],
    s: int,
) -> ReducedDistances:
    """Reduce the weighted sum (``multicolumn.weighted_sum``) of per-column
    distance matrices over ``pairs`` to the configuration table's summary,
    one block of functions at a time: the sum is formed for one block only,
    and one column at weight 1.0 is read in place.

    Function fi's grid is ``discretize_thresholds`` of its summed L-R row
    in ``s`` steps.  Per query (``lr_right`` must be sorted ascending), the
    minimum candidate distance and the left record achieving it; a query
    with no candidate, or whose minimum is tied, joins nothing.  Its
    assigning threshold is the first that reaches the minimum, and a
    self-join pair's ball slot the first whose doubled value reaches its
    distance: the pair falls in the ball of every threshold from there on.
    """
    # multicolumn imports this module, so it is imported at the call
    from .multicolumn import weighted_sum

    t0 = time.perf_counter()
    n_fn, n_lr = d_lr[0].shape
    n_query = len(np.bincount(pairs.query))
    slot_dtype = np.min_scalar_type(s)  # threshold indices 0..s
    thresholds: list[np.ndarray] = []
    joined = np.full((n_fn, n_query), -1, dtype=np.int32)
    assign_at = np.empty((n_fn, n_query), dtype=slot_dtype)
    ball_slot = np.empty((n_fn, len(pairs.ll_a)), dtype=slot_dtype)
    rights, starts, counts = np.unique(pairs.lr_right, return_index=True, return_counts=True)
    pos = np.arange(n_lr)
    step = max(1, _BLOCK_CELLS // max(n_lr, len(pairs.ll_a), 1))
    for f0 in range(0, n_fn, step):
        fs = slice(f0, f0 + step)
        lr = weighted_sum([d[fs] for d in d_lr], weights)
        ll = weighted_sum([d[fs] for d in d_ll], weights)
        dmin = np.full((len(lr), n_query), np.inf)  # inf where the query joins nothing
        if n_lr:
            seg_min = np.minimum.reduceat(lr, starts, axis=1)
            is_min = lr == np.repeat(seg_min, counts, axis=1)
            first = np.minimum.reduceat(np.where(is_min, pos, n_lr), starts, axis=1)
            unique = np.add.reduceat(is_min, starts, axis=1, dtype=np.int64) == 1
            dmin[:, rights] = np.where(unique, seg_min, np.inf)
            joined[fs, rights] = np.where(unique, pairs.lr_left[first], -1)
        for k in range(len(lr)):
            thetas = discretize_thresholds(lr[k], s)
            thresholds.append(thetas)
            assign_at[f0 + k] = np.searchsorted(thetas, dmin[k], side="left")
            ball_slot[f0 + k] = np.searchsorted(2.0 * thetas, ll[k], side="left")
    return ReducedDistances(thresholds, joined, assign_at, ball_slot, time.perf_counter() - t0)


@dataclass
class ConfigTable:
    """Per-configuration assignment arrays over distinct queries and
    distinct rows.

    Column k is query k.  Row i holds a join: ``left[i, k]`` is the
    left-record position joined to query k (-1 for none) and ``prec[i, k]``
    its estimated precision under the ball of radius twice the threshold.
    ``prec`` is 0 exactly where ``left`` is -1 and > 0 elsewhere.

    Consecutive thresholds of one function often join alike, so the table
    keeps one row per run of them with equal rows: configuration c's row is
    ``row[c]``, rows are numbered in configuration order, and each row's
    members are one ascending run of configurations.  ``left[row]`` is the
    table over all configurations.
    """

    functions: list[JoinFunction]
    cfg_function: np.ndarray  # (n_cfg,) index into functions
    cfg_threshold: np.ndarray  # (n_cfg,)
    row: np.ndarray  # (n_cfg,) int64, each configuration's row
    left: np.ndarray  # (n_row, n_query) int32
    prec: np.ndarray  # (n_row, n_query) float32

    @property
    def n_configs(self) -> int:
        return len(self.cfg_function)

    @property
    def members(self) -> np.ndarray:
        """(n_row,) int64, the configurations per row."""
        return np.bincount(self.row, minlength=len(self.left))

    def configuration(self, c: int) -> Configuration:
        return Configuration(
            self.functions[self.cfg_function[c]], float(self.cfg_threshold[c])
        )


def precompute_config_table(
    functions: Sequence[JoinFunction],
    pairs: BlockedPairs,
    reduced: ReducedDistances,
) -> ConfigTable:
    """Expand every (function, threshold) pair of ``reduced``, the
    reduction of the distances over ``pairs``, into assignment and
    precision rows over the distinct queries, one row per run of
    consecutive thresholds that join alike.

    A precision depends only on the joined left record and the threshold:
    each self-join pair falls in the ball of every threshold from its slot
    on, so one ``bincount`` and a cumulative sum per function count every
    ball.  Within a function, threshold k joins as threshold k - 1 does
    unless some query is first assigned at k or a self-join pair of a left
    record joined before k has slot k: a ball that grows changes its
    precision, since ``float32(1/b)`` differs for every ball size b.  Only
    the thresholds that start a row are filled.
    """
    thresholds, joined = reduced.thresholds, reduced.joined
    assign_at, ball_slot = reduced.assign_at, reduced.ball_slot
    n_query = joined.shape[1]
    n_left = len(pairs.left_ids)
    ll_a = pairs.ll_a
    sizes = [len(t) for t in thresholds]
    cfg_function = np.repeat(np.arange(len(thresholds), dtype=np.int32), sizes)
    cfg_threshold = np.concatenate([np.empty(0), *thresholds])
    row_starts: list[np.ndarray] = []  # per function, the thresholds starting a row
    cfg_row: list[np.ndarray] = []
    n_row = 0
    for fi, s in enumerate(sizes):
        # per left record, the first threshold joining a query to it; the
        # last entry, read through joined = -1, stays s
        joined_at = np.full(n_left + 1, s, dtype=assign_at.dtype)
        np.minimum.at(joined_at, joined[fi], assign_at[fi])
        new = np.zeros(s + 1, dtype=bool)
        new[0] = True
        new[assign_at[fi]] = True
        new[ball_slot[fi][ball_slot[fi] > joined_at[ll_a]]] = True
        row_starts.append(np.flatnonzero(new[:s]))
        cfg_row.append(n_row - 1 + np.cumsum(new[:s]))
        n_row += len(row_starts[-1])

    left = np.empty((n_row, n_query), dtype=np.int32)
    prec = np.empty((n_row, n_query), dtype=np.float32)
    r0 = 0
    for fi, ks in enumerate(row_starts):
        s = sizes[fi]
        # slot s holds pairs beyond every radius; row n_left is read by
        # queries that join nothing, whose precisions the fill zeroes
        hits = np.bincount(ll_a * (s + 1) + ball_slot[fi], minlength=(n_left + 1) * (s + 1))
        balls = 1 + np.cumsum(hits.reshape(n_left + 1, s + 1)[:, :s], axis=1)[:, ks]
        rows = slice(r0, r0 + len(ks))
        assigned = assign_at[fi] <= ks[:, None]
        left[rows] = np.where(assigned, joined[fi], -1)
        prec[rows] = (1.0 / balls[joined[fi]]).T
        prec[rows] *= assigned
        r0 += len(ks)
    return ConfigTable(
        functions=list(functions),
        cfg_function=cfg_function,
        cfg_threshold=cfg_threshold,
        row=np.concatenate([np.empty(0, dtype=np.int64), *cfg_row]),
        left=left,
        prec=prec,
    )


# --- greedy selection -------------------------------------------------------


@dataclass
class GreedyStep:
    """One pick: the configuration and the union's tp, fp and estimated
    precision once it is added."""

    config: int
    tp: float
    fp: float
    precision: float


@dataclass
class GreedyOutcome:
    selected: list[int]  # configuration indices, in insertion order
    cur_left: np.ndarray  # (n_query,) left position or -1, per query
    cur_prec: np.ndarray  # (n_query,) float
    cur_source: np.ndarray  # (n_query,) index into selected, or -1
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
# bounds the (n_row x chunk) temporaries, so peak memory: under 1 MB at 6800
# rows, the most a 136-function, 50-step grid makes; on a 6800 x 3000 table 32
# or 64 columns ran no faster.
_UPDATE_COLUMNS = 8


def greedy_select(
    cfg_left: np.ndarray,
    cfg_prec: np.ndarray,
    weight: np.ndarray,
    tau: float,
    rng: np.random.Generator,
    members: np.ndarray | None = None,
) -> GreedyOutcome:
    """Iteratively add the configuration maximizing the profit of the union.

    Candidates that add no true-positive mass are never picked; the loop
    stops when none remain, when the candidate pool is exhausted, or when
    the best addition would push estimated precision down to tau.  Profit
    ties are broken by larger tp among false-positive-free candidates, then
    by seeded randomness.

    Column k of the table is a query standing for ``weight[k]`` right
    records, which it assigns alike (the ConfigTable columns); the search
    equals the one over the table with each query repeated that many times.
    ``cfg_prec`` must be 0 exactly where ``cfg_left`` is -1 and > 0
    elsewhere: a union's per-query precision is then the elementwise
    maximum of its picks' rows.  The returned ``cur_*`` arrays are per
    query.

    Row i of the table stands for ``members[i]`` configurations with equal
    rows (the ConfigTable rows; one each by default), numbered in one
    ascending run after those of row i - 1, and the search equals the one
    over the table with each row repeated that many times.  Equal rows tie
    at every step, and once one is picked the others add no tp, so at most
    one member of a row is picked; a tie draws ``rng.choice`` over the tied
    rows' members, which is the array the expanded search draws from.
    ``selected`` and the trace hold configuration indices, and the search
    is "exhausted" only once every configuration is picked.

    The search is incremental.  Per row c it keeps
    ``gain[c] = sum_k weight[k] * max(0, prec[c, k] - cur_prec[k])`` in
    float64 and ``cover[c]``, the rights c assigns that the union leaves
    unassigned, so adding c gives tp ``tp_cur + gain[c]`` and
    ``n_cur + cover[c]`` assigned rights.  A pick changes ``cur_prec`` only
    on the queries it takes, and only those columns of the table are read to
    update ``gain`` and ``cover``.  The sums are exact, so they equal the
    dense per-pick recomputation over all rights bit for bit, and picks,
    ties and random draws do not depend on the update order or on the
    weighting: every precision is ``float32(1/k)`` with k at most
    n_left + 1, so each weighted sum is a multiple of the smallest value's
    float32 ulp below ``sum(weight)`` = n_right, exact in float64 while
    n_right * (n_left + 1) < 2**29.  The products and sums use ``np.einsum``,
    which runs on one thread.
    """
    n_row, n_col = cfg_left.shape
    members = np.ones(n_row, dtype=np.int64) if members is None else np.asarray(members)
    first_member = np.cumsum(members) - members  # each row's first configuration
    n_cfg = int(members.sum())
    weight_f = np.asarray(weight, dtype=np.float64)
    available = np.ones(n_row, dtype=bool)  # rows none of whose members is picked
    cur_left = np.full(n_col, -1, dtype=np.int32)
    cur_prec = np.zeros(n_col, dtype=np.float32)
    cur_source = np.full(n_col, -1, dtype=np.int32)
    selected: list[int] = []
    trace: list[GreedyStep] = []
    tp_cur = 0.0
    n_cur = 0
    gain = np.einsum("ck,k->c", cfg_prec, weight_f)
    cover = np.einsum("ck,k->c", cfg_left != -1, weight)
    stop_reason = "exhausted"

    while len(selected) < n_cfg:
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
        tie_rows = np.flatnonzero(ties)
        counts = members[tie_rows]
        # the tied rows' members, ascending
        tied = np.repeat(first_member[tie_rows] - np.cumsum(counts) + counts, counts)
        tied += np.arange(len(tied))
        config = int(tied[0]) if len(tied) == 1 else int(rng.choice(tied))
        pick = int(np.searchsorted(first_member, config, side="right")) - 1

        tp_pick, fp_pick = float(tp_new[pick]), float(fp_new[pick])
        total = tp_pick + fp_pick
        union_precision = tp_pick / total if total > 0 else 1.0
        if union_precision <= tau:
            stop_reason = "precision_target"
            break

        slot = len(selected)
        selected.append(config)
        trace.append(GreedyStep(config, tp_pick, fp_pick, union_precision))
        available[pick] = False
        taken = np.flatnonzero(cfg_prec[pick] > cur_prec)
        for start in range(0, len(taken), _UPDATE_COLUMNS):
            cols = taken[start : start + _UPDATE_COLUMNS]
            block = cfg_prec[:, cols]
            opened = cur_left[cols] == -1  # columns the pick newly assigns
            # prec > 0 iff assigned
            cover -= np.einsum("ck,k->c", block[:, opened] > 0, weight[cols[opened]])
            # max(0, p - old) - max(0, p - new) = max(0, min(p, new) - old)
            lost = np.minimum(block, cfg_prec[pick, cols], dtype=np.float64)
            lost -= cur_prec[cols]
            np.maximum(lost, 0.0, out=lost)
            gain -= np.einsum("ck,k->c", lost, weight_f[cols])
        cur_left[taken] = cfg_left[pick, taken]
        cur_prec[taken] = cfg_prec[pick, taken]
        cur_source[taken] = slot
        tp_cur, n_cur = tp_pick, int(n_assigned[pick])

    fp_cur = max(n_cur - tp_cur, 0.0)
    return GreedyOutcome(
        selected, cur_left, cur_prec, cur_source, tp_cur, fp_cur, stop_reason, trace
    )


# --- column-set preparation and end-to-end solve ----------------------------


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
    # the column search behind the result: every grid evaluation, and each
    # committed column (see multicolumn.solve_multi)
    trials: list[dict] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)

    @property
    def selected_columns(self) -> tuple[str, ...]:
        return self.solution.columns

    @property
    def weights(self) -> tuple[float, ...]:
        """Column weights, aligned with ``selected_columns``."""
        return self.solution.column_weights

    @property
    def invocations(self) -> int:
        return len(self.trials)


@dataclass
class BlockedPairs:
    """Flattened blocked pair lists, sorted for segment arithmetic.

    The cross-table pairs are those of distinct queries: ``lr_right`` holds
    query numbers and ``query[r]`` is right record r's.  ``flatten_index``
    makes every record its own query; ``group_queries`` collapses records
    with equal values.
    """

    left_ids: list[str]
    right_ids: list[str]
    lr_right: np.ndarray  # (n_lr,) query numbers, ascending
    lr_left: np.ndarray  # (n_lr,) left positions
    ll_a: np.ndarray  # (n_ll,) left positions, ascending
    ll_b: np.ndarray  # (n_ll,) neighbor left positions
    query: np.ndarray  # (n_right,) int64, each right record's query

    def record_pairs(self) -> int:
        """Cross-table pairs over right records: each query's pairs counted
        once per record of it."""
        return int(np.bincount(self.query)[self.lr_right].sum())


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
        query=np.arange(len(idx.right_ids)),
    )


def group_queries(pairs: BlockedPairs, keys: Sequence) -> tuple[BlockedPairs, np.ndarray]:
    """Collapse the right records of ``flatten_index``'s pairs whose
    ``keys`` (their raw values in the column set) are equal into one query
    each, numbered by first appearance, keeping only the first record's
    cross-table pairs: blocking gives equal values the same candidates.
    Returns the grouped pairs and each query's first record."""
    codes: dict = {}
    query = np.array([codes.setdefault(k, len(codes)) for k in keys], dtype=np.int64)
    first = np.unique(query, return_index=True)[1]
    is_first = np.zeros(len(query), dtype=bool)
    is_first[first] = True
    keep = is_first[pairs.lr_right]
    grouped = replace(
        pairs, lr_right=query[pairs.lr_right[keep]], lr_left=pairs.lr_left[keep], query=query
    )
    return grouped, first


def filter_lr_by_rules(
    pairs: BlockedPairs,
    column_rules: Sequence[tuple[Sequence[str], Sequence[str], set[NegativeRule]]],
) -> tuple[BlockedPairs, int]:
    """Drop cross-table pairs matching a learned negative rule of any column.

    ``column_rules`` holds, per column, the rule-preprocessed left values,
    the rule-preprocessed values of the queries ``lr_right`` indexes and
    that column's rules.
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
    return replace(pairs, lr_right=pairs.lr_right[keep], lr_left=pairs.lr_left[keep]), dropped


def solve_from_distances(
    functions: Sequence[JoinFunction],
    pairs: BlockedPairs,
    reduced: ReducedDistances,
    tau: float,
    rng: np.random.Generator,
    column_weights: tuple[float, ...] = (1.0,),
    columns: tuple[str, ...] = (),
) -> SolveResult:
    """Precomputation and greedy selection, given the reduction
    (``reduce_distances``) of the distances over the blocked pairs of
    distinct queries; every right record gets its query's assignment."""
    t0 = time.perf_counter()
    table = precompute_config_table(functions, pairs, reduced)
    t1 = time.perf_counter()
    weight = np.bincount(pairs.query)  # right records per query
    outcome = greedy_select(table.left, table.prec, weight, tau, rng, table.members)
    t2 = time.perf_counter()

    configs = tuple(table.configuration(c) for c in outcome.selected)
    solution = Solution(configs, column_weights, columns)
    assignments: dict[str, Assignment] = {}
    cur_left = outcome.cur_left[pairs.query]
    cur_prec = outcome.cur_prec[pairs.query]
    cur_source = outcome.cur_source[pairs.query]
    for r, rid in enumerate(pairs.right_ids):
        lpos = int(cur_left[r])
        if lpos >= 0:
            assignments[rid] = Assignment(
                pairs.left_ids[lpos], float(cur_prec[r]), int(cur_source[r])
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
        timings={"precompute": reduced.seconds + t1 - t0, "greedy": t2 - t1},
        pair_counts={"config_rows": len(table.left)},
        greedy=outcome,
    )


@dataclass
class PreparedColumns:
    """Blocked pairs of one column set's distinct queries, after negative
    rules, with each column's rules and distance matrices over those
    pairs.  The column search empties the matrices once the set's last
    trial has reduced them."""

    pairs: BlockedPairs
    rules: dict[str, set[NegativeRule]]  # empty when rules are off
    d_lr: dict[str, np.ndarray]  # empty when no cross-table pair survived
    d_ll: dict[str, np.ndarray]
    timings: dict[str, float]
    pair_counts: dict[str, int]


def value_pairs(
    values: tuple[Sequence[str], Sequence[str]],
    positions: tuple[np.ndarray, np.ndarray],
) -> list[tuple[str, str]]:
    """The raw value pairs (values[0][positions[0][i]],
    values[1][positions[1][i]])."""
    (a, b), (x, y) = values, positions
    return [(a[i], b[j]) for i, j in zip(x.tolist(), y.tolist())]


def prepare_columns(
    L: Table,
    R: Table,
    columns: tuple[str, ...],
    functions: Sequence[JoinFunction],
    beta: float = 1.0,
    use_negative_rules: bool = True,
    tables: dict[str, ColumnStrings] | None = None,
) -> PreparedColumns:
    """Blocking on the columns' joined values, per-column negative rules
    filtering the cross-table pairs, and per-column distances.

    After blocking, right records with equal raw values in ``columns`` are
    collapsed into distinct queries (``group_queries``), and the rules and
    L-R distances read each query's first record.  Each column's L-R and L-L
    distances are two ``distance_matrix`` calls over one ``ColumnStrings``
    of the column's values in both tables, every record's copy included
    (the IDF corpus), so its strings are preprocessed and tokenized once.
    ``tables`` maps columns to the string tables of a search over the same
    tables and functions; a column it lacks gets its table built here and
    added to it.  A table remembers the rows computed over it, so a value
    pair a previous call over it computed is not computed again.
    """
    values = {c: (L.column_values(c), R.column_values(c)) for c in columns}
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    pairs = flatten_index(build_index(L, R, columns, beta))
    pairs, first = group_queries(pairs, list(zip(*(values[c][1] for c in columns))))
    query_values = {c: [values[c][1][i] for i in first.tolist()] for c in columns}
    timings["blocking"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rules: dict[str, set[NegativeRule]] = {}
    blocked_pairs = pairs.record_pairs()
    if use_negative_rules:
        column_rules = []
        for c in columns:
            lv = [preprocess_for_rules(v) for v in values[c][0]]
            rv = [preprocess_for_rules(v) for v in query_values[c]]
            rules[c] = learn_rules(
                (lv[a], lv[b]) for a, b in zip(pairs.ll_a, pairs.ll_b)
            )
            column_rules.append((lv, rv, rules[c]))
        pairs, _ = filter_lr_by_rules(pairs, column_rules)
    timings["negative_rules"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    d_lr: dict[str, np.ndarray] = {}
    d_ll: dict[str, np.ndarray] = {}
    if len(pairs.lr_right) > 0:
        tables = {} if tables is None else tables
        for c in columns:
            lvals, rvals = values[c]
            if c not in tables:
                tables[c] = ColumnStrings(functions, lvals + rvals)
            lr = value_pairs((lvals, query_values[c]), (pairs.lr_left, pairs.lr_right))
            d_lr[c] = distance_matrix(functions, lr, tables[c])
            ll = value_pairs((lvals, lvals), (pairs.ll_a, pairs.ll_b))
            d_ll[c] = distance_matrix(functions, ll, tables[c])
    timings["distances"] = time.perf_counter() - t0

    # cross-table pairs are counted over right records, as blocked
    lr_pairs = pairs.record_pairs()
    pair_counts = {
        "ll_pairs": int(len(pairs.ll_a)),
        "lr_pairs": lr_pairs,
        "lr_dropped_by_rules": blocked_pairs - lr_pairs,
        "distinct_queries": len(first),
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
    """Single-column solve: ``multicolumn.solve_multi``'s column search over
    the one column, whose single trial prepares it (blocking, negative
    rules, distances) and runs threshold discretization and greedy
    selection on its distances."""
    # multicolumn imports this module, so it is imported at the call
    from .multicolumn import solve_multi

    return solve_multi(
        L, R, tau=tau, seed=seed, columns=[column], functions=functions, s=s,
        beta=beta, use_negative_rules=use_negative_rules,
    )

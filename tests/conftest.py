"""Shared helpers: CSV writers, random greedy-search instances, the
blocked candidates by id, and the loops that the vectorized engines are
held to: the per-configuration ball counts, the dense configuration table,
the per-function distance reduction and table fill, the dense greedy loop,
the per-string tokenizer loop, the per-pair set-statistics loop with the
scalar single-pair distance on top of it, the per-token IDF index, and the
per-row blocking loop."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import settings

from fuzzyjoin import CandidateIndex, Record, Table, blocking_cutoff, solver
from fuzzyjoin.distances import char_distance
from fuzzyjoin.functions import CHAR_DISTANCES, Configuration, JoinFunction
from fuzzyjoin.solver import (
    BlockedPairs,
    ConfigTable,
    GreedyOutcome,
    GreedyStep,
    ReducedDistances,
    weighted_sum,
)
from fuzzyjoin.text import apply_preprocess, tokenize

# No per-example deadline: the kernels' first calls and a busy shared host
# can each take longer than hypothesis's default 200 ms, which fails a
# correct example as flaky.  The number of examples is unchanged.
settings.register_profile("fuzzyjoin", deadline=None)
settings.load_profile("fuzzyjoin")


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
    """Each query row k times under fresh ids: identical rows are one
    distinct query, solved once and joined alike."""
    records = tuple(
        Record(f"{rec.id}-{i}", rec.values) for rec in R.records for i in range(k)
    )
    return Table(R.columns, records, R.role)


def ulp_over_one_tables() -> tuple[Table, Table]:
    """9 left and 10 right records over columns a, b and c, every value 4
    CJK characters: each left value is its own, so no two lefts block
    together.  Rights 0-5 copy a left's a, rights 6-7 a left's b, right 8 a
    left's c, and right 9 shares only a trigram of left 0's a, so it is at
    distance 1 in every column under a word-token distance.  A search with
    weight steps 5 commits a, then b, and its first trial over all three
    columns weighs them (0.64, 0.16, 0.2), whose float sum is an ulp above
    1."""
    values = iter("".join(chr(0x4E00 + i + k) for k in range(4)) for i in range(0, 400, 4))
    lefts = [(next(values), next(values), next(values)) for _ in range(9)]
    rights = [(lefts[k][0], next(values), next(values)) for k in range(6)]
    rights += [(next(values), lefts[k][1], next(values)) for k in (6, 7)]
    rights.append((next(values), next(values), lefts[8][2]))
    rights.append((lefts[0][0][:3] + next(values)[0], next(values), next(values)))
    cols = ("a", "b", "c")
    L = Table(cols, tuple(Record(f"L{i}", v) for i, v in enumerate(lefts)), "reference")
    R = Table(cols, tuple(Record(f"R{i}", v) for i, v in enumerate(rights)), "query")
    return L, R


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


@dataclass
class BallCounter:
    """Sorted self-join neighbor distances per left record, for one join
    function.  The count for radius rho includes the record itself."""

    neighbor_dists: dict[str, np.ndarray]

    @classmethod
    def from_distances(cls, dists: Mapping[str, Iterable[float]]) -> "BallCounter":
        return cls(
            {lid: np.sort(np.asarray(list(ds), dtype=float)) for lid, ds in dists.items()}
        )

    def count(self, left_id: str, radius: float) -> int:
        dists = self.neighbor_dists.get(left_id)
        if dists is None:
            return 1
        return 1 + int(np.searchsorted(dists, radius, side="right"))


@dataclass
class ConfigStats:
    """Join outcome of a single configuration over the blocked pairs.

    ``tp`` is the sum of per-right estimated precisions, ``fp`` the sum of
    their complements, so tp + fp equals the number of joined rights.
    """

    assignments: dict[str, tuple[str, float]]
    tp: float
    fp: float


def config_stats(
    config: Configuration,
    candidates: Mapping[str, Sequence[tuple[str, float]]],
    balls: BallCounter,
) -> ConfigStats:
    """Apply one configuration to precomputed candidate distances: the
    per-right loop that ``solver.precompute_config_table`` is held to.

    ``candidates`` maps each right id to (left id, distance) pairs under
    the configuration's join function.  A right record joins the candidate
    with minimum distance at or below the threshold; an exact tie for the
    minimum joins nothing.  Per-right precision uses the ball of radius
    twice the threshold.
    """
    theta = config.threshold
    assignments: dict[str, tuple[str, float]] = {}
    tp = 0.0
    fp = 0.0
    for rid, cands in candidates.items():
        best_d = None
        best_l = None
        tied = False
        for lid, d in cands:
            if d > theta:
                continue
            if best_d is None or d < best_d:
                best_d, best_l, tied = d, lid, False
            elif d == best_d:
                tied = True
        if best_d is None or tied:
            continue
        prec = 1.0 / balls.count(best_l, 2.0 * theta)
        assignments[rid] = (best_l, prec)
        tp += prec
        fp += 1.0 - prec
    return ConfigStats(assignments, tp, max(fp, 0.0))


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


@dataclass
class DenseTable:
    """A configuration table with one row per configuration and both
    the joined left records and their precisions stored."""

    cfg_function: np.ndarray
    cfg_threshold: np.ndarray
    row: np.ndarray
    left: np.ndarray  # (n_cfg, n_right) int32, -1 for none
    prec: np.ndarray  # (n_cfg, n_right) float32


def dense_config_table(
    functions: Sequence[JoinFunction],
    thresholds: Sequence[np.ndarray],
    n_right: int,
    n_left: int,
    lr_right: np.ndarray,
    lr_left: np.ndarray,
    d_lr: np.ndarray,
    ll_a: np.ndarray,
    d_ll: np.ndarray,
) -> DenseTable:
    """Expand every (function, threshold) pair into dense per-right
    assignment and precision rows, filled in place: one row per
    configuration, one column per right record, one function at a time.  The table build that
    ``solver.precompute_config_table`` replaced, kept as its oracle (see
    ``config_table``).

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
    return DenseTable(
        cfg_function=np.repeat(np.arange(len(sizes), dtype=np.int32), sizes),
        cfg_threshold=np.concatenate([np.empty(0), *thresholds]),
        row=np.arange(sum(sizes), dtype=np.int64),
        left=left,
        prec=prec,
    )


def discretize_thresholds(distances: Sequence[float] | np.ndarray, s: int) -> np.ndarray:
    """The threshold grid of one function, as ``solver.reduce_distances``
    forms it in closed form, kept as its oracle: s ascending thresholds
    dividing [min, max] of the observed distances into equal steps; a
    degenerate range yields the single maximum value."""
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


def reduced_thresholds(reduced: ReducedDistances) -> list[np.ndarray]:
    """Per function, its ascending grid, cut to its size."""
    return [g[:n] for g, n in zip(reduced.grid, reduced.sizes.tolist())]


def loop_reduce_distances(
    pairs: BlockedPairs,
    d_lr: Sequence[np.ndarray],
    d_ll: Sequence[np.ndarray],
    weights: Sequence[float],
    s: int,
    thresholds: Sequence[np.ndarray] | None = None,
) -> ReducedDistances:
    """The per-function reduction that ``solver.reduce_distances`` replaced,
    kept as its oracle: per function one ``discretize_thresholds`` grid of
    the weighted L-R row, or ``thresholds[fi]`` when given (any ascending
    grids of at most ``s`` values), each query's unique minimum, and two
    ``searchsorted`` calls.  The tied queries are counted from the
    per-function minima: the right records of the queries with candidates
    that no function joins."""
    n_fn, n_lr = d_lr[0].shape
    n_query = len(np.bincount(pairs.query))
    slot_dtype = np.min_scalar_type(s)
    lr_all = weighted_sum(list(d_lr), weights)
    ll_all = weighted_sum(list(d_ll), weights)
    grid = np.zeros((n_fn, s))
    sizes = np.zeros(n_fn, dtype=np.int64)
    joined = np.full((n_fn, n_query), -1, dtype=np.int32)
    assign_at = np.empty((n_fn, n_query), dtype=slot_dtype)
    ball_slot = np.empty((n_fn, len(pairs.ll_a)), dtype=slot_dtype)
    rights = np.unique(pairs.lr_right)
    for fi in range(n_fn):
        lr = lr_all[fi]
        if thresholds is None:
            thetas = discretize_thresholds(lr, s)
        else:
            thetas = np.asarray(thresholds[fi], dtype=float)
        grid[fi, : len(thetas)], sizes[fi] = thetas, len(thetas)
        dmin = np.full(n_query, np.inf)
        for q in rights.tolist():
            seg = np.flatnonzero(pairs.lr_right == q)
            best = lr[seg].min()
            at = seg[lr[seg] == best]
            if len(at) == 1:
                dmin[q], joined[fi, q] = best, pairs.lr_left[at[0]]
        assign_at[fi] = np.searchsorted(thetas, dmin, side="left")
        ball_slot[fi] = np.searchsorted(2.0 * thetas, ll_all[fi], side="left")
    tied = int(np.bincount(pairs.query)[rights[(joined[:, rights] == -1).all(axis=0)]].sum())
    return ReducedDistances(grid, sizes, joined, assign_at, ball_slot, tied)


def loop_config_table(
    functions: Sequence[JoinFunction], pairs: BlockedPairs, reduced: ReducedDistances
) -> ConfigTable:
    """The per-function fill that ``solver.precompute_config_table``
    replaced, kept as its oracle: per function the thresholds starting a
    row, one ``bincount`` and cumulative sum of its balls at every
    threshold, and its rows filled from them, the joined left records
    included.  Asserts that those equal the table's derived ``left``."""
    thresholds, joined = reduced_thresholds(reduced), reduced.joined
    assign_at, ball_slot = reduced.assign_at, reduced.ball_slot
    n_query = joined.shape[1]
    n_left = len(pairs.left_ids)
    ll_a = pairs.ll_a
    sizes = [len(t) for t in thresholds]
    row_starts: list[np.ndarray] = []
    cfg_row: list[np.ndarray] = []
    n_row = 0
    for fi, s in enumerate(sizes):
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
        hits = np.bincount(ll_a * (s + 1) + ball_slot[fi], minlength=(n_left + 1) * (s + 1))
        balls = 1 + np.cumsum(hits.reshape(n_left + 1, s + 1)[:, :s], axis=1)[:, ks]
        rows = slice(r0, r0 + len(ks))
        assigned = assign_at[fi] <= ks[:, None]
        left[rows] = np.where(assigned, joined[fi], -1)
        prec[rows] = (1.0 / balls[joined[fi]]).T
        prec[rows] *= assigned
        r0 += len(ks)
    table = ConfigTable(
        functions=list(functions),
        cfg_function=np.repeat(np.arange(len(thresholds), dtype=np.int32), sizes),
        cfg_threshold=np.concatenate([np.empty(0), *thresholds]),
        row=np.concatenate([np.empty(0, dtype=np.int64), *cfg_row]),
        prec=prec,
        joined=joined,
    )
    derived = table.left
    assert derived.dtype == left.dtype and np.array_equal(derived, left)
    return table


def table_pairs(n_query, n_left, lr_right, lr_left, ll_a, ll_b=None) -> BlockedPairs:
    """Blocked pairs over query k = right record k."""
    return BlockedPairs(
        left_ids=[f"L{i}" for i in range(n_left)],
        right_ids=[f"R{k}" for k in range(n_query)],
        lr_right=np.asarray(lr_right, dtype=np.int64),
        lr_left=np.asarray(lr_left, dtype=np.int64),
        ll_a=np.asarray(ll_a, dtype=np.int64),
        ll_b=np.asarray(ll_a if ll_b is None else ll_b, dtype=np.int64),
        query=np.arange(n_query),
    )


def config_table(
    functions: Sequence[JoinFunction],
    thresholds: Sequence[np.ndarray],
    n_query: int,
    n_left: int,
    lr_right: np.ndarray,
    lr_left: np.ndarray,
    d_lr: np.ndarray,
    ll_a: np.ndarray,
    d_ll: np.ndarray,
) -> ConfigTable:
    """``solver.precompute_config_table`` over ``loop_reduce_distances`` of
    one column's matrices at weight 1, with the given ascending grids.
    Takes ``dense_config_table``'s arguments; query k stands for right
    record k."""
    pairs = table_pairs(n_query, n_left, lr_right, lr_left, ll_a)
    s = max((len(t) for t in thresholds), default=1)
    reduced = loop_reduce_distances(pairs, [d_lr], [d_ll], (1.0,), s, thresholds)
    return solver.precompute_config_table(functions, pairs, reduced)


def union_left(
    cfg_left: np.ndarray, outcome: GreedyOutcome, row: np.ndarray | None = None
) -> np.ndarray:
    """Per query k, ``cfg_left[r, k]`` at the row r of the pick that set its
    join, ``row[selected[cur_source[k]]]`` (``row`` being the search's
    configuration -> row map, the identity by default), -1 where no pick
    set it."""
    got = np.full(len(outcome.cur_source), -1, dtype=np.int32)
    k = np.flatnonzero(outcome.cur_source >= 0)
    picked = np.asarray(outcome.selected, dtype=np.int64)[outcome.cur_source[k]]
    got[k] = cfg_left[picked if row is None else row[picked], k]
    return got


def dense_greedy(cfg_prec: np.ndarray, tau: float) -> GreedyOutcome:
    """Reference greedy search: every pick recomputes each candidate's union
    tp and assigned count over the whole table.  Same profit, tie rule
    (the lowest tied configuration) and stop rule as
    ``solver.greedy_select``."""
    n_cfg, n_right = cfg_prec.shape
    cfg_assigned = cfg_prec > 0
    available = np.ones(n_cfg, dtype=bool)
    cur_prec = np.zeros(n_right, dtype=np.float32)
    cur_source = np.full(n_right, -1, dtype=np.int32)
    selected: list[int] = []
    trace: list[GreedyStep] = []
    tp_cur = 0.0
    stop_reason = "exhausted"

    while available.any():
        tp_new = np.maximum(cfg_prec, cur_prec).sum(axis=1, dtype=np.float64)
        n_assigned = (cfg_assigned | (cur_source != -1)).sum(axis=1)
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
        pick = int(np.nonzero(ties)[0][0])

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
        cur_prec = np.where(row_take, cfg_prec[pick], cur_prec)
        cur_source = np.where(row_take, slot, cur_source)
        tp_cur = float(cur_prec.sum(dtype=np.float64))

    n_joined = int((cur_source != -1).sum())
    fp_cur = max(n_joined - tp_cur, 0.0)
    return GreedyOutcome(selected, cur_prec, cur_source, tp_cur, fp_cur, stop_reason, trace)


@dataclass(frozen=True)
class IdfIndex:
    """Document frequencies over a record corpus.

    ``doc_freq[t]`` is the number of records (rows, over both input tables)
    containing token t at least once; ``corpus_size`` is the total row
    count.  Unseen tokens are smoothed to document frequency 1.
    """

    doc_freq: dict[str, int]
    corpus_size: int

    def weight(self, token: str) -> float:
        df = self.doc_freq.get(token, 1)
        return math.log(self.corpus_size / df)


def build_idf_from_values(
    values: Iterable[str], preprocess: str, tokenizer: str
) -> IdfIndex:
    """IDF statistics from raw cell values, one document per value.  Each
    distinct value is tokenized once and counts as often as it occurs."""
    copies = Counter(values)
    doc_freq: Counter = Counter()
    for v, k in copies.items():
        for t in tokenize(apply_preprocess(v, preprocess), tokenizer):
            doc_freq[t] += k
    return IdfIndex(dict(doc_freq), copies.total())


def loop_tokenize_strings(
    strings: Sequence[str], tokenizer: str
) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """Each string tokenized once: the token vocabulary, and a CSR over the
    strings of token ids and counts in ``Counter`` order.  The per-string
    loop that ``text.tokenize_strings``'s 3G array pass replaced, kept as its
    oracle."""
    vocab: dict[str, int] = {}
    tokens: list[int] = []
    counts: list[int] = []
    lengths: list[int] = []
    for s in strings:
        bag = tokenize(s, tokenizer)
        lengths.append(len(bag))
        tokens.extend([vocab.setdefault(t, len(vocab)) for t in bag])
        counts.extend(bag.values())
    sizes = np.array(lengths, dtype=np.int64)
    return vocab, sizes, np.array(tokens, dtype=np.int32), np.array(counts, dtype=np.int32)


def token_strings(vocab) -> list[str]:
    """The token strings of a ``tokenize_strings`` vocabulary: SP's as they
    are, 3G's packed codes decoded, three 21-bit fields of a code point plus
    1, where 0 is no character."""
    if not isinstance(vocab, np.ndarray):
        return list(vocab)
    mask = (1 << 21) - 1
    fields = [(c >> 42, (c >> 21) & mask, c & mask) for c in vocab.tolist()]
    return ["".join(chr(x - 1) for x in f if x) for f in fields]


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
            tokens = tokenize(s, tokenizer)
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


_CONTAIN_BASE = {"CJD": "JD", "CCD": "CD", "CDD": "DD"}


def scalar_evaluate(
    f: JoinFunction, l_value: str, r_value: str, idf: IdfIndex | None = None
) -> float:
    """One pair's distance under one join function, computed alone: the
    scalar path that ``distances.evaluate`` and ``distance_matrix`` replaced,
    kept as their oracle.  Set kinds take the pair's statistics from
    ``loop_set_stats``."""
    if l_value == "" and r_value == "":
        return 1.0
    a = apply_preprocess(l_value, f.preprocess)
    b = apply_preprocess(r_value, f.preprocess)
    if f.distance in CHAR_DISTANCES:
        return char_distance(a, b, f.distance)
    if f.weights == "IDFW" and idf is None:
        raise ValueError("IDFW weighting requires a built IdfIndex")
    stats = loop_set_stats([(a, b)], f.tokenizer, idf if f.weights == "IDFW" else None)
    prefix = "cnt" if f.weights == "EW" else "idf"
    inter, w_a, w_b = (float(stats[f"{prefix}_{side}"][0]) for side in "iab")
    kind = f.distance
    if kind in _CONTAIN_BASE:
        # the standard distance when B is contained in A (unweighted
        # multiset inclusion), otherwise exactly 1
        if not stats["contained"][0]:
            return 1.0
        kind = _CONTAIN_BASE[kind]
    if w_a <= 0.0 or w_b <= 0.0:
        return 0.0 if (w_a <= 0.0 and w_b <= 0.0) else 1.0
    if kind == "JD":
        d = 1.0 - inter / (w_a + w_b - inter)
    elif kind == "CD":
        d = 1.0 - inter / math.sqrt(w_a * w_b)
    elif kind == "DD":
        d = 1.0 - 2.0 * inter / (w_a + w_b)
    elif kind == "ID":
        d = 1.0 - inter / min(w_a, w_b)
    elif kind == "MD":
        d = 1.0 - inter / max(w_a, w_b)
    else:
        raise ValueError(f"unknown set distance {kind!r}")
    return min(1.0, max(0.0, d))


def index_by_id(
    idx: CandidateIndex,
) -> tuple[dict[str, list[tuple[str, float]]], dict[str, list[tuple[str, float]]]]:
    """The L-R and L-L candidates of an index by id: each query id, in table
    order, maps to its ranked (left id, score) list, empty when it has no
    candidate."""

    def by_id(query_ids: list[str], pairs) -> dict[str, list[tuple[str, float]]]:
        out: dict[str, list[tuple[str, float]]] = {qid: [] for qid in query_ids}
        for q, l, s in zip(pairs.query.tolist(), pairs.left.tolist(), pairs.score.tolist()):
            out[query_ids[q]].append((idx.left_ids[l], s))
        return out

    return by_id(idx.right_ids, idx.lr_pairs), by_id(idx.left_ids, idx.ll_pairs)


def _blocking_tokens(value: str) -> list[str]:
    # distinct trigrams of the lowercased value, sorted so that score
    # accumulation order (and hence float sums) is reproducible
    return sorted(tokenize(apply_preprocess(value, "L"), "3G").keys())


def loop_build_index(L: Table, R: Table, column: str, beta: float = 1.0):
    """Blocked candidate lists, one query row at a time: each row fills a
    dense score vector token by token, in sorted-token order, and sorts its
    hits by (-score, id).  The loop the batched ``blocking.build_index``
    replaced, kept as its oracle.  Returns the L-R and L-L lists by id."""
    left_values = L.column_values(column)
    right_values = R.column_values(column)
    left_ids = L.ids()
    right_ids = R.ids()

    idf = build_idf_from_values(left_values + right_values, "L", "3G")
    k = blocking_cutoff(len(left_ids), beta)

    left_tokens = [_blocking_tokens(v) for v in left_values]
    postings: dict[str, list[int]] = {}
    for pos, tokens in enumerate(left_tokens):
        for t in tokens:
            postings.setdefault(t, []).append(pos)
    posting_arrays = {t: np.array(lids, dtype=np.intp) for t, lids in postings.items()}

    n_left = len(left_ids)

    def top_candidates(tokens: list[str], skip: int = -1) -> list[tuple[str, float]]:
        scores = np.zeros(n_left)
        for t in tokens:
            arr = posting_arrays.get(t)
            if arr is not None:
                scores[arr] += idf.weight(t)
        if skip >= 0:
            scores[skip] = 0.0
        hits = np.nonzero(scores > 0.0)[0]
        ranked = sorted(
            ((float(scores[p]), left_ids[p]) for p in hits),
            key=lambda sc: (-sc[0], sc[1]),
        )
        return [(lid, score) for score, lid in ranked[:k]]

    lr = {
        rid: top_candidates(_blocking_tokens(value))
        for rid, value in zip(right_ids, right_values)
    }
    ll = {
        lid: top_candidates(tokens, skip=pos)
        for pos, (lid, tokens) in enumerate(zip(left_ids, left_tokens))
    }
    return lr, ll

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
peak memory is the larger of the two stages, not their sum.  The reduction
and the table fill both work on blocks of functions, with no loop over
single functions: a block's grids are formed in closed form, and its slots
are read off the grids' equal spacing.

All per-configuration precisions are precomputed into one array; each
greedy iteration is pure array arithmetic and touches no string data.  The
configuration table has one column per distinct query, weighted by its
count of right records, and holds precisions only: a row's joined left
records are the reduction's joins under the row's function.  It has one
row per run of consecutive thresholds of a function that join alike: a row
changes only where a query is first assigned or the ball of a joined left
record grows, so only those thresholds are filled, and the search runs over
the rows, reading each configuration's row from the table's configuration
-> row map.  The search is incremental: it keeps each row's weighted tp gain
over the current union and its weighted count of newly assigned rights, and
a pick updates them only on the queries whose union precision it raises.
Those sums are exact (precisions are float32(1/k), k <= n_left + 1, times
integer weights summing to n_right, in float64 while n_right * (n_left + 1)
< 2**29), so the search picks what a full recomputation per pick over all
rights would.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

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
    RULE_PREPROCESS,
    NegativeRule,
    learn_rule_codes,
    pairs_blocked,
    rules_of_codes,
)
from .tables import Table


# --- configuration table ----------------------------------------------------


# cells in one block of the reduction or the fill: functions x pairs or
# queries, left records x table rows, or table rows x queries.  It bounds
# each block's weighted sums and temporaries, so that they add little to
# peak memory
_BLOCK_CELLS = 1 << 16


@dataclass
class ReducedDistances:
    """What the configuration table needs of a trial's distances, per
    function: its threshold grid, per query the left record it joins at its
    minimum distance and the first threshold that assigns it, and per
    self-join pair its ball slot.  A threshold index equal to the grid's
    size stands for none.  The grids are the rows of one array, each cut to
    its size.  ``joined`` is also the configuration table's source of left
    records: a table row assigns query k the left ``joined[f, k]`` of its
    function f, or nothing."""

    grid: np.ndarray  # (n_fn, s) float64, function f's grid in grid[f, :sizes[f]]
    sizes: np.ndarray  # (n_fn,) int64, s, or 1 for a degenerate grid
    joined: np.ndarray  # (n_fn, n_query) int32 left position, -1 for none
    assign_at: np.ndarray  # (n_fn, n_query) unsigned threshold index
    ball_slot: np.ndarray  # (n_fn, n_ll) unsigned threshold index
    # right records whose query has candidates but a tied minimum under
    # every function, so joins nothing
    tied_queries: int


def weighted_sum(mats: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """``sum(w * d for w, d in zip(weights, mats))`` bit for bit, for
    distances >= 0, without its full-size temporaries: one matrix at weight
    1.0 is returned itself, and more are summed in place and capped at 1.0.
    Weights summing to 1 can round a sum of distances at 1 an ulp above it
    (0.64 + 0.16 + 0.2), which is no valid threshold."""
    if len(mats) == 1 and weights[0] == 1.0:
        return mats[0]
    out = weights[0] * mats[0]
    for w, d in zip(weights[1:], mats[1:]):
        out += w * d
    if len(mats) > 1:
        np.minimum(out, 1.0, out=out)
    return out


def _first_reaching(
    edges: np.ndarray,
    sizes: np.ndarray,
    base: np.ndarray,
    width: np.ndarray,
    d: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write to ``out`` per row f ``np.searchsorted(edges[f, :sizes[f]],
    d[f], side="left")``, for ascending edges near ``base + (j + 1) *
    width``: the index is guessed from the spacing, moved one step where an
    edge on either side contradicts it, and searched for where it is still
    wrong (degenerate or nearly degenerate grids)."""
    nb, s = edges.shape
    n = d.shape[1]
    span = s + 2
    # per row: -inf, the grid, then +inf past its size, so flat index g of
    # row f is right when ext[g] < d <= ext[g + 1]
    ext = np.full((nb, span), np.inf)
    ext[:, 0] = -np.inf
    ext[:, 1:-1] = np.where(np.arange(s) < sizes[:, None], edges, np.inf)
    flat = ext.reshape(-1)
    row_start = np.arange(0, nb * span, span)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / width
        shift = base * inv
        wild = ~(np.isfinite(inv) & np.isfinite(shift))
        inv[wild], shift[wild] = 1.0, 0.0  # any finite guess; the search decides
        # ceil((d - base) / width) - 1, as a flat index
        guess = d * inv[:, None]
        guess -= (shift + 1.0 - row_start)[:, None]
    np.ceil(guess, out=guess)
    np.maximum(guess, row_start[:, None].astype(float), out=guess)
    np.minimum(guess, (row_start + sizes)[:, None].astype(float), out=guess)
    idx = guess.astype(np.intp)
    # the edges on either side, read into guess's memory
    miss = np.take(flat, idx, out=guess, mode="clip") >= d
    miss |= d > np.take(flat[1:], idx, out=guess, mode="clip")
    if miss.any():
        miss = np.flatnonzero(miss)
        di, gi, idx_flat = d.reshape(-1)[miss], idx.reshape(-1)[miss], idx.reshape(-1)
        down = flat[gi] >= di
        gi += np.where(down, -1, 1)
        idx_flat[miss] = gi
        wrong = miss[~np.where(down, flat[gi] < di, di <= flat[gi + 1])]
        for f in set((wrong // n).tolist()):
            cols = wrong[wrong // n == f] % n
            idx[f, cols] = f * span + np.searchsorted(edges[f, : sizes[f]], d[f, cols])
    np.subtract(idx, row_start[:, None], out=out, casting="unsafe")


def reduce_distances(
    pairs: BlockedPairs,
    d_lr: Sequence[np.ndarray],
    d_ll: Sequence[np.ndarray],
    weights: Sequence[float],
    s: int,
) -> ReducedDistances:
    """Reduce the weighted sum (``weighted_sum``) of per-column
    distance matrices over ``pairs`` to the configuration table's summary,
    one block of functions at a time: the sum is formed for one block only,
    and one column at weight 1.0 is read in place.

    Function fi's grid divides [min, max] of its summed L-R row into ``s``
    equal steps, clipped to that range and ending at its maximum; a
    degenerate range gives the one value max.  It is formed for the whole
    block at once.  Per query (``lr_right`` must be sorted ascending), the
    minimum candidate distance and the left record achieving it; a query
    with no candidate, or whose minimum is tied, joins nothing.  Its
    assigning threshold is the first that reaches the minimum, and a
    self-join pair's ball slot the first whose doubled value reaches its
    distance: the pair falls in the ball of every threshold from there on.
    Both are the ``searchsorted`` indices, taken from the grid's equal
    spacing (``_first_reaching``).
    """
    if s < 1:
        raise ValueError(f"step count must be >= 1, got {s}")
    n_fn, n_lr = d_lr[0].shape
    if n_lr == 0:
        raise ValueError("no observed distances to discretize")
    n_ll = len(pairs.ll_a)
    n_query = len(np.bincount(pairs.query))
    slot_dtype = np.min_scalar_type(s)  # threshold indices 0..s
    grid = np.empty((n_fn, s))
    sizes = np.empty(n_fn, dtype=np.int64)
    joined = np.full((n_fn, n_query), -1, dtype=np.int32)
    assign_at = np.empty((n_fn, n_query), dtype=slot_dtype)
    ball_slot = np.empty((n_fn, n_ll), dtype=slot_dtype)
    rights, starts, counts = np.unique(pairs.lr_right, return_index=True, return_counts=True)
    ever_unique = np.zeros(len(rights), dtype=bool)
    pos = np.arange(n_lr, dtype=np.int32)
    steps = np.arange(1, s + 1)
    step = max(1, _BLOCK_CELLS // max(n_lr, n_ll, n_query, s + 2))
    for f0 in range(0, n_fn, step):
        fs = slice(f0, f0 + step)
        lr = weighted_sum([d[fs] for d in d_lr], weights)
        ll = weighted_sum([d[fs] for d in d_ll], weights)
        dmin = np.full((len(lr), n_query), np.inf)  # inf where the query joins nothing
        seg_min = np.minimum.reduceat(lr, starts, axis=1)
        is_min = lr == np.repeat(seg_min, counts, axis=1)
        first = np.minimum.reduceat(np.where(is_min, pos, n_lr), starts, axis=1)
        unique = np.add.reduceat(is_min, starts, axis=1, dtype=np.int32) == 1
        ever_unique |= unique.any(axis=0)
        dmin[:, rights] = np.where(unique, seg_min, np.inf)
        joined[fs, rights] = np.where(unique, pairs.lr_left[first], -1)
        # per row lo + k * ((hi - lo) / s), k = 1..s, clipped, ending at
        # hi; a degenerate row is all hi, of which one is kept
        lo, hi = seg_min.min(axis=1), lr.max(axis=1)
        width = (hi - lo) / s
        g = grid[fs]
        np.multiply(steps, width[:, None], out=g)
        g += lo[:, None]
        np.clip(g, lo[:, None], hi[:, None], out=g)
        g[:, -1] = hi
        sizes[fs] = np.where(lo == hi, 1, s)
        _first_reaching(g, sizes[fs], lo, width, dmin, assign_at[fs])
        # at most _BLOCK_CELLS pairs at a time, so the temporaries stay in cache
        chunk = max(1, _BLOCK_CELLS // len(ll))
        for c in range(0, n_ll, chunk):
            cs = slice(c, c + chunk)
            _first_reaching(2.0 * g, sizes[fs], 2.0 * lo, 2.0 * width, ll[:, cs], ball_slot[fs, cs])
    tied = int(np.bincount(pairs.query)[rights[~ever_unique]].sum())
    return ReducedDistances(grid, sizes, joined, assign_at, ball_slot, tied)


@dataclass
class ConfigTable:
    """Per-configuration precision arrays over distinct queries and
    distinct rows.

    Column k is query k.  Row i holds a join: ``prec[i, k]`` is the
    estimated precision of query k's join under the ball of radius twice
    the threshold, 0 where the row assigns query k nothing and > 0
    elsewhere.  The left record joined is that of the row's function,
    ``joined[cfg_function[c], k]`` for any configuration c of the row,
    wherever the row assigns one; ``left`` builds that table.

    Consecutive thresholds of one function often join alike, so the table
    keeps one row per run of them with equal rows: configuration c's row is
    ``row[c]``, and ``prec[row]`` is the table over all configurations.
    """

    functions: list[JoinFunction]
    cfg_function: np.ndarray  # (n_cfg,) index into functions
    cfg_threshold: np.ndarray  # (n_cfg,)
    row: np.ndarray  # (n_cfg,) int64, each configuration's row
    prec: np.ndarray  # (n_row, n_query) float32
    joined: np.ndarray  # (n_fn, n_query) int32, ReducedDistances.joined

    @property
    def n_configs(self) -> int:
        return len(self.cfg_function)

    @property
    def left(self) -> np.ndarray:
        """(n_row, n_query) int32, the left position each row joins to
        each query, -1 for none; built on each access."""
        row_function = np.empty(len(self.prec), dtype=self.cfg_function.dtype)
        row_function[self.row] = self.cfg_function
        return np.where(self.prec > 0, self.joined[row_function], -1)

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
    reduction of the distances over ``pairs``, into precision rows over the
    distinct queries, one row per run of consecutive thresholds that join
    alike, one block of functions at a time.

    Within a function, threshold k joins as threshold k - 1 does unless
    some query is first assigned at k or a self-join pair of a left record
    joined before k has slot k: a ball that grows changes its precision,
    since ``float32(1/b)`` differs for every ball size b.  Those thresholds
    start the rows.

    A precision depends only on the joined left record and the row.  Each
    self-join pair is counted in the row holding its slot, so one
    ``bincount`` and a cumulative sum per block count every left record's
    ball at every row of the block.  A pair whose slot does not start a row
    belongs to a left record that no query joins until a later row, so the
    count is exact wherever a row assigns the record.  ``float32(1/b)`` is formed
    once per ball size b, read once per (left record, row) and gathered
    into the rows.  Each block's temporaries hold about ``_BLOCK_CELLS``
    cells.
    """
    grid, sizes, joined = reduced.grid, reduced.sizes, reduced.joined
    assign_at, ball_slot = reduced.assign_at, reduced.ball_slot
    n_fn, n_query = joined.shape
    n_left = len(pairs.left_ids)
    ll_a = pairs.ll_a
    s = grid.shape[1]
    in_grid = np.arange(s) < sizes[:, None]
    fn_step = max(1, _BLOCK_CELLS // max(n_query, len(ll_a), n_left + 1, s + 1))

    # per function, the thresholds that start a row
    new = np.zeros((n_fn, s + 1), dtype=bool)  # column sizes[f]: none
    new[:, 0] = True
    for f0 in range(0, n_fn, fn_step):
        fs = slice(f0, f0 + fn_step)
        nb = len(new[fs])
        # per left record, the first threshold joining a query to it, in
        # rows of n_left + 1: a query that joins nothing (-1) lands in the
        # previous row's unread last column
        joined_at = np.repeat(sizes[fs].astype(assign_at.dtype), n_left + 1)
        at_row = np.arange(0, nb * (n_left + 1), n_left + 1)[:, None]
        np.minimum.at(joined_at, (joined[fs] + at_row).reshape(-1), assign_at[fs].reshape(-1))
        grows = ball_slot[fs] > np.take(joined_at.reshape(nb, n_left + 1), ll_a, axis=1)
        at_row = np.arange(0, nb * (s + 1), s + 1)[:, None]
        flags = new[fs].reshape(-1)
        flags[assign_at[fs] + at_row] = True
        flags[(ball_slot[fs] + at_row)[grows]] = True
    starts = new[:, :s] & in_grid
    cum = np.cumsum(starts, axis=1)  # 1 + each threshold's row in its function
    n_rows = cum[:, -1]
    first_row = np.cumsum(n_rows) - n_rows
    row = (cum + (first_row - 1)[:, None])[in_grid]

    prec = np.empty((int(n_rows.sum()), n_query), dtype=np.float32)
    # float32(1/b) for every ball size b
    recip = np.zeros(2 + (np.bincount(ll_a).max() if len(ll_a) else 0), dtype=np.float32)
    recip[1:] = 1.0 / np.arange(1, len(recip))
    end_row = first_row + n_rows
    row_cap = max(1, _BLOCK_CELLS // max(n_left, 1) - 1)
    gather_rows = max(1, _BLOCK_CELLS // max(n_query, 1))
    f0 = 0
    while f0 < n_fn:
        # the next functions whose rows fit in row_cap, at least one
        f1 = int(np.searchsorted(end_row, first_row[f0] + row_cap, side="right"))
        f1 = min(max(f1, f0 + 1), f0 + fn_step)
        fs = slice(f0, f1)
        r0, n_blk = int(first_row[f0]), int(end_row[f1 - 1] - first_row[f0])
        fn_start = first_row[fs] - r0  # each function's first row in the block
        # each threshold's row in the block, and n_blk past the grid
        row_of = np.full((f1 - f0, s + 1), n_blk)
        row_of[:, :s] = np.where(in_grid[fs], cum[fs] + (fn_start - 1)[:, None], n_blk)
        row_of = row_of.reshape(-1)
        at_row = np.arange(0, (f1 - f0) * (s + 1), s + 1)[:, None]
        # balls[l, r]: the self-join pairs of left l whose slot lies in row
        # r, plus 1 for the record itself at each function's first row,
        # less the count of the previous function there; the cumulative sum
        # along l is then its ball at every row
        key = np.take(row_of, ball_slot[fs] + at_row)
        key += ll_a * (n_blk + 1)
        balls = np.bincount(key.reshape(-1), minlength=n_left * (n_blk + 1))
        balls = balls.reshape(n_left, n_blk + 1)
        balls[:, fn_start] += 1
        per_fn = np.add.reduceat(balls, fn_start, axis=1)
        balls[:, fn_start[1:]] -= per_fn[:, :-1]
        np.cumsum(balls, axis=1, out=balls)
        # the last column, which sums pairs past every grid, is never read
        inv = np.take(recip, balls.reshape(-1), mode="clip")
        # per (function, query): its left record's first cell in inv, and
        # the row first assigning the query, n_blk for none
        left_at = np.maximum(joined[fs], 0).astype(np.intp) * (n_blk + 1)
        assigned_from = row_of[assign_at[fs] + at_row].astype(np.int32)
        fn_of_row = np.repeat(np.arange(f1 - f0), n_rows[fs])
        for a in range(0, n_blk, gather_rows):
            rows = np.arange(a, min(a + gather_rows, n_blk), dtype=np.int32)
            idx = np.take(left_at, fn_of_row[rows], axis=0)
            idx += rows[:, None]
            out = prec[r0 + a : r0 + a + len(rows)]
            np.take(inv, idx, out=out, mode="clip")
            out *= np.take(assigned_from, fn_of_row[rows], axis=0) <= rows[:, None]
        f0 = f1
    return ConfigTable(
        functions=list(functions),
        cfg_function=np.repeat(np.arange(n_fn, dtype=np.int32), sizes),
        cfg_threshold=grid[in_grid],
        row=row,
        prec=prec,
        joined=joined,
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

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class TieDraws:
    """The seeded stream greedy selection draws its tie-breaks from: for a
    non-empty sequence ``a``, ``choice(a)`` returns the element that
    ``np.random.default_rng(seed).choice(a)`` returns (numpy 2.x), call for
    call, in plain integer arithmetic, so a run imports no ``numpy.random``
    and its picks do not depend on the installed numpy's Generator.

    The seed's 32-bit words (least significant first) are mixed into four
    64-bit words by numpy's ``SeedSequence``; those seed PCG64, the 128-bit
    LCG with the XSL-RR output (O'Neill, 2014); each 64-bit output gives
    two 32-bit draws, low half first; and an index below n is drawn by
    Lemire's multiply-and-reject method (Lemire, ACM TOMACS 2019), with no
    draw for n = 1 (at n = 2**32 it takes the 32-bit draw as it is, as
    numpy does).  More than 2**32
    choices (numpy's 64-bit path, which no configuration table reaches) is
    a ``ValueError``."""

    def __init__(self, seed: int):
        seed = operator.index(seed)  # a numpy integer seed becomes a Python int
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        entropy = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
        state = _seed_sequence_state(entropy)
        init_state = state[0] << 64 | state[1]
        self._inc = (state[2] << 64 | state[3]) << 1 & _MASK128 | 1
        self._state = (self._inc + init_state) * _PCG64_MULTIPLIER + self._inc & _MASK128
        self._high: int | None = None  # the buffered high half of the last output

    def _next32(self) -> int:
        if self._high is not None:
            out, self._high = self._high, None
            return out
        self._state = self._state * _PCG64_MULTIPLIER + self._inc & _MASK128
        word = (self._state >> 64 ^ self._state) & _MASK64
        rot = self._state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        self._high = word >> 32
        return word & _MASK32

    def choice(self, a):
        n = len(a)
        if n == 0:
            raise ValueError("cannot choose from an empty sequence")
        if n > 1 << 32:
            raise ValueError(f"at most 2**32 choices, got {n}")
        if n == 1:
            return a[0]
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (1 << 32) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return a[m >> 32]


def _seed_sequence_state(entropy: list[int]) -> list[int]:
    """numpy's ``SeedSequence(entropy).generate_state(4, np.uint64)`` for
    32-bit entropy words: a pool of four 32-bit words, hashed and mixed,
    then cycled through a second hash into eight words, paired low first."""
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def greedy_select(
    cfg_prec: np.ndarray,
    weight: np.ndarray,
    tau: float,
    rng: TieDraws | np.random.Generator,
    row: np.ndarray | None = None,
) -> GreedyOutcome:
    """Iteratively add the configuration maximizing the profit of the union.

    Candidates that add no true-positive mass are never picked; the loop
    stops when none remain, when the candidate pool is exhausted, or when
    the best addition would push estimated precision down to tau.  Profit
    ties are broken by larger tp among false-positive-free candidates, then
    by ``rng.choice``: a run passes its ``TieDraws``, and a numpy
    ``Generator`` of the same seed draws the same configurations.

    Column k of the table is a query standing for ``weight[k]`` right
    records, which it assigns alike (the ConfigTable columns); the search
    equals the one over the table with each query repeated that many times.
    ``cfg_prec[i, k]`` is > 0 exactly where row i assigns query k: a
    union's per-query precision is then the elementwise maximum of its
    picks' rows.  The returned ``cur_*`` arrays are per query;
    ``selected[cur_source[k]]`` is the configuration whose pick set query
    k's join (the caller knows which left record it joins k to).

    Configuration c's row of the table is ``row[c]`` (``ConfigTable.row``;
    one configuration per row by default), and the search equals the one
    over the table expanded to ``cfg_prec[row]``, one row per
    configuration.  A row's configurations tie at every step, and once one
    is picked the others add no tp, so at most one configuration of a row
    is picked; a tie draws ``rng.choice`` over the configurations whose row
    ties, ascending, which is the array the expanded search draws from.
    ``selected`` and the trace hold configuration indices, and the search
    is "exhausted" only once every configuration is picked.  A ``row`` that
    is not 1-D integers, holds a value outside ``[0, n_row)`` or leaves a
    row with no configuration is a ``ValueError``.

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
    n_row, n_col = cfg_prec.shape
    row = np.arange(n_row) if row is None else np.asarray(row)
    if row.ndim != 1 or not np.issubdtype(row.dtype, np.integer):
        raise ValueError(f"row map must be 1-D integers, got shape {row.shape} of {row.dtype}")
    if len(row) and (row.min() < 0 or row.max() >= n_row):
        raise ValueError(f"row map values must lie in [0, {n_row}), got {row.min()}..{row.max()}")
    if n_row and np.bincount(row, minlength=n_row).min() == 0:
        raise ValueError("row map leaves a table row with no configuration")
    n_cfg = len(row)
    weight_f = np.asarray(weight, dtype=np.float64)
    available = np.ones(n_row, dtype=bool)  # rows none of whose configurations is picked
    cur_prec = np.zeros(n_col, dtype=np.float32)
    cur_source = np.full(n_col, -1, dtype=np.int32)
    selected: list[int] = []
    trace: list[GreedyStep] = []
    tp_cur = 0.0
    n_cur = 0
    gain = np.einsum("ck,k->c", cfg_prec, weight_f)
    cover = np.einsum("ck,k->c", cfg_prec > 0, weight)
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
        tied = np.flatnonzero(ties[row])  # the tied rows' configurations
        config = int(rng.choice(tied))  # no draw for a single tied row
        pick = int(row[config])

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
            opened = cur_source[cols] == -1  # columns the pick newly assigns
            # prec > 0 iff assigned
            cover -= np.einsum("ck,k->c", block[:, opened] > 0, weight[cols[opened]])
            # max(0, p - old) - max(0, p - new) = max(0, min(p, new) - old)
            lost = np.minimum(block, cfg_prec[pick, cols], dtype=np.float64)
            lost -= cur_prec[cols]
            np.maximum(lost, 0.0, out=lost)
            gain -= np.einsum("ck,k->c", lost, weight_f[cols])
        cur_prec[taken] = cfg_prec[pick, taken]
        cur_source[taken] = slot
        tp_cur, n_cur = tp_pick, int(n_assigned[pick])

    fp_cur = max(n_cur - tp_cur, 0.0)
    return GreedyOutcome(selected, cur_prec, cur_source, tp_cur, fp_cur, stop_reason, trace)


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
    column_rules: Sequence[tuple[object, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[BlockedPairs, int]:
    """Drop cross-table pairs matching a learned negative rule of any column.

    ``column_rules`` holds, per column, the SP tokenization of its string
    table (``ColumnStrings.tokens``), the rule-preprocessed string ids of the
    left records and of the queries ``lr_right`` indexes, and the codes of
    that column's rules (``negative_rules.learn_rule_codes``).
    """
    column_rules = [c for c in column_rules if len(c[3])]
    if not column_rules or len(pairs.lr_right) == 0:
        return pairs, 0
    blocked = np.zeros(len(pairs.lr_right), dtype=bool)
    for words, left, query, codes in column_rules:
        # once per distinct (left string, query string) pair
        n = len(words.sizes)
        distinct, inverse = np.unique(
            left[pairs.lr_left] * n + query[pairs.lr_right], return_inverse=True
        )
        a, b = np.divmod(distinct, n)
        blocked |= pairs_blocked(words, codes, a, b)[inverse]
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
    rng: TieDraws | np.random.Generator,
    column_weights: tuple[float, ...] = (1.0,),
    columns: tuple[str, ...] = (),
) -> SolveResult:
    """Precomputation and greedy selection, given the reduction
    (``reduce_distances``) of the distances over the blocked pairs of
    distinct queries; every right record gets its query's assignment.
    ``rng`` draws greedy's tie-breaks (a trial's ``TieDraws``).  The
    "precompute" timing is the table fill's; the caller adds the
    reduction's."""
    t0 = time.perf_counter()
    table = precompute_config_table(functions, pairs, reduced)
    t1 = time.perf_counter()
    weight = np.bincount(pairs.query)  # right records per query
    outcome = greedy_select(table.prec, weight, tau, rng, table.row)
    t2 = time.perf_counter()

    configs = tuple(table.configuration(c) for c in outcome.selected)
    solution = Solution(configs, column_weights, columns)
    assignments: dict[str, Assignment] = {}
    # each query's left record, joined by the function of the pick that set it
    query_left = np.full(len(outcome.cur_source), -1, dtype=np.int64)
    set_by = np.flatnonzero(outcome.cur_source >= 0)
    picked = np.asarray(outcome.selected, dtype=np.int64)
    fn = table.cfg_function[picked[outcome.cur_source[set_by]]]
    query_left[set_by] = reduced.joined[fn, set_by]
    cur_left = query_left[pairs.query]
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
    if reduced.tied_queries:
        warnings.append(
            f"{reduced.tied_queries} right records have candidates but a tied minimum "
            "distance under every join function, and join nothing"
        )
    return SolveResult(
        solution=solution,
        result=JoinResult(assignments),
        tp=outcome.tp,
        fp=outcome.fp,
        estimated_precision=outcome.tp / total if total > 0 else 1.0,
        estimated_recall=outcome.tp,
        warnings=warnings,
        timings={"precompute": t1 - t0, "greedy": t2 - t1},
        pair_counts={"config_rows": len(table.prec), "tied_queries": reduced.tied_queries},
        greedy=outcome,
    )


@dataclass
class PreparedColumns:
    """Blocked pairs of one column set's distinct queries, after negative
    rules, with each column's rules and distance matrices over those
    pairs.  A column's two matrices are column slices of one matrix.  The
    column search empties them once the set's last trial has reduced
    them."""

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


def _negative_rules(
    pairs: BlockedPairs,
    columns: tuple[str, ...],
    values: dict[str, tuple[list[str], list[str]]],
    query_values: dict[str, list[str]],
    table: Callable[[str], ColumnStrings],
) -> tuple[BlockedPairs, dict[str, set[NegativeRule]]]:
    """Per column, the rules learned from the self-join pairs over the SP
    token ids of its string table (``table(column)``), and the cross-table
    pairs no rule of any column drops."""
    if len(pairs.ll_a) == 0:
        return pairs, {c: set() for c in columns}
    rules: dict[str, set[NegativeRule]] = {}
    column_rules = []
    for c in columns:
        words = table(c).tokens("SP")
        left = table(c).string_ids(values[c][0], RULE_PREPROCESS)
        codes = learn_rule_codes(words, left[pairs.ll_a], left[pairs.ll_b])
        rules[c] = rules_of_codes(words, codes)
        query = table(c).string_ids(query_values[c], RULE_PREPROCESS)
        column_rules.append((words, left, query, codes))
    return filter_lr_by_rules(pairs, column_rules)[0], rules


def prepare_columns(
    L: Table,
    R: Table,
    columns: tuple[str, ...],
    functions: Sequence[JoinFunction],
    beta: float = 1.0,
    use_negative_rules: bool = True,
    tables: dict[str, ColumnStrings] | None = None,
    final: bool = False,
) -> PreparedColumns:
    """Blocking on the columns' joined values, per-column negative rules
    filtering the cross-table pairs, and per-column distances.

    After blocking, right records with equal raw values in ``columns`` are
    collapsed into distinct queries (``group_queries``), and the rules and
    L-R distances read each query's first record.  Every step reads one
    ``ColumnStrings`` per column, of its values in both tables, every
    record's copy included (the IDF corpus), with blocking's strings and the
    rules' when they run.  A single column blocks on its table's 3G pass; a
    column set blocks on its joined values, and a later step builds its
    tables.  The rules run over the SP token ids: learned from the self-join
    pairs, and tested once per distinct cross-table string pair.  Each column's L-R and L-L
    distances are then one ``distance_matrix`` call over the L-R pairs
    followed by the L-L pairs, of which ``d_lr`` and ``d_ll`` are column
    slices.

    ``tables`` maps columns to the string tables of a search over the same
    tables and functions; a column it lacks gets its table built here and
    added to it.  A table remembers the rows computed over it, so a value
    pair a previous call over it computed is not computed again.  With
    ``final`` no later column set reads ``tables``: each column's table is
    removed from it right after that column's distance call, so it is freed
    before the next column's call.  Without ``tables`` the tables are this
    call's own, and freed alike.
    """
    values = {c: (L.column_values(c), R.column_values(c)) for c in columns}
    timings: dict[str, float] = {}
    if tables is None:
        tables, final = {}, True
    # blocking's strings, and the rules' when they run: the flag is fixed for
    # a search, so every table shared across its column sets holds them alike
    options = ("L", RULE_PREPROCESS) if use_negative_rules else ("L",)

    def table(c: str) -> ColumnStrings:
        if c not in tables:
            lvals, rvals = values[c]
            tables[c] = ColumnStrings(functions, lvals + rvals, options=options)
        return tables[c]

    t0 = time.perf_counter()
    one_column = table(columns[0]) if len(columns) == 1 else None
    pairs = flatten_index(build_index(L, R, columns, beta, one_column))
    pairs, first = group_queries(pairs, list(zip(*(values[c][1] for c in columns))))
    query_values = {c: [values[c][1][i] for i in first.tolist()] for c in columns}
    timings["blocking"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rules: dict[str, set[NegativeRule]] = {}
    blocked_pairs = pairs.record_pairs()
    if use_negative_rules:
        pairs, rules = _negative_rules(pairs, columns, values, query_values, table)
    timings["negative_rules"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    d_lr: dict[str, np.ndarray] = {}
    d_ll: dict[str, np.ndarray] = {}
    n_lr = len(pairs.lr_right)
    if n_lr > 0:
        for c in columns:
            lvals = values[c][0]
            lr = value_pairs((lvals, query_values[c]), (pairs.lr_left, pairs.lr_right))
            ll = value_pairs((lvals, lvals), (pairs.ll_a, pairs.ll_b))
            d = distance_matrix(functions, lr + ll, table(c))
            d_lr[c], d_ll[c] = d[:, :n_lr], d[:, n_lr:]
            if final:
                del tables[c]
    if final:
        # tables built for the rules alone, with no cross-table pair left
        for c in columns:
            tables.pop(c, None)
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

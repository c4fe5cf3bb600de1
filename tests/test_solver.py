import math
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzyjoin.multicolumn as multicolumn
import fuzzyjoin.solver as solver
from fuzzyjoin import (
    JoinFunction,
    add_random_column,
    greedy_select,
    enumerate_function_space,
    generate_disjoint_tables,
    generate_synthetic,
    make_table,
    solve,
    solve_multi,
)
from fuzzyjoin import blocking, distances, text
from fuzzyjoin.functions import SPACE_PRESETS, dump_solution
from fuzzyjoin.solver import precompute_config_table, prepare_columns, reduce_distances
from fuzzyjoin.tables import Record, Table
from fuzzyjoin.text import apply_preprocess, tokenize_strings
from conftest import (
    config_table,
    dense_config_table,
    dense_greedy,
    discretize_thresholds,
    loop_config_table,
    loop_reduce_distances,
    make_random_instance,
    oracle_profit,
    oracle_union,
    reduced_thresholds,
    repeat_queries,
    table_pairs,
    union_left,
)


class TestDiscretize:
    def test_unit_range_four_steps(self):
        got = discretize_thresholds([0.0, 1.0], 4)
        assert np.allclose(got, [0.25, 0.5, 0.75, 1.0])

    def test_degenerate_range(self):
        got = discretize_thresholds([0.3, 0.3, 0.3], 5)
        assert list(got) == [0.3]

    def test_fifty_steps_end_at_max(self):
        got = discretize_thresholds([0.1, 0.6], 50)
        assert len(got) == 50
        assert got[-1] == 0.6
        assert got[0] == pytest.approx(0.11)
        assert np.allclose(np.diff(got), 0.01)

    def test_errors(self):
        with pytest.raises(ValueError):
            discretize_thresholds([], 5)
        with pytest.raises(ValueError):
            discretize_thresholds([0.5], 0)


# --- configuration table vs the dense oracle ----------------------------------


BLOCKS = [1, solver._BLOCK_CELLS]


def table_args(n_left, n_right, lr, ll, thresholds):
    """``config_table``'s arguments from pair lists: ``lr`` holds
    (right, left, distance per function) sorted by right, ``ll`` holds
    (left, neighbour, distance per function) sorted by left."""
    n_fn = len(thresholds)
    fns = [JoinFunction("L", "NONE", "NONE", "ED")] * n_fn

    def dists(pairs):
        return np.array([p[2] for p in pairs], dtype=float).reshape(len(pairs), n_fn).T

    return (
        fns,
        [np.array(t, dtype=float) for t in thresholds],
        n_right,
        n_left,
        np.array([p[0] for p in lr], dtype=np.int64),
        np.array([p[1] for p in lr], dtype=np.int64),
        dists(lr),
        np.array([p[0] for p in ll], dtype=np.int64),
        dists(ll),
    )


def assert_table_matches_dense(args, block):
    """The distinct-row table, expanded to one row per configuration,
    equals the dense oracle bit for bit, one column per query; each row
    holds one run of consecutive thresholds of one function, and a
    function's neighbouring rows differ."""
    with mock.patch.object(solver, "_BLOCK_CELLS", block):
        table = config_table(*args)
    want = dense_config_table(*args)
    for name in ("left", "prec"):
        got, ref = getattr(table, name)[table.row], getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name
    assert table.row.dtype == np.int64 and len(table.row) == table.n_configs
    step = np.diff(table.row)
    assert table.row[:1].tolist() in ([], [0]) and set(step.tolist()) <= {0, 1}
    assert len(table.left) == len(table.prec)
    assert (np.bincount(table.row, minlength=len(table.prec)) > 0).all()
    same_function = np.diff(table.cfg_function) == 0
    assert (step[~same_function] == 1).all()  # no row spans two functions
    for r in table.row[1:][same_function & (step == 1)]:
        assert not (
            np.array_equal(table.left[r], table.left[r - 1])
            and np.array_equal(table.prec[r], table.prec[r - 1])
        )
    assert table.cfg_function.tobytes() == want.cfg_function.tobytes()
    assert table.cfg_threshold.tobytes() == want.cfg_threshold.tobytes()
    return table


@st.composite
def table_cases(draw):
    """Small blocked instances over a few distance values: rights repeating
    another right's candidates and distances, tied minima, rights without
    candidates, 1-threshold grids, self-join distances exactly twice a
    threshold, no self-join pairs and lefts without neighbours."""
    n_left = draw(st.integers(1, 5))
    n_fn = draw(st.integers(1, 3))
    dist = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0])
    cand_list = st.lists(
        st.tuples(st.integers(0, n_left - 1), st.lists(dist, min_size=n_fn, max_size=n_fn)),
        max_size=4,
        unique_by=lambda c: c[0],
    )
    pool = draw(st.lists(cand_list, min_size=1, max_size=3))
    rights = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    lr = [(r, l, d) for r, i in enumerate(rights) for l, d in pool[i]]
    ll = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_left - 1),
                st.integers(0, n_left - 1),
                st.lists(dist, min_size=n_fn, max_size=n_fn),
            ),
            max_size=10,
        )
    )
    ll = sorted((a, b, d) for a, b, d in ll if a != b)
    thetas = st.lists(st.sampled_from([0.05, 0.1, 0.15, 0.25, 0.5, 1.0]), min_size=1, max_size=4)
    thresholds = [sorted(draw(thetas)) for _ in range(n_fn)]
    return table_args(n_left, len(rights), lr, ll, thresholds)


@given(table_cases(), st.sampled_from(BLOCKS))
def test_table_matches_dense_oracle(args, block):
    assert_table_matches_dense(args, block)


@given(table_cases(), st.sampled_from(BLOCKS))
def test_table_over_distinct_queries_matches_records(args, block):
    # rights with the same candidates and distances given once, as one
    # query each, and mapped back to the records: the same table
    fns, thresholds, n_right, n_left, lr_right, lr_left, d_lr, ll_a, d_ll = args
    codes = {}  # each record's candidates and distances -> its query
    query = np.array(
        [
            codes.setdefault((lr_left[lr_right == r].tobytes(), d_lr[:, lr_right == r].tobytes()), len(codes))
            for r in range(n_right)
        ],
        dtype=np.int64,
    )
    rep = np.unique(query, return_index=True)[1]
    keep = np.isin(lr_right, rep)
    grouped = (
        fns, thresholds, len(rep), n_left, query[lr_right[keep]], lr_left[keep],
        d_lr[:, keep], ll_a, d_ll,
    )
    with mock.patch.object(solver, "_BLOCK_CELLS", block):
        want = config_table(*args)
        got = config_table(*grouped)
    for name in ("row", "left", "prec", "cfg_function", "cfg_threshold"):
        a, b = getattr(got, name), getattr(want, name)
        if name in ("left", "prec"):
            a = a[:, query]
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


D2 = [0.1, 0.3]  # one distance per function
TABLE_CASES = {
    # rights 0, 1 and 3 have the same candidates and distances
    "repeated-rights": (
        3, 4,
        [(0, 0, D2), (0, 1, [0.2, 0.2]), (1, 0, D2), (1, 1, [0.2, 0.2]),
         (2, 2, D2), (3, 0, D2), (3, 1, [0.2, 0.2])],
        [(0, 1, [0.2, 0.4]), (1, 2, [0.1, 0.1])],
        [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],
    ),
    # right 0 ties under the first function only
    "tied-minima": (
        3, 2,
        [(0, 0, [0.2, 0.1]), (0, 1, [0.2, 0.3]), (1, 2, [0.2, 0.2])],
        [(0, 1, [0.3, 0.3])],
        [[0.2, 0.4], [0.2, 0.4]],
    ),
    "rights-without-candidates": (
        2, 5, [(1, 0, D2), (3, 1, D2)], [(0, 1, [0.2, 0.6])], [[0.1, 0.5], [0.3, 0.5]],
    ),
    "one-threshold-grid": (
        2, 3, [(0, 0, D2), (1, 1, [0.3, 0.1]), (2, 0, [0.3, 0.3])],
        [(0, 1, [0.6, 0.2])], [[0.3], [0.3]],
    ),
    "no-self-join-pairs": (
        3, 3, [(0, 0, D2), (1, 2, [0.2, 0.2]), (2, 1, D2)], [], [[0.1, 0.3], [0.3]],
    ),
    # left 2 is joined but has no self-join neighbour
    "left-without-neighbours": (
        3, 3, [(0, 2, D2), (1, 0, D2), (2, 2, [0.0, 0.0])],
        [(0, 1, [0.2, 0.2]), (1, 0, [0.1, 0.6])], [[0.1, 0.3], [0.3, 0.5]],
    ),
    "no-rights": (2, 0, [], [(0, 1, D2)], [[0.1, 0.5], [0.3]]),
    # every self-join pair lies past both grids: their counts pile up past
    # the last row of a block of both functions, which nothing reads
    "pairs-past-every-grid": (
        2, 1, [(0, 0, D2)], [(0, 1, [0.9, 0.9]), (1, 0, [0.9, 0.9])], [[0.1, 0.3], [0.1, 0.3]],
    ),
    # no right is first assigned at 0.15 or 0.2, and no joined ball grows
    # before 0.6 / 2: one row for 0.1-0.2 and one for 0.25-0.3
    "collapsed-thresholds": (
        2, 2, [(0, 0, [0.1]), (1, 1, [0.25])], [(0, 1, [0.9])],
        [[0.1, 0.15, 0.2, 0.25, 0.3]],
    ),
    # left 0's ball grows at 0.25 (0.5 / 2) with no new assignment, which
    # starts a row; left 2's ball grows at 0.2, before any right joins it,
    # which does not; right 1 joins left 2 at 0.3
    "ball-growth-split": (
        3, 2, [(0, 0, [0.1]), (1, 2, [0.3])], [(0, 1, [0.5]), (2, 1, [0.3])],
        [[0.1, 0.2, 0.25, 0.3]],
    ),
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_table_edge_cases(case, block):
    table = assert_table_matches_dense(table_args(*TABLE_CASES[case]), block)
    if case == "repeated-rights":  # each right its own query
        assert table.left.shape[1] == 4
        for name in ("left", "prec"):
            got = getattr(table, name)
            assert (got[:, 0] == got[:, 1]).all() and (got[:, 0] == got[:, 3]).all()
    if case == "rights-without-candidates":
        assert table.left.shape[1] == 5
        assert (table.left[:, [0, 2, 4]] == -1).all()
    if case == "no-rights":  # one row per function
        assert table.left.shape == (2, 0)
        assert table.n_configs == 3
    if case == "collapsed-thresholds":
        assert table.row.tolist() == [0, 0, 0, 1, 1]
    if case == "ball-growth-split":
        assert table.row.tolist() == [0, 0, 1, 2]


@pytest.mark.parametrize("block", BLOCKS)
def test_table_with_wide_grid(block):
    # 300 thresholds: slots beyond 255, and self-join pairs beyond every
    # radius, in slot 300
    rng = np.random.default_rng(7)
    n_left, n_right, n_fn = 6, 12, 2
    lr = sorted(
        (r, int(l), list(rng.integers(0, 600, size=n_fn) / 600))
        for r in range(n_right)
        for l in rng.choice(n_left, size=2, replace=False)
    )
    ll = sorted(
        (a, b, list(rng.integers(0, 1300, size=n_fn) / 600))
        for a in range(n_left)
        for b in range(n_left)
        if a != b
    )
    d_lr = np.array([d for _, _, d in lr]).T
    thresholds = [discretize_thresholds(row, 300) for row in d_lr]
    table = assert_table_matches_dense(
        table_args(n_left, n_right, lr, ll, thresholds), block
    )
    assert table.n_configs == 600 and len(table.left) < 600


# --- blocked reduction and fill vs the per-function loops ---------------------


UNIT = st.floats(0.0, 1.0)


@st.composite
def reduction_cases(draw):
    """Blocked pairs and one or two columns of distances: per function all
    equal L-R distances (a degenerate grid), distances 0-3 ulp apart, a few
    values on a quarter grid, or any; self-join distances on a grid value,
    on twice one, or any.  Queries without candidates and tied minima give
    infinite minima; s = 1 gives one-threshold grids and s = 300 uint16
    slots."""
    n_fn, n_left, n_query = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    s = draw(st.sampled_from([1, 2, 4, 7, 50, 300]))
    lefts = st.sets(st.integers(0, n_left - 1), max_size=4)
    lr = [(q, l) for q in range(n_query) for l in sorted(draw(lefts))] or [(0, 0)]
    ll = sorted(draw(st.lists(st.tuples(st.integers(0, n_left - 1), st.integers(0, n_left - 1)), max_size=12)))
    d_lr = np.empty((n_fn, len(lr)))
    d_ll = np.empty((n_fn, len(ll)))
    for fi in range(n_fn):
        kind = draw(st.sampled_from(["equal", "ulp", "quarter", "any"]))
        if kind == "equal":
            d_lr[fi] = draw(UNIT)
        elif kind == "ulp":
            x = draw(st.floats(0.0, 0.99))
            ulps = [x]
            for _ in range(3):
                ulps.append(np.nextafter(ulps[-1], 2.0))
            d_lr[fi] = draw(st.lists(st.sampled_from(ulps), min_size=len(lr), max_size=len(lr)))
        else:
            values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) if kind == "quarter" else UNIT
            d_lr[fi] = draw(st.lists(values, min_size=len(lr), max_size=len(lr)))
        thetas = discretize_thresholds(d_lr[fi], s)
        on_grid = st.sampled_from([*thetas.tolist(), *(2.0 * thetas).tolist()])
        d_ll[fi] = draw(st.lists(st.one_of(on_grid, UNIT), min_size=len(ll), max_size=len(ll)))
    pairs = table_pairs(
        n_query, n_left, [q for q, _ in lr], [l for _, l in lr], [a for a, _ in ll], [b for _, b in ll]
    )
    if draw(st.booleans()):
        return pairs, [d_lr], [d_ll], (1.0,), s
    # a second column: the weighted sum capped at 1.0
    other_lr = np.array(draw(st.lists(UNIT, min_size=d_lr.size, max_size=d_lr.size))).reshape(d_lr.shape)
    other_ll = np.array(draw(st.lists(UNIT, min_size=d_ll.size, max_size=d_ll.size))).reshape(d_ll.shape)
    return pairs, [d_lr, other_lr], [d_ll, other_ll], draw(st.sampled_from([(0.64, 0.36), (0.9, 0.1)])), s


BLOCK_SIZES = st.sampled_from([1, 2, 7, 64, solver._BLOCK_CELLS])


def assert_same_reduction(got, want):
    got_t, want_t = reduced_thresholds(got), reduced_thresholds(want)
    assert len(got_t) == len(want_t)
    for a, b in zip(got_t, want_t):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for name in ("sizes", "joined", "assign_at", "ball_slot"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.tied_queries == want.tied_queries


def assert_same_table(got, want):
    for name in ("cfg_function", "cfg_threshold", "row", "prec"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.joined is want.joined


@given(reduction_cases(), BLOCK_SIZES)
def test_blocked_reduction_matches_loop_oracle(case, block):
    pairs, d_lr, d_ll, weights, s = case
    want = loop_reduce_distances(pairs, d_lr, d_ll, weights, s)
    with mock.patch.object(solver, "_BLOCK_CELLS", block):
        got = reduce_distances(pairs, d_lr, d_ll, weights, s)
    assert_same_reduction(got, want)


@given(reduction_cases(), BLOCK_SIZES)
def test_blocked_fill_matches_loop_oracle(case, block):
    pairs, d_lr, d_ll, weights, s = case
    reduced = loop_reduce_distances(pairs, d_lr, d_ll, weights, s)
    fns = [JoinFunction("L", "NONE", "NONE", "ED")] * len(reduced.sizes)
    want = loop_config_table(fns, pairs, reduced)
    with mock.patch.object(solver, "_BLOCK_CELLS", block):
        got = precompute_config_table(fns, pairs, reduced)
    assert_same_table(got, want)


@given(table_cases(), BLOCK_SIZES)
def test_blocked_fill_matches_loop_oracle_on_given_grids(args, block):
    # grids of any ascending values and sizes, queries without candidates,
    # no self-join pairs and no rights at all
    fns, thresholds, n_query, n_left, lr_right, lr_left, d_lr, ll_a, d_ll = args
    pairs = table_pairs(n_query, n_left, lr_right, lr_left, ll_a)
    s = max(len(t) for t in thresholds)
    reduced = loop_reduce_distances(pairs, [d_lr], [d_ll], (1.0,), s, thresholds)
    want = loop_config_table(fns, pairs, reduced)
    with mock.patch.object(solver, "_BLOCK_CELLS", block):
        got = precompute_config_table(fns, pairs, reduced)
    assert_same_table(got, want)


def test_reduction_without_cross_table_pairs_raises():
    # no L-R distance to discretize, in the blocked reduction as in the loop
    pairs = table_pairs(2, 2, [], [], [0], [1])
    d_lr, d_ll = np.empty((3, 0)), np.full((3, 1), 0.5)
    for reduce in (reduce_distances, loop_reduce_distances):
        with pytest.raises(ValueError, match="no observed distances"):
            reduce(pairs, [d_lr], [d_ll], (1.0,), 5)


def test_slots_of_nearly_degenerate_grids():
    # grids 1-3 ulp wide put many thresholds on one value and the spacing
    # guess far from the index: the searched fallback gives searchsorted's
    x = 0.3
    lr = np.array([[x, np.nextafter(x, 1.0)], [x, np.nextafter(np.nextafter(x, 1.0), 1.0)]])
    ll = np.array([[x, 2 * x, np.nextafter(2 * x, 1.0), 0.0], [2 * x, 1.0, x, np.nextafter(2 * x, 0.0)]])
    pairs = table_pairs(2, 2, [0, 1], [0, 1], [0, 0, 1, 1], [1, 1, 0, 0])
    for s in (1, 3, 50, 300):
        assert_same_reduction(
            reduce_distances(pairs, [lr], [ll], (1.0,), s),
            loop_reduce_distances(pairs, [lr], [ll], (1.0,), s),
        )


# --- greedy vs exhaustive oracle ----------------------------------------------


def oracle_step(cfg_left, cfg_prec, prefix, tau):
    """One exhaustive reference step: recompute every remaining candidate's
    union from scratch, keep the tp-increasing ones, return the argmax-profit
    set (None when the algorithm must stop here)."""
    n_cfg, n_right = cfg_left.shape
    rows_now = [(cfg_left[c], cfg_prec[c]) for c in prefix]
    tp_now, _, _, _ = oracle_union(rows_now, n_right)
    entries = []
    for c in range(n_cfg):
        if c in prefix:
            continue
        tp, fp, _, _ = oracle_union(rows_now + [(cfg_left[c], cfg_prec[c])], n_right)
        if tp > tp_now:
            entries.append((oracle_profit(tp, fp), tp, fp, c))
    if not entries:
        return None  # no candidate adds true-positive mass
    best = max(p for p, _, _, _ in entries)
    arg = [e for e in entries if e[0] == best]
    if math.isinf(best):
        best_tp = max(tp for _, tp, _, _ in arg)
        arg = [e for e in arg if e[1] == best_tp]
    # equal profit implies equal precision, so the stop decision does not
    # depend on which tied candidate is picked
    _, tp, fp, _ = arg[0]
    if tp / (tp + fp) <= tau:
        return None  # best addition would breach the precision target
    return {c for _, _, _, c in arg}


@pytest.mark.parametrize("seed", range(10))
def test_greedy_matches_exhaustive_argmax(seed):
    rng = np.random.default_rng(seed)
    cfg_left, cfg_prec = make_random_instance(rng, dyadic=True)
    tau = float(rng.choice([0.5, 0.7, 0.9]))

    ones = np.ones(cfg_left.shape[1], np.int64)
    outcome = greedy_select(cfg_prec, ones, tau)
    # verify each pick along the engine's own path, then the stop itself
    for i, pick in enumerate(outcome.selected):
        argmax = oracle_step(cfg_left, cfg_prec, outcome.selected[:i], tau)
        assert argmax is not None
        assert pick in argmax
    if len(outcome.selected) < cfg_left.shape[0]:
        assert oracle_step(cfg_left, cfg_prec, outcome.selected, tau) is None
    # final union bookkeeping agrees with a from-scratch reduction
    tp, fp, left, prec = oracle_union(
        [(cfg_left[c], cfg_prec[c]) for c in outcome.selected], cfg_left.shape[1]
    )
    assert outcome.tp == pytest.approx(tp, abs=1e-9)
    assert outcome.fp == pytest.approx(fp, abs=1e-9)
    assert union_left(cfg_left, outcome).tolist() == left
    if outcome.selected:
        assert outcome.precision > tau


@pytest.mark.parametrize("seed", range(5))
def test_greedy_tp_strictly_increases(seed):
    rng = np.random.default_rng(100 + seed)
    cfg_left, cfg_prec = make_random_instance(rng, dyadic=True)
    ones = np.ones(cfg_left.shape[1], np.int64)
    outcome = greedy_select(cfg_prec, ones, 0.5)
    tps = []
    for i in range(len(outcome.selected)):
        tp, _, _, _ = oracle_union(
            [(cfg_left[c], cfg_prec[c]) for c in outcome.selected[: i + 1]],
            cfg_left.shape[1],
        )
        tps.append(tp)
    assert all(b > a for a, b in zip(tps, tps[1:]))


def test_greedy_reproducible():
    rng = np.random.default_rng(42)
    cfg_left, cfg_prec = make_random_instance(rng, n_cfg=32, n_right=20)
    ones = np.ones(cfg_left.shape[1], np.int64)
    a = greedy_select(cfg_prec, ones, 0.6)
    b = greedy_select(cfg_prec, ones, 0.6)
    assert a.selected == b.selected


def test_greedy_breaks_a_tie_of_identical_rows_by_the_lower_configuration():
    # configurations 1 and 2 join alike; 0 adds less tp and loses
    prec = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], dtype=np.float32)
    ones = np.ones(3, np.int64)
    got = greedy_select(prec, ones, 0.5)
    assert got.selected == [1] and got.stop_reason == "no_gain"
    assert dense_greedy(prec, 0.5).selected == [1]


def test_greedy_breaks_a_profit_tie_of_different_rows_by_the_lower_index():
    # rows 1 and 2 each join two queries at precision 0.5 (profit 1) but
    # different ones; row 0 joins one at 0.25 (profit 1/3)
    prec = np.array(
        [[0.25, 0, 0, 0, 0], [0, 0.5, 0.5, 0, 0], [0, 0, 0, 0.5, 0.5]], dtype=np.float32
    )
    ones = np.ones(5, np.int64)
    got = greedy_select(prec, ones, 0.1)
    assert got.selected[0] == 1
    assert np.flatnonzero(got.cur_source == 0).tolist() == [1, 2]
    # with rows 1 and 2 swapped, row 1 is still picked first, now joining
    # queries 3 and 4
    swapped = greedy_select(prec[[0, 2, 1]], ones, 0.1)
    assert swapped.selected[0] == 1
    assert np.flatnonzero(swapped.cur_source == 0).tolist() == [3, 4]


def test_greedy_does_not_recompute_distances():
    # precompute and greedy work from the prepared distance matrices alone
    L, R, _ = generate_synthetic(n_left=30, seed=7, unmatched_rate=0.2)
    fns = enumerate_function_space()[:12]
    prep = prepare_columns(L, R, ("name",), fns)

    def forbidden(*args, **kwargs):
        raise AssertionError("distance_matrix called after preparation")

    with mock.patch.object(solver, "distance_matrix", forbidden):
        reduced = reduce_distances(prep.pairs, [prep.d_lr["name"]], [prep.d_ll["name"]], (1.0,), 10)
        res = solver.solve_from_distances(fns, prep.pairs, reduced, 0.8)
    assert res.solution.configs


# --- incremental greedy vs the dense loop ------------------------------------


def assert_same_search(cfg_left, cfg_prec, tau, column=None, row=None):
    """greedy_select and the dense reference loop agree exactly: picks, union
    arrays, tp/fp, stop reason and trace.  The joined left records, read
    from ``cfg_left`` at the row of the pick that set each right's join,
    agree too.

    With ``column``, table column k stands for the rights r with
    ``column[r] == k``: greedy_select weighs each column by its count of
    rights, and the dense loop runs over the table expanded to one column
    per right.  With ``row``, configuration c's table row is ``row[c]``,
    and the dense loop runs over the table expanded to ``cfg_prec[row]``,
    one row per configuration."""
    if column is None:
        column = np.arange(cfg_left.shape[1])
    weight = np.bincount(column, minlength=cfg_left.shape[1])
    got = greedy_select(cfg_prec, weight, tau, row)
    if row is None:
        row = np.arange(len(cfg_left))
    want = dense_greedy(cfg_prec[row][:, column], tau)
    assert got.selected == want.selected
    got_left = union_left(cfg_left, got, row)[column]
    assert np.array_equal(got_left, union_left(cfg_left[row][:, column], want))
    for name in ("cur_prec", "cur_source"):
        a, b = getattr(got, name)[column], getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.tp, got.fp) == (want.tp, want.fp)
    assert got.stop_reason == want.stop_reason
    assert got.trace == want.trace
    return got


def tied_instance(rng: np.random.Generator):
    """Precisions float32(1/k) with k up to 200 (400 in dominated rows),
    rows repeated so profits tie, empty rows, fp-free rows, and rows another
    row dominates, which stop adding tp once it is picked."""
    n_base, n_right = int(rng.integers(5, 30)), int(rng.integers(10, 80))
    assigned = rng.random((n_base, n_right)) < rng.uniform(0.1, 0.6)
    left = np.where(assigned, rng.integers(0, 199, size=(n_base, n_right)), -1)
    k = np.where(rng.random((n_base, n_right)) < 0.3, 1, rng.integers(1, 201, size=(n_base, n_right)))
    k[rng.random(n_base) < 0.2] = 1  # fp-free rows
    prec = np.where(assigned, 1.0 / k, 0.0)
    rows = rng.integers(0, n_base, size=int(rng.integers(n_base, 3 * n_base)))
    left, prec = left[rows], prec[rows]
    dominated = rng.integers(0, len(rows), size=len(rows) // 4)
    keep = rng.random((len(dominated), n_right)) < 0.5
    left = np.vstack([left, np.where(keep, left[dominated], -1), np.full((2, n_right), -1)])
    prec = np.vstack([prec, np.where(keep, prec[dominated] / 2, 0.0), np.zeros((2, n_right))])
    order = rng.permutation(len(left))
    return left[order].astype(np.int32), prec[order].astype(np.float32)


@pytest.mark.parametrize("seed", range(40))
def test_greedy_matches_dense_loop_on_tied_instances(seed):
    rng = np.random.default_rng(1000 + seed)
    cfg_left, cfg_prec = tied_instance(rng)
    for tau in (0.3, 0.6, 0.8, 0.95):
        assert_same_search(cfg_left, cfg_prec, tau)


@pytest.mark.parametrize("seed", range(20))
def test_weighted_greedy_matches_dense_loop_on_repeated_columns(seed):
    rng = np.random.default_rng(2000 + seed)
    cfg_left, cfg_prec = tied_instance(rng)
    # each column stands for 1 to 5 rights, in shuffled order
    n_col = cfg_left.shape[1]
    column = rng.permutation(np.repeat(np.arange(n_col), rng.integers(1, 6, size=n_col)))
    for tau in (0.3, 0.6, 0.8, 0.95):
        assert_same_search(cfg_left, cfg_prec, tau, column)


def group_rows(rng, cfg_left, cfg_prec):
    """Equal rows grouped into one row each, in first-appearance order, with
    the configuration -> row map of the rows they were: each group's rows
    are one ascending run of configurations, as the ConfigTable's are, and
    a group of several rows is split in two rows at random, as equal rows
    of two functions are not grouped."""
    codes: dict[bytes, int] = {}
    keys = [l.tobytes() + p.tobytes() for l, p in zip(cfg_left, cfg_prec)]
    group = np.array([codes.setdefault(k, len(codes)) for k in keys])
    reps, counts = np.unique(group, return_index=True, return_counts=True)[1:]
    rows, members = [], []
    for rep, count in zip(reps.tolist(), counts.tolist()):
        parts = [count]
        if count > 1 and rng.random() < 0.3:
            cut = int(rng.integers(1, count))
            parts = [cut, count - cut]
        rows += [rep] * len(parts)
        members += parts
    row = np.repeat(np.arange(len(rows)), members)
    return cfg_left[rows], cfg_prec[rows], row


@pytest.mark.parametrize("seed", range(20))
def test_row_greedy_matches_dense_loop_on_tied_instances(seed):
    rng = np.random.default_rng(3000 + seed)
    cfg_left, cfg_prec, row = group_rows(rng, *tied_instance(rng))
    assert len(row) > len(cfg_left)
    n_col = cfg_left.shape[1]
    column = rng.permutation(np.repeat(np.arange(n_col), rng.integers(1, 4, size=n_col)))
    for tau in (0.3, 0.6, 0.8, 0.95):
        assert_same_search(cfg_left, cfg_prec, tau, row=row)
        assert_same_search(cfg_left, cfg_prec, tau, column, row)


@settings(max_examples=60)
@given(st.data())
def test_row_greedy_matches_dense_loop_on_interleaved_rows(data):
    # each table row stands for configurations scattered over the map, not
    # one run: the search over the rows equals the dense loop over the
    # expanded table, ties included.  Rows are drawn from a few
    # distinct ones, so equal rows tie, within one table row and across two
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_row, n_col = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 12))
    base_left, base_prec = tied_instance(rng)
    base = rng.integers(0, len(base_left), size=int(rng.integers(1, n_row + 1)))
    pick = base[rng.integers(0, len(base), size=n_row)]
    cols = rng.integers(0, base_left.shape[1], size=n_col)
    cfg_left, cfg_prec = base_left[pick][:, cols], base_prec[pick][:, cols]
    extra = data.draw(st.lists(st.integers(0, n_row - 1), max_size=3 * n_row))
    row = rng.permutation(np.concatenate([np.arange(n_row), extra]).astype(np.int64))
    column = rng.permutation(np.repeat(np.arange(n_col), rng.integers(1, 4, size=n_col)))
    tau = data.draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    assert_same_search(cfg_left, cfg_prec, tau, row=row)
    assert_same_search(cfg_left, cfg_prec, tau, column, row)


ROW_LEFT = np.array([[0, 1], [0, -1]], dtype=np.int32)
ROW_PREC = np.array([[1.0, 0.5], [1.0, 0.0]], dtype=np.float32)


def test_row_greedy_stops_with_an_unpicked_duplicate():
    # configurations 0 and 1 share row 0: the lower is picked, and the
    # other adds no tp once it is
    got = assert_same_search(ROW_LEFT, ROW_PREC, 0.1, row=np.array([0, 0, 1]))
    assert got.selected == [2, 0]
    assert len(got.selected) == 2 and got.stop_reason == "no_gain"


def test_row_greedy_exhausts_single_member_rows():
    got = assert_same_search(ROW_LEFT, ROW_PREC, 0.1, row=np.array([0, 1]))
    assert got.selected == [1, 0] and got.stop_reason == "exhausted"


@pytest.mark.parametrize(
    "row, problem",
    [
        (np.array([[0, 1]]), "1-D integers"),
        (np.array([0.0, 1.0]), "1-D integers"),
        (np.array([0, 2]), r"\[0, 2\)"),
        (np.array([-1, 1]), r"\[0, 2\)"),
        (np.array([1, 1]), "no configuration"),
    ],
    ids=["2-D", "floats", "past the table", "negative", "empty row"],
)
def test_greedy_rejects_a_malformed_row_map(row, problem):
    ones = np.ones(2, dtype=np.int64)
    with pytest.raises(ValueError, match=problem):
        greedy_select(ROW_PREC, ones, 0.1, row)


@pytest.fixture(scope="module")
def golden_tables():
    """Configuration tables of the golden "run" input, and of the same input
    with every query row repeated 4 times."""
    L, R, _ = generate_synthetic(n_left=60, seed=0, unmatched_rate=0.2)
    fns = enumerate_function_space()
    tables = []
    for right in (R, repeat_queries(R, 4)):
        prep = prepare_columns(L, right, ("name",), fns)
        pairs = prep.pairs
        reduced = reduce_distances(pairs, [prep.d_lr["name"]], [prep.d_ll["name"]], (1.0,), 50)
        table = precompute_config_table(fns, pairs, reduced)
        tables.append((table, pairs.query))
    return tables


@pytest.mark.parametrize("which", [0, 1], ids=["run", "run-ties"])
@pytest.mark.parametrize("tau", [0.5, 0.9, 0.99])
def test_greedy_matches_dense_loop_on_golden_table(golden_tables, which, tau):
    table, query = golden_tables[which]
    cfg_left = table.left[table.row][:, query]
    cfg_prec = table.prec[table.row][:, query]
    got = assert_same_search(cfg_left, cfg_prec, tau)
    assert got.selected


@pytest.mark.parametrize("which", [0, 1], ids=["run", "run-ties"])
@pytest.mark.parametrize("tau", [0.5, 0.9, 0.99])
def test_weighted_greedy_matches_dense_loop_on_golden_table(golden_tables, which, tau):
    table, query = golden_tables[which]
    if which == 1:  # every query row 4 times: no query holds a single right
        assert np.bincount(query).min() >= 4
    assert len(table.left) < table.n_configs
    got = assert_same_search(table.left, table.prec, tau, query, table.row)
    assert got.selected


def test_greedy_matches_dense_loop_without_candidates():
    cfg_left = np.full((0, 5), -1, dtype=np.int32)
    got = assert_same_search(cfg_left, np.zeros((0, 5), dtype=np.float32), 0.9)
    assert got.selected == [] and got.stop_reason == "exhausted"


def test_greedy_matches_dense_loop_fp_free():
    rng = np.random.default_rng(3)
    cfg_left, _ = make_random_instance(rng, n_cfg=12, n_right=30)
    cfg_prec = np.where(cfg_left != -1, 1.0, 0.0).astype(np.float32)
    got = assert_same_search(cfg_left, cfg_prec, 0.9)
    assert got.fp == 0.0 and got.stop_reason in ("no_gain", "exhausted")


# --- end-to-end solve ----------------------------------------------------------


def exact_copy_tables():
    names = [
        "madison falcons football team",
        "oakdale hornets soccer club",
        "riverton cougars hockey squad",
        "fairview spartans baseball nine",
    ]
    L = make_table(("name",), [(f"L{i}", (v,)) for i, v in enumerate(names)])
    R = make_table(
        ("name",), [(f"R{i}", (v,)) for i, v in enumerate(names)], role="query"
    )
    return L, R


def test_dominant_config_returned_alone():
    L, R = exact_copy_tables()
    res = solve(L, R, "name", tau=0.9)
    assert len(res.solution.configs) == 1
    assert len(res.result.assignments) == len(R)
    assert all(a.precision == 1.0 for a in res.result.assignments.values())
    assert res.fp == 0.0


def test_tau_one_returns_empty():
    # precision must strictly exceed tau, so tau = 1.0 is unsatisfiable
    L, R = exact_copy_tables()
    res = solve(L, R, "name", tau=1.0)
    assert res.solution.configs == ()
    assert res.result.assignments == {}
    assert res.warnings


def test_empty_candidate_space_warns():
    L, R = generate_disjoint_tables(12, 12, seed=1)
    # tiny tables over disjoint vocabularies usually share no trigram at all;
    # force it by using single characters far apart
    L2 = make_table(("name",), [("L0", ("aaa bbb",)), ("L1", ("ccc ddd",))])
    R2 = make_table(("name",), [("R0", ("xxx yyy",)), ("R1", ("zzz www",))], role="query")
    res = solve(L2, R2, "name", tau=0.9)
    assert res.solution.configs == ()
    assert any("no candidate pairs" in w for w in res.warnings)


def test_nonempty_solution_beats_target():
    rng_seeds = [0, 1]
    for seed in rng_seeds:
        L, R, _ = generate_synthetic(n_left=30, seed=seed, unmatched_rate=0.2)
        res = solve(L, R, "name", tau=0.85)
        if res.solution.configs:
            assert res.estimated_precision > 0.85


WORDS = ["oak", "oaks", "river", "maple", "falcon", "falcons", "tigers", "club", "north"]


@st.composite
def repeated_query_cases(draw):
    """Small tables over a few shared words, a right table that may already
    repeat values, a copy count and a row shuffle."""
    value = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    lefts = draw(st.lists(value, min_size=2, max_size=8))
    rights = draw(st.lists(value, min_size=1, max_size=6))
    L = make_table(("name",), [(f"L{i}", (v,)) for i, v in enumerate(lefts)])
    R = make_table(("name",), [(f"R{i}", (v,)) for i, v in enumerate(rights)], role="query")
    return L, R, draw(st.integers(2, 4)), draw(st.randoms(use_true_random=False))


def solve_spied(L, R, fns, group_queries=solver.group_queries):
    """``solve`` on column name, with the pair list of its one
    ``distance_matrix`` call split in two: the L-R pairs, then the L-L
    pairs, cut at the prepared set's count of cross-table pairs."""
    calls = []

    def spy(functions, pairs, *args, run=solver.distance_matrix):
        calls.append(list(pairs))
        return run(functions, pairs, *args)

    def prepare_spy(*args, run=multicolumn.prepare_columns):
        prep = run(*args)
        assert len(calls) <= 1
        if calls:
            n_lr = len(prep.pairs.lr_right)
            calls[:] = [calls[0][:n_lr], calls[0][n_lr:]]
            assert len(calls[1]) == len(prep.pairs.ll_a)
        return prep

    with mock.patch.object(solver, "distance_matrix", spy), \
            mock.patch.object(solver, "group_queries", group_queries), \
            mock.patch.object(multicolumn, "prepare_columns", prepare_spy):
        res = solve(L, R, "name", tau=0.6, functions=fns)
    return res, calls


def record_level(pairs, keys):
    """``group_queries`` that keeps every right record its own query: the
    solve over records, as before queries were collapsed."""
    return pairs, np.arange(len(keys))


@settings(max_examples=30)
@given(repeated_query_cases())
def test_repeated_queries_solve_once_per_distinct_value(case):
    # the repeated table, shuffled, solved per distinct query, gives the
    # solution and joins of the solve over every record.  The repeats are
    # compared with each other, not with R alone: the IDF corpus counts
    # every copy, so repeating rows may move blocking and IDF distances.
    L, R, k, rnd = case
    fns = enumerate_function_space(SPACE_PRESETS["reduced24"])
    records = list(repeat_queries(R, k).records)
    rnd.shuffle(records)
    shuffled = Table(R.columns, tuple(records), R.role)

    res, calls = solve_spied(L, shuffled, fns)
    ref, ref_calls = solve_spied(L, shuffled, fns, record_level)
    in_order, _ = solve_spied(L, repeat_queries(R, k), fns)
    assert dump_solution(res.solution) == dump_solution(ref.solution)
    assert dump_solution(in_order.solution) == dump_solution(ref.solution)
    assert res.result.assignments == ref.result.assignments == in_order.result.assignments
    # all k copies of a joined original join one left record at one precision
    by_original = {}
    for rid, a in res.result.assignments.items():
        by_original.setdefault(rid.rsplit("-", 1)[0], []).append((a.left_id, a.precision))
    assert all(len(joins) == k and len(set(joins)) == 1 for joins in by_original.values())

    # the manifest's counts are over records, as before
    distinct = len(set(R.column_values("name")))
    assert res.pair_counts == {**ref.pair_counts, "distinct_queries": distinct}
    if ref_calls:
        # the L-R call gets each distinct query's pairs once; over records
        # it got them once per record holding the value
        rows = Counter(R.column_values("name"))
        assert Counter(ref_calls[0]) == {p: n * k * rows[p[1]] for p, n in Counter(calls[0]).items()}


def spy_tokenization(monkeypatch):
    """Counts, over the ``tokenize_strings`` passes of the column string
    tables, of each (string, tokenizer) tokenized and of each (tokenizer,
    strings) pass.  Those are blocking's, the rules' and the distance
    stage's passes."""
    seen = Counter()
    passes = Counter()

    def tokenize_strings_spy(strings, tokenizer):
        seen.update((s, tokenizer) for s in strings)
        passes[(tokenizer, tuple(strings))] += 1
        return tokenize_strings(strings, tokenizer)

    monkeypatch.setattr(distances, "tokenize_strings", tokenize_strings_spy)
    return seen, passes


def test_each_left_string_tokenized_once_per_tokenizer(monkeypatch):
    # the L-R and L-L calls share the column's string table, whose one pass
    # per tokenizer also gives the IDF weights
    L, R, _ = generate_synthetic(n_left=30, seed=3, unmatched_rate=0.2)
    fns = enumerate_function_space()
    seen, passes = spy_tokenization(monkeypatch)
    prep = prepare_columns(L, R, ("name",), fns)
    assert len(prep.pairs.ll_a) > 0 and len(prep.pairs.lr_right) > 0
    options = {f.preprocess for f in fns if f.is_set_based}
    lefts = {apply_preprocess(v, p) for v in L.column_values("name") for p in options}
    for tokenizer in ("3G", "SP"):
        assert all(seen[(s, tokenizer)] == 1 for s in lefts), tokenizer
    assert max(seen.values()) == 1
    assert sorted(t for t, _ in passes) == ["3G", "SP"]


def test_solve_multi_tokenizes_each_column_once_per_tokenizer(monkeypatch):
    # later column sets keep each column's string table from the first set
    # that prepared it
    L, R, _ = generate_synthetic(n_left=30, seed=3, unmatched_rate=0.2)
    L, R = add_random_column(L, seed=1), add_random_column(R, seed=2)
    sets = []

    def prepare_spy(L, R, columns, *args):
        sets.append(columns)
        return prepare_columns(L, R, columns, *args)

    monkeypatch.setattr(multicolumn, "prepare_columns", prepare_spy)
    _, passes = spy_tokenization(monkeypatch)
    fns = enumerate_function_space(SPACE_PRESETS["reduced24"])
    solve_multi(L, R, g=4, functions=fns)
    assert len(sets) > len(L.columns)
    assert max(passes.values()) == 1
    # per column one pass per tokenizer, which also serves blocking on a
    # single column; a set of several columns blocks on its joined values,
    # in one more 3G pass each
    joined = len({frozenset(cols) for cols in sets if len(cols) > 1})
    assert joined > 0
    assert sorted(t for t, _ in passes) == ["3G"] * (len(L.columns) + joined) + ["SP"] * len(
        L.columns
    )


@pytest.mark.parametrize("use_rules", [True, False])
def test_one_column_blocks_on_its_tables_pass(monkeypatch, use_rules):
    # blocking reads the column table's 3G pass: one pass per tokenizer in
    # all, wherever in the library tokenize_strings is called from
    L, R, _ = generate_synthetic(n_left=30, seed=3, unmatched_rate=0.2)
    passes = []

    def tokenize_strings_spy(strings, tokenizer):
        passes.append(tokenizer)
        return tokenize_strings(strings, tokenizer)

    for module in (text, distances, blocking, solver):
        for name, value in list(vars(module).items()):
            if value is tokenize_strings:
                monkeypatch.setattr(module, name, tokenize_strings_spy)
    prep = prepare_columns(L, R, ("name",), enumerate_function_space(), use_negative_rules=use_rules)
    assert len(prep.pairs.lr_right) > 0
    assert sorted(passes) == ["3G", "SP"]


def test_solve_frees_the_column_table_before_the_search(monkeypatch):
    # a search keeps its string tables for later column sets only until the
    # set of every column is prepared: one column's before its one search
    tables = []
    alive = []
    searched = []  # the columns of each search, aligned with alive

    def column_strings(*args, build=solver.ColumnStrings, **kwargs):
        table = build(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table

    def solve_from_distances(*args, run=multicolumn.solve_from_distances):
        alive.append([ref() is not None for ref in tables])
        searched.append(args[-1])
        return run(*args)

    monkeypatch.setattr(solver, "ColumnStrings", column_strings)
    monkeypatch.setattr(multicolumn, "solve_from_distances", solve_from_distances)
    fns = enumerate_function_space(SPACE_PRESETS["reduced24"])
    L, R, _ = generate_synthetic(n_left=30, seed=3, unmatched_rate=0.2)
    solve(L, R, "name", functions=fns)
    assert alive == [[False]]

    tables.clear()
    alive.clear()
    searched.clear()
    L, R = add_random_column(L, seed=1), add_random_column(R, seed=2)
    solve_multi(L, R, g=4, functions=fns)
    one = [a for cols, a in zip(searched, alive) if len(cols) == 1]
    both = [a for cols, a in zip(searched, alive) if len(cols) == 2]
    assert len(tables) == 2 and one and both
    assert all(all(a) for a in one)  # kept for the set of both columns
    assert all(a == [False, False] for a in both)



def spy_matrix_release(monkeypatch):
    """Per configuration-table fill, the trial's columns and, per column set
    prepared so far, whether its distance matrices are alive: True or False
    for all of them, None for some."""
    refs = {}
    fills = []
    trial = []

    def prepare_spy(L, R, columns, *args):
        prep = prepare_columns(L, R, columns, *args)
        # a column's two matrices are slices of the one its call returned
        assert all(prep.d_lr[c].base is prep.d_ll[c].base is not None for c in prep.d_lr)
        refs[columns] = [weakref.ref(d.base) for d in prep.d_lr.values()]
        return prep

    def solve_spy(*args, run=multicolumn.solve_from_distances):
        trial[:] = [args[-1]]
        return run(*args)

    def fill_spy(*args, run=solver.precompute_config_table):
        alive = {}
        for columns, rs in refs.items():
            live = {r() is not None for r in rs}
            alive[columns] = live.pop() if len(live) == 1 else None
        fills.append((trial[0], alive))
        return run(*args)

    monkeypatch.setattr(multicolumn, "prepare_columns", prepare_spy)
    monkeypatch.setattr(multicolumn, "solve_from_distances", solve_spy)
    monkeypatch.setattr(solver, "precompute_config_table", fill_spy)
    return fills


def test_solve_frees_the_matrices_before_the_table(monkeypatch):
    # the one trial reduces the column's matrices, then drops them, and the
    # string table that also holds them is already freed
    fills = spy_matrix_release(monkeypatch)
    fns = enumerate_function_space(SPACE_PRESETS["reduced24"])
    L, R, _ = generate_synthetic(n_left=30, seed=3, unmatched_rate=0.2)
    res = solve(L, R, "name", functions=fns)
    assert res.solution.configs
    assert fills == [(("name",), {("name",): False})]


def test_solve_multi_frees_each_sets_matrices_after_its_last_trial(monkeypatch):
    fills = spy_matrix_release(monkeypatch)
    fns = enumerate_function_space(SPACE_PRESETS["reduced24"])
    L, R, _ = generate_synthetic(n_left=30, seed=3, unmatched_rate=0.2)
    L, R = add_random_column(L, seed=1), add_random_column(R, seed=2)
    res = solve_multi(L, R, g=4, functions=fns)
    sets = [cols for cols, _ in fills]
    both = [i for i, cols in enumerate(sets) if len(cols) == 2]
    # one trial per single column, then g - 1 over both, consecutive
    assert len(sets) == 2 + 3 == res.invocations and both == [2, 3, 4]
    for i, (cols, alive) in enumerate(fills):
        if len(cols) == 1:
            # the column's string table keeps the matrices for the set of
            # both columns, which gathers rows from them
            assert alive[cols] is True
            continue
        assert alive[cols] is (i != both[-1])  # alive until the last trial
        # the string tables, freed once the set of both was prepared, were
        # the last to hold the single-column sets' matrices
        assert all(a is False for c, a in alive.items() if c != cols)


def test_solve_never_reads_the_left_table(monkeypatch):
    # the solve reads the table's precisions and the reduction's joins;
    # ``ConfigTable.left`` is built on access, for tests and tracing only
    def forbidden(self):
        raise AssertionError("the solve read ConfigTable.left")

    monkeypatch.setattr(solver.ConfigTable, "left", property(forbidden))
    # the golden "run" and "run-multi" inputs and settings
    L, R, _ = generate_synthetic(n_left=60, seed=0, unmatched_rate=0.2)
    assert solve_multi(L, R, columns=["name"]).result.assignments
    L, R, _ = generate_synthetic(n_left=20, seed=3, unmatched_rate=0.2)
    L, R = add_random_column(L, seed=1), add_random_column(R, seed=2)
    fns = enumerate_function_space(SPACE_PRESETS["reduced24"])
    assert solve_multi(L, R, g=4, functions=fns).result.assignments


def test_tied_queries_counted_over_the_per_function_minima():
    # 30 reference rows copied: a query nearest a copied row ties between
    # the copies under every function and joins nothing
    L, R, _ = generate_synthetic(n_left=300, seed=0, unmatched_rate=0.2)
    copies = tuple(Record(f"{rec.id}-copy", rec.values) for rec in L.records[:30])
    L = Table(L.columns, L.records + copies)
    res = solve(L, R, "name")
    prep = prepare_columns(L, R, ("name",), enumerate_function_space())
    pairs, d_lr = prep.pairs, prep.d_lr["name"]
    records = np.bincount(pairs.query)
    tied = []
    for q in np.unique(pairs.lr_right).tolist():
        rows = d_lr[:, pairs.lr_right == q]
        if all((row == row.min()).sum() > 1 for row in rows):
            tied.append(q)
    assert len(tied) > 0
    assert res.pair_counts["tied_queries"] == int(records[tied].sum())
    assert any(f"{res.pair_counts['tied_queries']} right records" in w for w in res.warnings)
    unjoined = {pairs.right_ids[r] for r in np.flatnonzero(np.isin(pairs.query, tied))}
    assert not unjoined & set(res.result.assignments)

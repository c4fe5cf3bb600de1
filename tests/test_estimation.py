"""The paper's precision estimate as the configuration table computes it: a
join (l, r) at distance d is trusted as 1 / |reference records within 2d of
l|, counted over l's blocked self-join neighbours; and the union rule that
greedy selection applies to the chosen configurations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import BallCounter, config_stats, config_table, oracle_union, union_left
from fuzzyjoin import Configuration, JoinFunction, greedy_select

ED_FN = JoinFunction("L", "NONE", "NONE", "ED")


def ball_from(dists: dict[str, list[float]]) -> BallCounter:
    return BallCounter.from_distances(dists)


def engine_precision(n_left, ll_a, d_ll, left, d) -> np.float32:
    """The configuration table's estimated precision for one right record
    whose only candidate is left record ``left`` at distance d, under the
    one-threshold grid [d].  ``ll_a`` (ascending) and ``d_ll`` are the
    self-join pairs' first records and distances."""
    table = config_table(
        [ED_FN],
        [np.array([d])],
        1,
        n_left,
        np.array([0]),
        np.array([left]),
        np.array([[d]]),
        np.asarray(ll_a, dtype=np.int64),
        np.asarray(d_ll, dtype=float).reshape(1, -1),
    )
    return table.prec[0, 0]


def neighbour_precision(dists: list[float], d: float) -> np.float32:
    """``engine_precision`` of a join to left record 0, whose self-join
    neighbours sit at the given distances."""
    return engine_precision(len(dists) + 1, [0] * len(dists), dists, 0, d)


class TestPairPrecision:
    def test_empty_ball_is_one(self):
        assert neighbour_precision([0.9, 0.95], 0.1) == 1.0

    def test_five_records_in_ball(self):
        # radius 2*0.2 = 0.4 captures 4 neighbors plus the record itself
        assert neighbour_precision([0.1, 0.15, 0.2, 0.3, 0.9], 0.2) == np.float32(1 / 5)

    def test_zero_distance_duplicate_free(self):
        assert neighbour_precision([0.2, 0.4], 0.0) == 1.0

    def test_unknown_left_defaults_to_lone_record(self):
        # the self-join pairs all belong to record 1, the join goes to record 0
        assert engine_precision(3, [1, 1], [0.1, 0.2], 0, 0.5) == 1.0

    @given(st.lists(st.floats(0, 1), max_size=12), st.floats(0, 1), st.floats(0, 1))
    def test_nonincreasing_in_distance_and_bounded(self, dists, d1, d2):
        lo, hi = sorted((d1, d2))
        p_lo = neighbour_precision(dists, lo)
        p_hi = neighbour_precision(dists, hi)
        assert p_lo >= p_hi
        assert 0.0 < p_hi <= 1.0
        assert p_hi == np.float32(1 / (1 + sum(x <= 2 * hi for x in dists)))


class TestConfigStats:
    def cfg(self, theta: float) -> Configuration:
        return Configuration(JoinFunction("L", "NONE", "NONE", "ED"), theta)

    def test_threshold_below_everything(self):
        cands = {"r1": [("l1", 0.5)], "r2": [("l2", 0.4)]}
        st_ = config_stats(self.cfg(0.1), cands, ball_from({}))
        assert st_.assignments == {}
        assert st_.tp == st_.fp == 0.0

    def test_single_confident_join(self):
        cands = {"r1": [("l1", 0.1)]}
        st_ = config_stats(self.cfg(0.2), cands, ball_from({"l1": [0.9]}))
        assert st_.assignments == {"r1": ("l1", 1.0)}
        assert st_.tp == 1.0 and st_.fp == 0.0

    def test_mixed_precisions_sum(self):
        balls = ball_from({"l1": [0.9], "l2": [0.1, 0.12, 0.15, 0.18]})
        cands = {"r1": [("l1", 0.05)], "r2": [("l2", 0.1)]}
        st_ = config_stats(self.cfg(0.1), cands, balls)
        assert st_.assignments["r1"] == ("l1", 1.0)
        assert st_.assignments["r2"] == ("l2", pytest.approx(1 / 5))
        assert st_.tp == pytest.approx(1.2)
        assert st_.fp == pytest.approx(0.8)

    def test_exact_tie_joins_nothing(self):
        cands = {"r1": [("l1", 0.1), ("l2", 0.1)]}
        st_ = config_stats(self.cfg(0.5), cands, ball_from({}))
        assert st_.assignments == {}

    def test_nearest_candidate_wins(self):
        cands = {"r1": [("l1", 0.3), ("l2", 0.2)]}
        st_ = config_stats(self.cfg(0.5), cands, ball_from({}))
        assert st_.assignments["r1"][0] == "l2"

    def test_radius_uses_threshold_not_distance(self):
        balls = ball_from({"l1": [0.5]})
        cands = {"r1": [("l1", 0.1)]}
        # theta 0.3 -> ball radius 0.6 catches the neighbor at 0.5
        st_ = config_stats(self.cfg(0.3), cands, balls)
        assert st_.assignments["r1"][1] == pytest.approx(0.5)


def as_table(rows: list[dict[int, tuple[int, float]]], n_right: int):
    """Assignment and precision arrays of a table given as one
    {right: (left, precision)} dict per configuration."""
    left = np.full((len(rows), n_right), -1, dtype=np.int32)
    prec = np.zeros((len(rows), n_right), dtype=np.float32)
    for c, row in enumerate(rows):
        for r, (l, p) in row.items():
            left[c, r], prec[c, r] = l, p
    return left, prec


def union_of(rows: list[dict[int, tuple[int, float]]], n_right: int, tau: float = 0.0):
    """greedy_select over ``as_table(rows)``, each right its own unit-weight
    column, and each right's joined left record, read from the table at the
    row that set it."""
    left, prec = as_table(rows, n_right)
    ones = np.ones(n_right, dtype=np.int64)
    u = greedy_select(prec, ones, tau, np.random.default_rng(0))
    return u, union_left(left, u)


# picked first (profit 3.5 / 0.5 = 7), right 0 at precision 1/2
FIRST = {0: (0, 0.5), 1: (0, 1.0), 2: (0, 1.0), 3: (0, 1.0)}


class TestUnionStats:
    """The union rule on greedy_select's union arrays: strictly higher
    precision wins, the earlier pick keeps ties, and a right counts once at
    its maximum."""

    def test_single_config_is_identity(self):
        u, cur_left = union_of([{0: (0, 0.5), 1: (1, 1.0)}], 2)
        assert u.selected == [0]
        assert u.tp == 1.5 and u.fp == 0.5
        assert cur_left.tolist() == [0, 1]
        assert u.cur_prec.tolist() == [0.5, 1.0]
        assert u.cur_source.tolist() == [0, 0]

    def test_conflict_keeps_more_confident(self):
        # the later pick joins right 0 elsewhere, less confidently
        u, cur_left = union_of([{0: (0, 1.0)}, {0: (1, 0.5), 1: (1, 1.0)}], 2)
        assert u.selected == [0, 1]
        assert cur_left.tolist() == [0, 1]
        assert u.cur_source.tolist() == [0, 1]
        assert u.tp == 2.0 and u.fp == 0.0
        # the later pick joins right 0 elsewhere, more confidently
        u, cur_left = union_of([FIRST, {0: (1, 1.0), 4: (1, 0.5)}], 5)
        assert u.selected == [0, 1]
        assert (cur_left[0], u.cur_prec[0], u.cur_source[0]) == (1, 1.0, 1)
        assert u.tp == 4.5 and u.fp == 0.5

    def test_conflict_tie_earlier_wins(self):
        u, cur_left = union_of([FIRST, {0: (1, 0.5), 4: (1, 1.0)}], 5)
        assert u.selected == [0, 1]
        assert (cur_left[0], u.cur_prec[0], u.cur_source[0]) == (0, 0.5, 0)
        assert u.tp == 4.5 and u.fp == 0.5

    def test_same_left_counted_once_at_max(self):
        u, cur_left = union_of([FIRST, {0: (0, 1.0), 4: (1, 0.5)}], 5)
        assert u.selected == [0, 1]
        assert (cur_left[0], u.cur_prec[0], u.cur_source[0]) == (0, 1.0, 1)
        assert (cur_left != -1).sum() == 5
        assert u.tp == 4.5 and u.fp == 0.5

    def test_disjoint_coverage_sums(self):
        u, _ = union_of([{0: (0, 1.0)}, {1: (1, 0.5)}], 2, tau=0.5)
        assert u.selected == [0, 1]
        assert u.tp == 1.5 and u.fp == 0.5

    def test_empty_union_precision_one(self):
        u, _ = union_of([], 3)
        assert u.selected == [] and u.stop_reason == "exhausted"
        assert u.precision == 1.0

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(range(4)),
                st.tuples(st.sampled_from([0, 1]), st.sampled_from([1.0, 0.5, 1 / 3, 0.25])),
                max_size=4,
            ),
            max_size=5,
        )
    )
    def test_tp_plus_fp_equals_assigned(self, rows):
        u, cur_left = union_of(rows, 4)
        assert u.tp + u.fp == pytest.approx((cur_left != -1).sum(), abs=1e-9)
        left, prec = as_table(rows, 4)
        _, _, best_left, best_prec = oracle_union([(left[c], prec[c]) for c in u.selected], 4)
        assert cur_left.tolist() == best_left
        assert u.cur_prec.tolist() == best_prec


# --- 2-D grid reconstruction --------------------------------------------------

GRID_SCALE = 20.0


def build_grid(deleted: set[tuple[int, int]]):
    """Integer grid [-3, 3]^2 minus deleted points, as the point list and the
    engine's precision for a join to the origin at a given distance.  The
    self-join pairs are all ordered pairs of distinct points, at their
    Euclidean distance over ``GRID_SCALE``."""
    points = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if (x, y) not in deleted
    ]
    ll_a, ll_b = np.nonzero(~np.eye(len(points), dtype=bool))
    d_ll = [
        math.hypot(points[a][0] - points[b][0], points[a][1] - points[b][1]) / GRID_SCALE
        for a, b in zip(ll_a, ll_b)
    ]
    origin = points.index((0, 0))

    def precision(d: float) -> np.float32:
        return engine_precision(len(points), ll_a, d_ll, origin, d)

    return points, precision


def oracle_ball_count(points, center, radius_units) -> int:
    cx, cy = center
    return sum(
        1
        for x, y in points
        if math.hypot(x - cx, y - cy) <= radius_units + 1e-12
    )


class TestGridScenario:
    def test_safe_join_has_precision_one(self):
        points, precision = build_grid(deleted=set())
        # r sits 0.3 units from its true grid point: the 0.6 ball is empty
        assert precision(0.3 / GRID_SCALE) == 1.0

    def test_crowded_ball_counts_survivors(self):
        deleted = {(1, 0)}
        points, precision = build_grid(deleted)
        # true neighbor deleted; closest survivor is the origin at 0.75 units,
        # whose 1.5-unit ball holds origin + 3 axis survivors + 4 diagonals
        expected = oracle_ball_count(points, (0, 0), 1.5)
        assert expected == 8
        assert precision(0.75 / GRID_SCALE) == np.float32(1 / expected)

    def test_paper_style_one_fifth(self):
        deleted = {(1, 0), (1, 1), (1, -1), (0, 1)}
        points, precision = build_grid(deleted)
        expected = oracle_ball_count(points, (0, 0), 1.5)
        assert expected == 5
        assert precision(0.75 / GRID_SCALE) == np.float32(1 / 5)

    def test_every_radius_matches_geometry_oracle(self):
        deleted = {(2, 1), (-1, -1), (0, 2)}
        points, precision = build_grid(deleted)
        for radius_units in (0.4, 0.9, 1.1, 1.45, 2.05, 2.9):
            got = precision(radius_units / 2 / GRID_SCALE)
            assert got == np.float32(1 / oracle_ball_count(points, (0, 0), radius_units))


# --- vectorized engine vs readable path ----------------------------------------


def check_engine_against_config_stats(
    seed: int,
    n_left: int = 6,
    n_right: int = 10,
    ll_per_left: int = 3,
    lonely: int = -1,
    copies: int = 1,
):
    """Build a random blocked instance and check every configuration row of
    the vectorized table against the readable ``config_stats`` path.

    ``ll_per_left`` self-join draws per left record (0 for none); left
    record ``lonely`` gets no self-join neighbour at all.  With ``copies``
    each drawn right record appears that many times in a row, with the same
    candidates and distances.
    """
    rng = np.random.default_rng(seed)
    n_fn = 3
    left_ids = [f"l{i}" for i in range(n_left)]

    lr = sorted(
        {(r, int(rng.integers(0, n_left))) for r in range(n_right) for _ in range(3)}
    )
    ll = sorted(
        {(a, int(rng.integers(0, n_left))) for a in range(n_left) for _ in range(ll_per_left)}
    )
    ll = [(a, b) for a, b in ll if a != b and lonely not in (a, b)]
    d_lr = rng.integers(1, 9, size=(n_fn, len(lr))) / 10.0
    d_ll = rng.integers(1, 9, size=(n_fn, len(ll))) / 10.0
    # right r becomes rights r * copies .. r * copies + copies - 1
    picks = [
        (r * copies + i, k)
        for r in range(n_right)
        for i in range(copies)
        for k, (r2, _) in enumerate(lr)
        if r2 == r
    ]
    lr = [(r, lr[k][1]) for r, k in picks]
    d_lr = d_lr[:, [k for _, k in picks]]
    n_right *= copies
    right_ids = [f"r{i}" for i in range(n_right)]
    lr_right = np.array([p[0] for p in lr])
    lr_left = np.array([p[1] for p in lr])
    ll_a = np.array([p[0] for p in ll], dtype=np.int64)

    functions = [JoinFunction("L", "NONE", "NONE", "ED")] * n_fn
    thetas = [np.array([0.2, 0.45, 0.7, 0.9])] * n_fn
    table = config_table(
        functions, thetas, n_right, n_left, lr_right, lr_left, d_lr, ll_a, d_ll
    )
    assert table.n_configs == 4 * n_fn
    assert ((table.prec > 0) == (table.left >= 0)).all()

    for fi in range(n_fn):
        candidates = {
            right_ids[r]: [
                (left_ids[l], d_lr[fi, k])
                for k, (r2, l) in enumerate(lr)
                if r2 == r
            ]
            for r in range(n_right)
        }
        balls = BallCounter.from_distances(
            {
                left_ids[a]: [d_ll[fi, k] for k, (a2, _) in enumerate(ll) if a2 == a]
                for a in range(n_left)
            }
        )
        for ti, theta in enumerate(thetas[fi]):
            row = table.row[fi * 4 + ti]
            cfg = Configuration(functions[fi], float(theta))
            expected = config_stats(cfg, candidates, balls)
            left_row, prec_row = table.left[row], table.prec[row]
            got = {
                right_ids[r]: (left_ids[left_row[r]], float(prec_row[r]))
                for r in range(n_right)
                if left_row[r] >= 0
            }
            assert got.keys() == expected.assignments.keys()
            for r, (l, p) in got.items():
                el, ep = expected.assignments[r]
                assert l == el
                assert p == pytest.approx(ep, rel=1e-6)
    return table


def test_engine_matches_config_stats():
    check_engine_against_config_stats(123)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_engine_matches_config_stats_over_seeds(seed):
    check_engine_against_config_stats(seed, n_left=9, n_right=16)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_with_duplicated_rights(seed):
    # each copy is its own query, with its own column
    table = check_engine_against_config_stats(seed, n_left=8, n_right=12, copies=3)
    assert table.left.shape[1] == 36


def test_engine_without_self_join_pairs():
    # every ball holds only its own record, so every join has precision 1
    table = check_engine_against_config_stats(5, ll_per_left=0)
    left, prec = table.left[table.row], table.prec[table.row]
    assert set(np.unique(prec[left >= 0])) == {1.0}


def test_engine_left_without_neighbours():
    n_left, lonely = 7, 3
    table = check_engine_against_config_stats(11, n_left=n_left, n_right=40, lonely=lonely)
    # the lone record is joined somewhere, always at precision 1
    joined = table.left[table.row] == lonely
    assert joined.any()
    assert (table.prec[table.row][joined] == 1.0).all()

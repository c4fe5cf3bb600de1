import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzyjoin import (
    BallCounter,
    ConfigStats,
    Configuration,
    JoinFunction,
    config_stats,
    pair_precision,
    register_plugin,
    union_stats,
)
from fuzzyjoin.solver import precompute_config_table


def ball_from(dists: dict[str, list[float]]) -> BallCounter:
    return BallCounter.from_distances(dists)


class TestPairPrecision:
    def test_empty_ball_is_one(self):
        balls = ball_from({"l1": [0.9, 0.95]})
        assert pair_precision(balls, "l1", 0.1) == 1.0

    def test_five_records_in_ball(self):
        balls = ball_from({"l1": [0.1, 0.15, 0.2, 0.3, 0.9]})
        # radius 2*0.2 = 0.4 captures 4 neighbors plus the record itself
        assert pair_precision(balls, "l1", 0.2) == pytest.approx(1 / 5)

    def test_zero_distance_duplicate_free(self):
        balls = ball_from({"l1": [0.2, 0.4]})
        assert pair_precision(balls, "l1", 0.0) == 1.0

    def test_unknown_left_defaults_to_lone_record(self):
        balls = ball_from({})
        assert pair_precision(balls, "anything", 0.5) == 1.0

    @given(st.lists(st.floats(0, 1), max_size=12), st.floats(0, 1), st.floats(0, 1))
    def test_nonincreasing_in_distance_and_bounded(self, dists, d1, d2):
        balls = ball_from({"l": dists})
        lo, hi = sorted((d1, d2))
        p_lo = pair_precision(balls, "l", lo)
        p_hi = pair_precision(balls, "l", hi)
        assert p_lo >= p_hi
        assert 0.0 < p_hi <= 1.0


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


class TestUnionStats:
    def test_single_config_is_identity(self):
        st_ = ConfigStats({"r1": ("l1", 0.5), "r2": ("l2", 1.0)}, 1.5, 0.5)
        u = union_stats([st_])
        assert u.tp == st_.tp
        assert u.fp == st_.fp
        assert {r: (a.left_id, a.precision) for r, a in u.assignments.items()} == st_.assignments
        assert all(a.config_index == 0 for a in u.assignments.values())

    def test_conflict_keeps_more_confident(self):
        c1 = ConfigStats({"r": ("l1", 0.9)}, 0.9, 0.1)
        c2 = ConfigStats({"r": ("l2", 0.3)}, 0.3, 0.7)
        u = union_stats([c1, c2])
        assert u.assignments["r"].left_id == "l1"
        assert u.tp == pytest.approx(0.9)
        assert u.fp == pytest.approx(0.1)

    def test_conflict_tie_earlier_wins(self):
        c1 = ConfigStats({"r": ("l1", 0.5)}, 0.5, 0.5)
        c2 = ConfigStats({"r": ("l2", 0.5)}, 0.5, 0.5)
        u = union_stats([c1, c2])
        assert u.assignments["r"].left_id == "l1"
        assert u.assignments["r"].config_index == 0

    def test_same_left_counted_once_at_max(self):
        c1 = ConfigStats({"r": ("l1", 0.4)}, 0.4, 0.6)
        c2 = ConfigStats({"r": ("l1", 0.8)}, 0.8, 0.2)
        u = union_stats([c1, c2])
        assert len(u.assignments) == 1
        assert u.assignments["r"].precision == pytest.approx(0.8)
        assert u.assignments["r"].config_index == 1

    def test_disjoint_coverage_sums(self):
        c1 = ConfigStats({"r1": ("l1", 1.0)}, 1.0, 0.0)
        c2 = ConfigStats({"r2": ("l2", 0.5)}, 0.5, 0.5)
        u = union_stats([c1, c2])
        assert u.tp == pytest.approx(1.5)
        assert u.fp == pytest.approx(0.5)

    def test_empty_union_precision_one(self):
        u = union_stats([])
        assert u.precision == 1.0

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["r1", "r2", "r3", "r4"]),
                st.tuples(
                    st.sampled_from(["l1", "l2"]),
                    st.sampled_from([1.0, 0.5, 1 / 3, 0.25]),
                ),
                max_size=4,
            ),
            max_size=5,
        )
    )
    def test_tp_plus_fp_equals_assigned(self, assignment_dicts):
        stats = [
            ConfigStats(d, sum(p for _, p in d.values()),
                        sum(1 - p for _, p in d.values()))
            for d in assignment_dicts
        ]
        u = union_stats(stats)
        assert u.tp + u.fp == pytest.approx(len(u.assignments), abs=1e-9)


# --- 2-D grid reconstruction --------------------------------------------------

GRID_SCALE = 20.0


def grid_distance(a: str, b: str) -> float:
    xa, ya = map(float, a.split())
    xb, yb = map(float, b.split())
    return math.hypot(xa - xb, ya - yb) / GRID_SCALE


register_plugin("grid-euclid", grid_distance)
GRID_FN = JoinFunction("L", "NONE", "NONE", "PLUGIN", plugin="grid-euclid")


def build_grid(deleted: set[tuple[int, int]]):
    """Integer grid [-3, 3]^2 minus deleted points, as a value map plus an
    all-pairs ball counter under the plugin distance."""
    points = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if (x, y) not in deleted
    ]
    values = {f"{x} {y}": f"{x} {y}" for x, y in points}
    ids = list(values)
    neighbors = {i: [j for j in ids if j != i] for i in ids}
    balls = BallCounter.from_pairs(neighbors, values, GRID_FN)
    return points, balls


def oracle_ball_count(points, center, radius_units) -> int:
    cx, cy = center
    return sum(
        1
        for x, y in points
        if math.hypot(x - cx, y - cy) <= radius_units + 1e-12
    )


class TestGridScenario:
    def test_safe_join_has_precision_one(self):
        points, balls = build_grid(deleted=set())
        # r sits 0.3 units from its true grid point: the 0.6 ball is empty
        d = 0.3 / GRID_SCALE
        assert pair_precision(balls, "0 0", d) == 1.0

    def test_crowded_ball_counts_survivors(self):
        deleted = {(1, 0)}
        points, balls = build_grid(deleted)
        # true neighbor deleted; closest survivor is the origin at 0.75 units,
        # whose 1.5-unit ball holds origin + 3 axis survivors + 4 diagonals
        d = 0.75 / GRID_SCALE
        expected = oracle_ball_count(points, (0, 0), 1.5)
        assert expected == 8
        assert pair_precision(balls, "0 0", d) == pytest.approx(1 / expected)

    def test_paper_style_one_fifth(self):
        deleted = {(1, 0), (1, 1), (1, -1), (0, 1)}
        points, balls = build_grid(deleted)
        d = 0.75 / GRID_SCALE
        expected = oracle_ball_count(points, (0, 0), 1.5)
        assert expected == 5
        assert pair_precision(balls, "0 0", d) == pytest.approx(1 / 5)

    def test_every_radius_matches_geometry_oracle(self):
        deleted = {(2, 1), (-1, -1), (0, 2)}
        points, balls = build_grid(deleted)
        for radius_units in (0.4, 0.9, 1.1, 1.45, 2.05, 2.9):
            d = radius_units / 2 / GRID_SCALE
            got = pair_precision(balls, "0 0", d)
            assert got == pytest.approx(
                1 / oracle_ball_count(points, (0, 0), radius_units)
            )


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
    candidates and distances, so rights share table columns.
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
    table = precompute_config_table(
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
            row = fi * 4 + ti
            cfg = Configuration(functions[fi], float(theta))
            expected = config_stats(cfg, candidates, balls)
            left_row, prec_row = table.left[row, table.column], table.prec[row, table.column]
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
    # rights share columns, so the table is narrower than the right table
    table = check_engine_against_config_stats(seed, n_left=8, n_right=12, copies=3)
    assert len(table.weight) < len(table.column) == 36


def test_engine_without_self_join_pairs():
    # every ball holds only its own record, so every join has precision 1
    table = check_engine_against_config_stats(5, ll_per_left=0)
    assert set(np.unique(table.prec[table.left >= 0])) == {1.0}


def test_engine_left_without_neighbours():
    n_left, lonely = 7, 3
    table = check_engine_against_config_stats(11, n_left=n_left, n_right=40, lonely=lonely)
    # the lone record is joined somewhere, always at precision 1
    joined = table.left == lonely
    assert joined.any()
    assert (table.prec[joined] == 1.0).all()

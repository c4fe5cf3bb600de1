import itertools
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import reduced_thresholds, ulp_over_one_tables
from fuzzyjoin import (
    ConfigError,
    DataError,
    JoinFunction,
    RunConfig,
    add_random_column,
    enumerate_function_space,
    generate_synthetic,
    interpolate,
    make_table,
    solve,
    solve_multi,
)
from fuzzyjoin import multicolumn, solver
from fuzzyjoin.solver import BlockedPairs, prepare_columns, reduce_distances, solve_from_distances


class TestInterpolate:
    def test_pull_toward_second_column(self):
        assert interpolate((1.0, 0.0), 1, 0.3) == pytest.approx((0.7, 0.3))

    def test_first_selection_from_zero_vector(self):
        assert interpolate((0.0, 0.0, 0.0), 1, 0.4) == (0.0, 1.0, 0.0)

    def test_midpoint(self):
        assert interpolate((0.6, 0.4), 0, 0.5) == pytest.approx((0.8, 0.2))

    def test_sums_to_one(self):
        w = (0.5, 0.3, 0.2)
        for j in range(3):
            for a in (0.1, 0.5, 0.9):
                assert sum(interpolate(w, j, a)) == pytest.approx(1.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            interpolate((1.0,), 0, 0.0)


def search_weights(data, n):
    """Weights as the search draws them: a first pick from zero, then pulls
    toward the columns."""
    w = interpolate((0.0,) * n, data.draw(st.integers(0, n - 1)), 0.5)
    for _ in range(data.draw(st.integers(0, 3))):
        j = data.draw(st.integers(0, n - 1))
        w = interpolate(w, j, data.draw(st.sampled_from([i / 10 for i in range(1, 10)])))
    return w


@given(st.data())
def test_weighted_sum_is_the_sum_bit_for_bit(data):
    n = data.draw(st.integers(2, 3))
    w = search_weights(data, n)
    shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=5))
    mats = []
    for _ in range(n):
        d = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
        d.setflags(write=False)  # as prepared distances are
        mats.append(d)
    active = [(x, d) for x, d in zip(w, mats) if x > 0.0]
    got = solver.weighted_sum([d for _, d in active], [x for x, _ in active])
    # capped at 1.0, which only an ulp of rounding can exceed
    expected = np.minimum(sum(x * d for x, d in active), 1.0)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_weighted_sum_caps_an_ulp_over_one():
    # the search's weights after committing a then b at alpha 0.2, and the
    # first trial over c: their float sum is an ulp above 1
    w = interpolate(interpolate((1.0, 0.0, 0.0), 1, 0.2), 2, 0.2)
    ones = np.ones((2, 3))
    assert sum(x * ones for x in w).max() > 1.0
    got = solver.weighted_sum([ones] * 3, w)
    assert (got == 1.0).all()


def assert_reduced_in_blocks_equals_full_sum(pairs, d_lr, d_ll, w, s):
    """``reduce_distances`` over the per-column matrices, at every block
    size, equals its reduction of the full weighted sums bit for bit."""
    active = [i for i, x in enumerate(w) if x > 0.0]
    ws = [w[i] for i in active]
    lr, ll = [d_lr[i] for i in active], [d_ll[i] for i in active]
    want = reduce_distances(
        pairs, [solver.weighted_sum(lr, ws)], [solver.weighted_sum(ll, ws)], (1.0,), s
    )
    for block in (1, solver._BLOCK_CELLS):
        with mock.patch.object(solver, "_BLOCK_CELLS", block):
            got = reduce_distances(pairs, lr, ll, ws, s)
        got_t, want_t = reduced_thresholds(got), reduced_thresholds(want)
        assert len(got_t) == len(want_t)
        for a, b in zip(got_t, want_t):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for name in ("joined", "assign_at", "ball_slot"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    return want


@given(st.data())
def test_reduction_in_blocks_equals_the_full_sum(data):
    n_col = data.draw(st.integers(1, 3))
    w = search_weights(data, n_col)
    n_fn = data.draw(st.integers(1, 4))
    n_left = data.draw(st.integers(1, 5))
    n_query = data.draw(st.integers(1, 5))
    # each query has 0 to n_left candidates, at least one query has some
    cands = [
        sorted(data.draw(st.sets(st.integers(0, n_left - 1), max_size=n_left)))
        for _ in range(n_query)
    ]
    if not any(cands):
        cands[0] = [0]
    lr_right = np.array([q for q, c in enumerate(cands) for _ in c], dtype=np.int64)
    lr_left = np.array([l for c in cands for l in c], dtype=np.int64)
    left = st.integers(0, n_left - 1)
    ll = sorted(data.draw(st.lists(st.tuples(left, left), max_size=8)))
    ll_a = np.array([a for a, _ in ll], dtype=np.int64)
    pairs = BlockedPairs(
        [f"L{i}" for i in range(n_left)], [f"R{k}" for k in range(n_query)],
        lr_right, lr_left, ll_a, np.array([b for _, b in ll], dtype=np.int64),
        np.arange(n_query),
    )
    # few distance values, so minima tie; 1.0 in every column sums an ulp over
    dist = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.7, 1.0])

    def matrix(n):
        d = data.draw(hnp.arrays(np.float64, (n_fn, n), elements=dist))
        d.setflags(write=False)  # as prepared distances are
        return d

    d_lr = [matrix(len(lr_right)) for _ in range(n_col)]
    d_ll = [matrix(len(ll)) for _ in range(n_col)]
    assert_reduced_in_blocks_equals_full_sum(pairs, d_lr, d_ll, w, data.draw(st.integers(1, 6)))


def test_reduction_in_blocks_caps_an_ulp_over_one():
    # the first trial over all three columns weighs them (0.64, 0.16, 0.2):
    # right 9, at distance 1 in every column, sums to the top threshold 1.0
    L, R = ulp_over_one_tables()
    fns = [JoinFunction("L", "SP", "EW", "JD"), JoinFunction("L", "3G", "EW", "JD")]
    prep = prepare_columns(L, R, ("a", "b", "c"), fns)
    w = interpolate(interpolate((1.0, 0.0, 0.0), 1, 0.2), 2, 0.2)
    assert sum(w) > 1.0
    d_lr = [prep.d_lr[c] for c in ("a", "b", "c")]
    d_ll = [prep.d_ll[c] for c in ("a", "b", "c")]
    reduced = assert_reduced_in_blocks_equals_full_sum(prep.pairs, d_lr, d_ll, w, 50)
    assert reduced_thresholds(reduced)[0][-1] == 1.0


def test_three_column_search_with_weights_an_ulp_over_one():
    # right 9 is at distance 1 in every column; its weighted distance is
    # the top threshold, which must stay a valid one
    L, R = ulp_over_one_tables()
    fn = JoinFunction("L", "SP", "EW", "JD")
    res = solve_multi(L, R, columns=["a", "b", "c"], functions=[fn], g=5)
    assert res.selected_columns == ("a", "b", "c")
    assert res.weights == interpolate(interpolate((1.0, 0.0, 0.0), 1, 0.2), 2, 0.2)
    assert max(c.threshold for c in res.solution.configs) == 1.0
    assert len(res.result.assignments) == len(R)


def test_missing_column_contributes_full_weight():
    # a column empty on both sides is at distance 1 on every pair, so its
    # weight adds in full to every weighted distance
    names = ["oakdale tigers 1998", "riverton badgers 2007", "maplewood falcons 1998"]
    L = make_table(("name", "note"), [(f"L{i}", (v, "")) for i, v in enumerate(names)])
    R = make_table(
        ("name", "note"), [(f"R{i}", (v + "s", "")) for i, v in enumerate(names)], role="query"
    )
    prep = prepare_columns(L, R, ("name", "note"), enumerate_function_space())
    assert len(prep.pairs.lr_right) > 0 and len(prep.pairs.ll_a) > 0
    assert (prep.d_lr["note"] == 1.0).all()
    assert (prep.d_ll["note"] == 1.0).all()
    assert (prep.d_lr["name"] < 1.0).any()


def two_column_tables(seed=0, n_pairs=16, ambiguous_rate=0.4):
    """Reference entities come in twins whose names differ only by year; a
    city column (drawn from a small shared pool, but always different
    between twins) disambiguates.

    Ambiguity is decided per twin pair and drops the year from both rows,
    which keeps the two years' document frequencies balanced so the
    year-dropped rows tie under every weighting scheme.  Cities repeat
    across entities, so the city column alone ties almost everywhere.
    """
    rng = np.random.default_rng(seed)
    places = ["oakdale", "riverton", "maplewood", "fairview", "ashland",
              "granville", "westfield", "clayton", "hartford", "camden",
              "elmira", "pinehurst", "newberg", "stockton", "salem", "dover"]
    mascots = ["tigers", "badgers", "falcons", "cougars"]
    sports = ["football", "baseball"]
    city_pool = [f"city{i:02d}" for i in range(8)]

    left_rows = []
    right_rows = []
    matches = {}
    rid = 0
    for i in range(n_pairs):
        base = f"{places[i % len(places)]} {rng.choice(mascots)} {rng.choice(sports)} team"
        pair_ambiguous = rng.random() < ambiguous_rate
        twin_cities = rng.choice(city_pool, size=2, replace=False)
        for twin, year in enumerate(("1998", "2007")):
            lid = f"L{2 * i + twin:03d}"
            name = f"{year} {base}"
            city = str(twin_cities[twin])
            left_rows.append((lid, (name, city)))
            r_name = base if pair_ambiguous else name + "."
            r_city = city
            if rng.random() < 0.25:
                pos = int(rng.integers(0, len(r_city)))
                r_city = r_city[:pos] + "x" + r_city[pos + 1 :]
            right_rows.append((f"R{rid:03d}", (r_name, r_city)))
            matches[f"R{rid:03d}"] = lid
            rid += 1
    L = make_table(("name", "city"), left_rows)
    R = make_table(("name", "city"), right_rows, role="query")
    return L, R, matches


class TestSolveMulti:
    def test_single_column_reduces_to_single_solver(self, monkeypatch):
        prepared, handed = [], []

        def prepare_spy(*args):
            prep = prepare_columns(*args)
            # the matrices, which the search drops once they are reduced
            prepared.append((dict(prep.d_lr), dict(prep.d_ll)))
            return prep

        def reduce_spy(pairs, d_lr, d_ll, *args):
            handed.append((d_lr, d_ll))
            return reduce_distances(pairs, d_lr, d_ll, *args)

        monkeypatch.setattr(multicolumn, "prepare_columns", prepare_spy)
        monkeypatch.setattr(multicolumn, "reduce_distances", reduce_spy)
        L, R, gt = generate_synthetic(n_left=40, seed=6, unmatched_rate=0.1)
        multi = solve_multi(L, R, tau=0.9, g=10)
        single = solve(L, R, "name", tau=0.9)
        assert multi.selected_columns == single.selected_columns == ("name",)
        assert multi.weights == single.weights == (1.0,)
        assert multi.result.assignments == single.result.assignments
        assert multi.solution.configs == single.solution.configs
        assert multi.invocations == single.invocations == 1
        # the one reduction gets the prepared matrices themselves, not copies
        assert len(prepared) == len(handed) == 2
        for (d_lr, d_ll), (lr, ll) in zip(prepared, handed):
            assert len(lr) == len(ll) == 1
            assert lr[0] is d_lr["name"] and ll[0] is d_ll["name"]

        # no candidate pairs: both modes give the same empty result
        L2 = make_table(("name",), [("L0", ("aaa bbb",)), ("L1", ("ccc ddd",))])
        R2 = make_table(("name",), [("R0", ("xxx yyy",)), ("R1", ("zzz www",))], role="query")
        multi = solve_multi(L2, R2, tau=0.9, g=10)
        single = solve(L2, R2, "name", tau=0.9)
        assert multi.solution == single.solution
        assert multi.result.assignments == single.result.assignments == {}
        assert any("no candidate pairs" in w for w in multi.warnings)
        assert any("no candidate pairs" in w for w in single.warnings)

    def test_empty_result_warning_names_the_cause(self):
        # pairs survive blocking, but tau = 1.0 cannot be exceeded
        L, R, _ = generate_synthetic(n_left=30, seed=2, unmatched_rate=0.2)
        multi = solve_multi(L, R, tau=1.0, g=10)
        single = solve(L, R, "name", tau=1.0)
        assert multi.pair_counts["lr_pairs"] > 0
        assert multi.result.assignments == single.result.assignments == {}
        for res in (multi, single):
            assert any("precision target" in w for w in res.warnings)
            assert not any("no candidate pairs" in w for w in res.warnings)

        # disjoint vocabularies: nothing survives blocking
        L2 = make_table(("name",), [("L0", ("aaa bbb",)), ("L1", ("ccc ddd",))])
        R2 = make_table(("name",), [("R0", ("xxx yyy",)), ("R1", ("zzz www",))], role="query")
        multi = solve_multi(L2, R2, tau=1.0, g=10)
        single = solve(L2, R2, "name", tau=1.0)
        for res in (multi, single):
            assert any("no candidate pairs" in w for w in res.warnings)
            assert not any("precision target" in w for w in res.warnings)

    def test_disambiguating_second_column_selected(self):
        L, R, gt = two_column_tables(seed=1)
        name_only = solve_multi(L, R, tau=0.9, columns=["name"])
        both = solve_multi(L, R, tau=0.9, g=10)
        assert both.selected_columns[0] == "name"
        assert set(both.selected_columns) == {"name", "city"}
        w = dict(zip(both.selected_columns, both.weights))
        assert w["name"] > w["city"]
        assert both.estimated_recall > name_only.estimated_recall
        # ground truth confirms the combined join is genuinely better
        correct = sum(
            1 for rid, a in both.result.assignments.items() if gt[rid] == a.left_id
        )
        correct_single = sum(
            1
            for rid, a in name_only.result.assignments.items()
            if gt[rid] == a.left_id
        )
        assert correct > correct_single

    def test_forward_pick_is_grid_argmax(self):
        L, R, _ = two_column_tables(seed=1)
        res = solve_multi(L, R, tau=0.9, g=10)
        # each committed step carries the best recall seen so far in trials
        best_by_iteration = {}
        for t in res.trials:
            k = t["iteration"]
            best_by_iteration[k] = max(
                best_by_iteration.get(k, 0.0), t["estimated_recall"]
            )
        running = 0.0
        for i, step in enumerate(res.history, start=1):
            running = max(running, best_by_iteration[i])
            assert step["estimated_recall"] == pytest.approx(running)

    def test_random_column_never_selected(self):
        L, R, gt = generate_synthetic(n_left=40, seed=6, unmatched_rate=0.1)
        base = solve_multi(L, R, tau=0.9, g=10)
        L2 = add_random_column(L, seed=21)
        R2 = add_random_column(R, seed=22)
        noisy = solve_multi(L2, R2, tau=0.9, g=10)
        assert "noise" not in noisy.selected_columns
        assert noisy.result.assignments == base.result.assignments
        assert noisy.invocations <= 2 * 2 * 10

    def test_no_shared_columns_errors(self):
        L = make_table(("a",), [("1", ("x",))])
        R = make_table(("b",), [("2", ("y",))], role="query")
        with pytest.raises(DataError, match=r"\['a'\].*\['b'\]"):
            solve_multi(L, R)
        with pytest.raises(ValueError, match="no columns"):
            solve_multi(L, R, columns=[])

    @pytest.mark.parametrize("s", [0, -3, multicolumn.MAX_STEPS + 1])
    def test_step_count_rejected_before_preparation(self, monkeypatch, s):
        # unchecked, a count below 1 would fail in the reduction, after
        # blocking, rules and distances, and one above the cap would build
        # a (functions x steps) grid there
        prepared = []
        message = re.escape(f"threshold steps must be in [1, {multicolumn.MAX_STEPS}], got {s}")

        def prepare_spy(*args):
            prepared.append(args)
            return prepare_columns(*args)

        monkeypatch.setattr(multicolumn, "prepare_columns", prepare_spy)
        L, R, _ = generate_synthetic(n_left=30, seed=2)
        with pytest.raises(ValueError, match=message):
            solve_multi(L, R, s=s)
        with pytest.raises(ValueError, match=message):
            solve(L, R, "name", s=s)
        assert prepared == []

    def test_weight_step_count_bounded_before_preparation(self, monkeypatch):
        # each round tries g - 1 weights per remaining column, one solve
        # each: over the cap, the search is refused before any column set is
        # prepared; at the cap it runs
        L = make_table(
            ("name", "city"),
            [("1", ("oak tigers", "dover")), ("2", ("elm hawks", "salem")),
             ("3", ("ash owls", "camden"))],
        )
        R = make_table(
            ("name", "city"),
            [("a", ("oak tiger", "dover")), ("b", ("elm hawk", "salem")),
             ("c", ("ash owl", "camdn"))],
            role="query",
        )
        prepared = []

        def prepare_spy(*args):
            prepared.append(args)
            return prepare_columns(*args)

        monkeypatch.setattr(multicolumn, "prepare_columns", prepare_spy)
        with pytest.raises(ValueError, match=re.escape("weight steps must be in [2, 1000], got 1001")):
            solve_multi(L, R, g=multicolumn.MAX_WEIGHT_STEPS + 1)
        assert prepared == []
        res = solve_multi(L, R, g=multicolumn.MAX_WEIGHT_STEPS)
        # a trial for each column from the zero vector, then 999 weights
        # for the column left after the first commit
        assert len(res.trials) == 1001 and res.selected_columns == ("name",)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"tau": 0}, "precision target must be in (0, 1], got 0"),
            ({"tau": 1.5}, "precision target must be in (0, 1], got 1.5"),
            ({"s": 0}, "threshold steps must be in [1, 10000], got 0"),
            ({"s": multicolumn.MAX_STEPS + 1}, "threshold steps must be in [1, 10000], got 10001"),
            ({"g": 1}, "weight steps must be in [2, 1000], got 1"),
            ({"g": 1001}, "weight steps must be in [2, 1000], got 1001"),
            ({"beta": 0}, "blocking factor must be positive and finite, got 0"),
            ({"beta": -1}, "blocking factor must be positive and finite, got -1"),
            ({"beta": float("nan")}, "blocking factor must be positive and finite, got nan"),
            ({"beta": float("inf")}, "blocking factor must be positive and finite, got inf"),
            ({"columns": []}, "no columns to join on"),
            ({"columns": [""]}, "column names must be non-empty, got ['']"),
            ({"columns": ["a", "a"]}, "repeated column names ['a'] in ['a', 'a']"),
        ],
    )
    def test_run_config_and_solve_multi_reject_alike(self, fault, message):
        # one check decides: the CLI's exit 2 and the library's ValueError
        # carry the same message
        with pytest.raises(ConfigError) as config_error:
            RunConfig("left.csv", "right.csv", multi=True, **fault).validate()
        L = make_table(("a",), [("1", ("x",))])
        R = make_table(("a",), [("2", ("x",))], role="query")
        with pytest.raises(ValueError) as value_error:
            solve_multi(L, R, **fault)
        assert str(config_error.value) == str(value_error.value) == message

    def test_empty_function_space_rejected_before_preparation(self, monkeypatch):
        # searched, it joins nothing, stops "exhausted" and warns that
        # every query ties under every join function
        prepared = []

        def prepare_spy(*args):
            prepared.append(args)
            return prepare_columns(*args)

        monkeypatch.setattr(multicolumn, "prepare_columns", prepare_spy)
        L, R, _ = generate_synthetic(n_left=30, seed=0)
        with pytest.raises(ValueError, match="functions is empty"):
            solve_multi(L, R, functions=[])
        with pytest.raises(ValueError, match="functions is empty"):
            solve(L, R, "name", functions=[])
        with pytest.raises(ValueError, match="functions is empty"):
            solve(L, R, "name", functions=iter(()))
        assert prepared == []

    def test_unnamed_column_left_out_by_default_and_rejected_by_name(self):
        # a CSV header's empty cell gives a column named ""
        L = make_table(("", "name"), [("1", ("x", "alpha")), ("2", ("y", "beta"))])
        R = make_table(("", "name"), [("3", ("x", "alpha"))], role="query")
        assert multicolumn.shared_columns(L, R, None) == ["name"]
        with pytest.raises(ValueError, match="non-empty"):
            solve_multi(L, R, columns=["", "name"], g=4)
        L1 = make_table(("",), [("1", ("x",))])
        with pytest.raises(DataError, match="no shared column names"):
            solve_multi(L1, L1)

    def test_repeated_column_names_rejected(self):
        # a repeated name would search one column as several
        L, R, _ = generate_synthetic(n_left=30, seed=2)
        with pytest.raises(ValueError, match=r"repeated column names \['name'\]"):
            solve_multi(L, R, columns=["name", "name"], g=4)

    def test_each_column_set_groups_its_own_distinct_queries(self, monkeypatch):
        # ambiguous twins share a name but not a city: one query in the
        # name set, two in the set of both columns
        L, R, _ = two_column_tables(seed=1)
        preps = {}

        def prepare_spy(L, R, columns, *args):
            preps[columns] = prepare_columns(L, R, columns, *args)
            return preps[columns]

        monkeypatch.setattr(multicolumn, "prepare_columns", prepare_spy)
        solve_multi(L, R, tau=0.9, g=4)
        assert {len(c) for c in preps} == {1, 2}
        for columns, prep in preps.items():
            keys = list(zip(*(R.column_values(c) for c in columns)))
            first_seen = list(dict.fromkeys(keys))
            assert prep.pairs.query.tolist() == [first_seen.index(k) for k in keys]
            assert prep.pair_counts["distinct_queries"] == len(first_seen)
        assert preps[("name",)].pair_counts["distinct_queries"] < len(R)

    def test_invocation_bound(self):
        L, R, _ = two_column_tables(seed=3, n_pairs=8)
        res = solve_multi(L, R, tau=0.9, g=5)
        m = 2
        assert res.invocations <= m * m * 5
        assert res.invocations == len(res.trials)

    def test_solve_timings_summed_over_trials(self, monkeypatch):
        # precompute (the reduction, timed by the trial, and the table fill)
        # and greedy run once per trial, and the manifest reports their
        # total, as it does the preparation stages' over column sets
        L, R, _ = two_column_tables(seed=3, n_pairs=8)

        def fixed_timings(*args):
            res = solve_from_distances(*args)
            res.timings = {"precompute": 0.25, "greedy": 0.125}
            return res

        # a clock that ticks 1.0 per read, so each reduction takes 1.0
        clock = itertools.count()
        monkeypatch.setattr(multicolumn, "time", SimpleNamespace(perf_counter=lambda: float(next(clock))))
        monkeypatch.setattr(multicolumn, "solve_from_distances", fixed_timings)
        res = solve_multi(L, R, tau=0.9, g=5)
        assert res.invocations > 1
        assert res.timings["precompute"] == 1.25 * res.invocations
        assert res.timings["greedy"] == 0.125 * res.invocations

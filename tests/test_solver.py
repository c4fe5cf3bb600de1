import math

import numpy as np
import pytest

import fuzzyjoin.distances as dist_mod
from fuzzyjoin import (
    JoinFunction,
    greedy_select,
    discretize_thresholds,
    enumerate_function_space,
    generate_disjoint_tables,
    generate_synthetic,
    make_table,
    register_plugin,
    solve,
)
from fuzzyjoin.solver import precompute_config_table, prepare_columns
from conftest import (
    dense_greedy,
    make_random_instance,
    oracle_profit,
    oracle_union,
    repeat_queries,
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

    outcome = greedy_select(cfg_left, cfg_prec, tau, np.random.default_rng(seed))
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
    assert list(outcome.cur_left) == left
    if outcome.selected:
        assert outcome.precision > tau


@pytest.mark.parametrize("seed", range(5))
def test_greedy_tp_strictly_increases(seed):
    rng = np.random.default_rng(100 + seed)
    cfg_left, cfg_prec = make_random_instance(rng, dyadic=True)
    outcome = greedy_select(cfg_left, cfg_prec, 0.5, np.random.default_rng(0))
    tps = []
    for i in range(len(outcome.selected)):
        tp, _, _, _ = oracle_union(
            [(cfg_left[c], cfg_prec[c]) for c in outcome.selected[: i + 1]],
            cfg_left.shape[1],
        )
        tps.append(tp)
    assert all(b > a for a, b in zip(tps, tps[1:]))


def test_greedy_reproducible_with_seed():
    rng = np.random.default_rng(42)
    cfg_left, cfg_prec = make_random_instance(rng, n_cfg=32, n_right=20)
    a = greedy_select(cfg_left, cfg_prec, 0.6, np.random.default_rng(5))
    b = greedy_select(cfg_left, cfg_prec, 0.6, np.random.default_rng(5))
    assert a.selected == b.selected


def test_greedy_does_not_recompute_distances():
    rng = np.random.default_rng(7)
    cfg_left, cfg_prec = make_random_instance(rng)
    before = dist_mod.matrix_call_count()
    greedy_select(cfg_left, cfg_prec, 0.8, np.random.default_rng(0))
    assert dist_mod.matrix_call_count() == before


# --- incremental greedy vs the dense loop ------------------------------------


def assert_same_search(cfg_left, cfg_prec, tau, seed):
    """greedy_select and the dense reference loop agree exactly: picks, union
    arrays, tp/fp, stop reason, trace and the random draws consumed."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = greedy_select(cfg_left, cfg_prec, tau, rng_a)
    want = dense_greedy(cfg_left, cfg_prec, tau, rng_b)
    assert got.selected == want.selected
    for name in ("cur_left", "cur_prec", "cur_source"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.tp, got.fp) == (want.tp, want.fp)
    assert got.stop_reason == want.stop_reason
    assert got.trace == want.trace
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
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
        assert_same_search(cfg_left, cfg_prec, tau, seed)


@pytest.fixture(scope="module")
def golden_tables():
    """Configuration tables of the golden "run" input, and of the same input
    with every query row repeated 4 times."""
    L, R, _ = generate_synthetic(n_left=60, seed=0, unmatched_rate=0.2)
    fns = enumerate_function_space()
    tables = []
    for right in (R, repeat_queries(R, 4)):
        prep = prepare_columns(L, right, ("name",), fns)
        d_lr, d_ll, pairs = prep.d_lr["name"], prep.d_ll["name"], prep.pairs
        table = precompute_config_table(
            fns,
            [discretize_thresholds(row, 50) for row in d_lr],
            len(pairs.right_ids), len(pairs.left_ids),
            pairs.lr_right, pairs.lr_left, d_lr, pairs.ll_a, d_ll,
        )
        tables.append((table.left, table.prec))
    return tables


@pytest.mark.parametrize("which", [0, 1], ids=["run", "run-ties"])
@pytest.mark.parametrize("tau", [0.5, 0.9, 0.99])
def test_greedy_matches_dense_loop_on_golden_table(golden_tables, which, tau):
    cfg_left, cfg_prec = golden_tables[which]
    got = assert_same_search(cfg_left, cfg_prec, tau, seed=0)
    assert got.selected


def test_greedy_matches_dense_loop_without_candidates():
    cfg_left = np.full((0, 5), -1, dtype=np.int32)
    got = assert_same_search(cfg_left, np.zeros((0, 5), dtype=np.float32), 0.9, 0)
    assert got.selected == [] and got.stop_reason == "exhausted"


def test_greedy_matches_dense_loop_fp_free():
    rng = np.random.default_rng(3)
    cfg_left, _ = make_random_instance(rng, n_cfg=12, n_right=30)
    cfg_prec = np.where(cfg_left != -1, 1.0, 0.0).astype(np.float32)
    got = assert_same_search(cfg_left, cfg_prec, 0.9, 0)
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
    res = solve(L, R, "name", tau=0.9, seed=0)
    assert len(res.solution.configs) == 1
    assert len(res.result.assignments) == len(R)
    assert all(a.precision == 1.0 for a in res.result.assignments.values())
    assert res.fp == 0.0


def test_tau_one_returns_empty():
    # precision must strictly exceed tau, so tau = 1.0 is unsatisfiable
    L, R = exact_copy_tables()
    res = solve(L, R, "name", tau=1.0, seed=0)
    assert res.solution.configs == ()
    assert res.result.assignments == {}
    assert res.warnings


def test_empty_candidate_space_warns():
    L, R = generate_disjoint_tables(12, 12, seed=1)
    # tiny tables over disjoint vocabularies usually share no trigram at all;
    # force it by using single characters far apart
    L2 = make_table(("name",), [("L0", ("aaa bbb",)), ("L1", ("ccc ddd",))])
    R2 = make_table(("name",), [("R0", ("xxx yyy",)), ("R1", ("zzz www",))], role="query")
    res = solve(L2, R2, "name", tau=0.9, seed=0)
    assert res.solution.configs == ()
    assert any("no candidate pairs" in w for w in res.warnings)


@pytest.mark.parametrize("bad", [float("nan"), 1.5])
def test_invalid_plugin_distance_is_named(bad):
    # a bad plugin value must fail at the distance stage, naming the plugin:
    # NaN otherwise breaks the per-right minima in precompute, and a value
    # above 1 stretches the threshold grid past 1
    register_plugin("bad-solve", lambda a, b: bad)
    fns = [
        JoinFunction("L", "NONE", "NONE", "PLUGIN", plugin="bad-solve"),
        JoinFunction("L", "NONE", "NONE", "ED"),
    ]
    L, R, _ = generate_synthetic(n_left=30, seed=0, unmatched_rate=0.2)
    with pytest.raises(ValueError, match="'bad-solve'"):
        solve(L, R, "name", functions=fns)


def test_nonempty_solution_beats_target():
    rng_seeds = [0, 1]
    for seed in rng_seeds:
        L, R, _ = generate_synthetic(n_left=30, seed=seed, unmatched_rate=0.2)
        res = solve(L, R, "name", tau=0.85, seed=seed)
        if res.solution.configs:
            assert res.estimated_precision > 0.85

"""Acceptance suite: one test per exit criterion.

Each test prints an `ACCEPTANCE <n> <name>: PASS/FAIL` line (run with -s to
see them live).  Tolerances and time budgets are asserted inside the tests
themselves.  The heavier fixtures (the 200-entity synthetic run) are module
scoped and shared between criteria.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from conftest import build_idf_from_values, index_by_id, make_random_instance, write_table_csv
from fuzzyjoin import (
    FunctionSpaceOptions,
    MIXED_PROFILE,
    NegativeRule,
    RunConfig,
    adjusted_recall,
    add_random_column,
    build_index,
    enumerate_function_space,
    generate_disjoint_tables,
    generate_synthetic,
    inject_irrelevant_rows,
    pr_auc,
    preprocess_for_rules,
    run_pipeline,
    score,
    solve,
    solve_multi,
)
from fuzzyjoin.solver import flatten_index, greedy_select
from fuzzyjoin.negative_rules import learn_rules, pair_blocked
from test_blocking import oracle_top_k
from test_estimation import GRID_SCALE, build_grid, oracle_ball_count
from test_evaluation import oracle_pr_auc
from test_solver import oracle_step


def criterion(n: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n:02d} {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {n:02d} {name}: PASS", flush=True)
            return result

        return wrapper

    return decorate


# --- shared expensive runs ----------------------------------------------------


@pytest.fixture(scope="module")
def synthetic200():
    return generate_synthetic(
        n_left=200, profile=MIXED_PROFILE, seed=7, unmatched_rate=0.2
    )


@pytest.fixture(scope="module")
def clean_run(synthetic200):
    L, R, gt = synthetic200
    t0 = time.perf_counter()
    res = solve(L, R, "name", tau=0.9, seed=0)
    elapsed = time.perf_counter() - t0
    return res, elapsed


@criterion(1, "function-space cardinality")
def test_criterion_1_function_space():
    t0 = time.perf_counter()
    assert len(enumerate_function_space()) == 136
    assert (
        len(enumerate_function_space(FunctionSpaceOptions(preprocess=("L", "L+S+RP"))))
        == 68
    )
    assert len(enumerate_function_space(FunctionSpaceOptions.reduced24())) == 24
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "estimator fidelity on the 2-D grid")
def test_criterion_2_grid_estimator():
    t0 = time.perf_counter()
    # safe joins: empty ball around the matched point
    points, precision = build_grid(deleted=set())
    for offset in (0.2, 0.3, 0.45):
        assert precision(offset / GRID_SCALE) == 1.0

    # crowded balls: exactly 1/k with k survivors, for several deletions
    cases = [
        ({(1, 0), (1, 1), (1, -1), (0, 1)}, 0.75, 5),  # the 1/5 case
        ({(1, 0)}, 0.75, 8),
        (set(), 0.55, 5),
    ]
    for deleted, d_units, expected_k in cases:
        points, precision = build_grid(deleted)
        k = oracle_ball_count(points, (0, 0), 2 * d_units)
        assert k == expected_k
        assert precision(d_units / GRID_SCALE) == np.float32(1 / expected_k)
    assert time.perf_counter() - t0 < 5.0


@criterion(3, "greedy pick equals exhaustive argmax")
def test_criterion_3_greedy_exhaustive():
    t0 = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        cfg_left, cfg_prec = make_random_instance(rng, dyadic=True)
        tau = float(rng.choice([0.5, 0.7, 0.9]))
        outcome = greedy_select(
            cfg_prec, np.ones(cfg_left.shape[1], np.int64), tau, np.random.default_rng(seed)
        )
        for i, pick in enumerate(outcome.selected):
            argmax = oracle_step(cfg_left, cfg_prec, outcome.selected[:i], tau)
            assert argmax is not None and pick in argmax
        if len(outcome.selected) < cfg_left.shape[0]:
            assert oracle_step(cfg_left, cfg_prec, outcome.selected, tau) is None
        if outcome.selected:
            assert outcome.precision > tau
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "end-to-end quality on synthetic data")
def test_criterion_4_end_to_end(synthetic200, clean_run):
    L, R, gt = synthetic200
    res, elapsed = clean_run
    report = score(res.result, gt)
    assert report.precision >= 0.80
    assert report.recall_normalized >= 0.60
    assert elapsed < 60.0


@criterion(5, "zero-join robustness")
def test_criterion_5_zero_join():
    t0 = time.perf_counter()
    L, R = generate_disjoint_tables(500, 500, seed=0)
    res = solve(L, R, "name", seed=0)
    assert len(res.result.assignments) / len(R) < 0.05
    assert time.perf_counter() - t0 < 30.0


@criterion(6, "irrelevant-right-rows robustness")
def test_criterion_6_irrelevant_rows(synthetic200, clean_run):
    L, R, gt = synthetic200
    clean_res, _ = clean_run
    clean_recall = score(clean_res.result, gt).recall_absolute
    injected = inject_irrelevant_rows(R, 0.8, seed=0, column="name")
    res = solve(L, injected, "name", tau=0.9, seed=0)
    report = score(res.result, gt)
    assert abs(report.recall_absolute - clean_recall) <= 0.05 * clean_recall
    assert report.precision >= 0.75


@criterion(7, "blocking: oracle agreement, recall, nesting")
def test_criterion_7_blocking(synthetic200):
    L, R, gt = synthetic200  # |L| = 200
    idx = build_index(L, R, "name", beta=1.0)
    lr = index_by_id(idx)[0]
    idf = build_idf_from_values(
        L.column_values("name") + R.column_values("name"), "L", "3G"
    )
    left_rows = list(zip(L.ids(), L.column_values("name")))
    for rid, rvalue in list(zip(R.ids(), R.column_values("name")))[:120]:
        expected = oracle_top_k(left_rows, rvalue, idx.k, idf)
        assert [lid for lid, _ in lr[rid]] == [lid for lid, _ in expected]

    kept = sum(
        1 for rid, lid in gt.matches.items() if lid in [x for x, _ in lr[rid]]
    )
    assert kept / gt.total_true() >= 0.95

    lr_half = index_by_id(build_index(L, R, "name", beta=0.5))[0]
    lr_double = index_by_id(build_index(L, R, "name", beta=2.0))[0]
    for rid in R.ids():
        small = [lid for lid, _ in lr_half[rid]]
        mid = [lid for lid, _ in lr[rid]]
        big = [lid for lid, _ in lr_double[rid]]
        assert set(small) <= set(mid) <= set(big)


@criterion(8, "negative rules match the exhaustive oracle")
def test_criterion_8_negative_rules():
    from fuzzyjoin import make_table
    import itertools

    names = [
        "2007 lsu tigers football team",
        "2008 lsu tigers football team",
        "2007 lsu tigers baseball team",
        "2008 wisconsin badgers football team",
        "2007 wisconsin badgers football team",
        "2008 lsu tigers baseball team",
    ]
    L = make_table(("name",), [(f"L{i}", (v,)) for i, v in enumerate(names)])
    R = make_table(
        ("name",), [("R6", ("2007 lsu tigers baseball team",))], role="query"
    )
    idx = build_index(L, R, "name", beta=10.0)  # large beta: all pairs blocked
    pairs = flatten_index(idx)
    prepped = [preprocess_for_rules(v) for v in names]
    learned = learn_rules(
        (prepped[a], prepped[b]) for a, b in zip(pairs.ll_a, pairs.ll_b)
    )

    expected = set()
    for a, b in itertools.combinations(prepped, 2):
        w1, w2 = set(a.split()), set(b.split())
        if len(w1 - w2) == 1 and len(w2 - w1) == 1:
            expected.add(NegativeRule.of(next(iter(w1 - w2)), next(iter(w2 - w1))))
    assert learned == expected

    sport_rule = NegativeRule.of(
        preprocess_for_rules("football"), preprocess_for_rules("baseball")
    )
    assert sport_rule in learned
    # the famous pair differing only by the sport word is filtered
    l6 = preprocess_for_rules("2007 lsu tigers football team")
    r6 = preprocess_for_rules("2007 lsu tigers baseball team")
    assert pair_blocked(l6, r6, learned)


@criterion(9, "multi-column robustness and invocation bound")
def test_criterion_9_multicolumn():
    L, R, gt = generate_synthetic(n_left=80, seed=5, unmatched_rate=0.1)
    base = solve_multi(L, R, tau=0.9, g=10, seed=0)
    noisy = solve_multi(
        add_random_column(L, seed=11),
        add_random_column(R, seed=12),
        tau=0.9,
        g=10,
        seed=0,
    )
    assert "noise" not in noisy.selected_columns
    assert noisy.result.assignments == base.result.assignments
    m, g = 2, 10
    assert noisy.invocations <= m * m * g


@criterion(10, "metrics: worked example and curve oracle")
def test_criterion_10_metrics():
    curve = [(0.8, 0.8), (0.9, 0.7), (0.92, 0.6), (0.95, 0.5)]
    assert adjusted_recall(curve, 0.91) == 0.7

    rng = np.random.default_rng(17)
    scored = [
        (float(rng.integers(0, 200)) / 200.0, bool(rng.random() < 0.3))
        for _ in range(1000)
    ]
    total_true = max(sum(ok for _, ok in scored), 1)
    assert pr_auc(scored, total_true) == pytest.approx(
        oracle_pr_auc(scored, total_true), abs=1e-9
    )


@criterion(11, "byte-identical determinism")
def test_criterion_11_determinism(tmp_path):
    L, R, _ = generate_synthetic(n_left=60, seed=3, unmatched_rate=0.2)
    left = write_table_csv(L, tmp_path / "left.csv")
    right = write_table_csv(R, tmp_path / "right.csv")
    outputs = []
    for tag in "ab":
        cfg = RunConfig(
            left_path=str(left),
            right_path=str(right),
            column="name",
            seed=11,
            out_path=str(tmp_path / f"joins_{tag}.csv"),
            solution_path=str(tmp_path / f"solution_{tag}.txt"),
        )
        run_pipeline(cfg)
        outputs.append(
            (
                (tmp_path / f"joins_{tag}.csv").read_bytes(),
                (tmp_path / f"solution_{tag}.txt").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]

import pytest
from hypothesis import given, settings, strategies as st
from conftest import build_idf_from_values, index_by_id, scalar_evaluate

from fuzzyjoin import (
    Assignment,
    DROP_ONLY_PROFILE,
    GroundTruth,
    JoinResult,
    TYPO_ONLY_PROFILE,
    adjusted_recall,
    build_index,
    char_distance,
    enumerate_function_space,
    generate_disjoint_tables,
    generate_synthetic,
    inject_irrelevant_rows,
    pr_auc,
    recall_upper_bound,
    score,
    solve,
    tokenize,
)
from fuzzyjoin import solver
from fuzzyjoin.distances import distance_matrix


def jr(pairs: dict[str, str], precision: float = 1.0) -> JoinResult:
    return JoinResult(
        {r: Assignment(l, precision, 0) for r, l in pairs.items()}
    )


class TestScore:
    def test_hand_counted_example(self):
        gt = GroundTruth({f"r{i}": f"l{i}" for i in range(10)})
        pred = {f"r{i}": f"l{i}" for i in range(6)}  # 6 correct
        pred.update({f"r{i}": "l99" for i in range(6, 8)})  # 2 wrong
        report = score(jr(pred), gt)
        assert report.precision == pytest.approx(0.75)
        assert report.recall_absolute == 6
        assert report.recall_normalized == pytest.approx(0.6)

    def test_perfect(self):
        gt = GroundTruth({"r1": "l1"})
        report = score(jr({"r1": "l1"}), gt)
        assert report.precision == 1.0
        assert report.recall_normalized == 1.0

    def test_empty_result(self):
        gt = GroundTruth({"r1": "l1"})
        report = score(jr({}), gt)
        assert report.recall_absolute == 0
        assert report.precision == 1.0
        assert report.zero_coverage

    def test_row_order_invariant(self):
        gt = GroundTruth({"r1": "l1", "r2": "l2"})
        a = score(jr({"r1": "l1", "r2": "l9"}), gt)
        b = score(jr({"r2": "l9", "r1": "l1"}), gt)
        assert a == b


class TestAdjustedRecall:
    CURVE = [(0.8, 0.8), (0.9, 0.7), (0.92, 0.6), (0.95, 0.5)]

    def test_worked_example(self):
        assert adjusted_recall(self.CURVE, 0.91) == pytest.approx(0.7)

    def test_no_qualifying_point(self):
        assert adjusted_recall([(0.95, 0.5)], 0.9) == 0.0

    def test_boundary_inclusive(self):
        assert adjusted_recall([(0.9, 0.42)], 0.9) == pytest.approx(0.42)

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=12
        ),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    def test_selected_precision_monotone_in_target(self, curve, t1, t2):
        # On a precision/recall tradeoff curve the reported recall falls as
        # the target rises (see the worked example), but the precision of
        # the selected point can only move toward the target.
        lo, hi = sorted((t1, t2))

        def selected_precision(target):
            qualifying = [p for p, _ in curve if p <= target]
            return max(qualifying) if qualifying else -1.0

        assert selected_precision(lo) <= selected_precision(hi)


def oracle_pr_auc(scored, total_true):
    """Brute-force threshold enumeration and trapezoid integration."""
    thresholds = sorted({s for s, _ in scored}, reverse=True)
    points = []
    for th in thresholds:
        predicted = [(s, ok) for s, ok in scored if s >= th]
        correct = sum(1 for _, ok in predicted if ok)
        points.append((correct / total_true, correct / len(predicted)))
    area = 0.0
    prev_r, prev_p = 0.0, points[0][1]
    for r, p in points:
        area += (r - prev_r) * (p + prev_p) / 2
        prev_r, prev_p = r, p
    return area


class TestPrAuc:
    def test_perfect_ranking(self):
        scored = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
        assert pr_auc(scored, 2) == pytest.approx(1.0)

    def test_single_correct_pair(self):
        assert pr_auc([(0.5, True)], 1) == pytest.approx(1.0)

    def test_reverse_ranking_matches_oracle(self):
        scored = [(i / 10, i == 9) for i in range(10)]
        scored_rev = [(1 - s, ok) for s, ok in scored]
        assert pr_auc(scored_rev, 1) == pytest.approx(
            oracle_pr_auc(scored_rev, 1), abs=1e-9
        )

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.booleans()), min_size=1, max_size=40
        )
    )
    def test_matches_oracle(self, raw):
        scored = [(s / 8.0, ok) for s, ok in raw]
        total_true = max(sum(ok for _, ok in scored), 1)
        assert pr_auc(scored, total_true) == pytest.approx(
            oracle_pr_auc(scored, total_true), abs=1e-9
        )

    def test_requires_positive_total(self):
        with pytest.raises(ValueError):
            pr_auc([(0.5, True)], 0)

    @pytest.mark.parametrize("nan_at", [0, 1])
    def test_nan_score_raises(self, nan_at):
        # a NaN score equals no score, not even itself, so a tie loop over
        # the ranking never gets past it
        scored = [(0.5, True)]
        scored.insert(nan_at, (float("nan"), False))
        with pytest.raises(ValueError, match="NaN"):
            pr_auc(scored, 1)


def loop_recall_upper_bound(L, R, column, gt, functions, beta):
    """The recall bound one true match at a time: its left must be among its
    right's blocked candidates at the minimum scalar distance under some
    function."""
    lr = index_by_id(build_index(L, R, column, beta))[0]
    lv = dict(zip(L.ids(), L.column_values(column)))
    rv = dict(zip(R.ids(), R.column_values(column)))
    corpus = list(lv.values()) + list(rv.values())
    idf = {
        (f.preprocess, f.tokenizer): build_idf_from_values(corpus, f.preprocess, f.tokenizer)
        for f in functions
        if f.weights == "IDFW"
    }
    hits = 0
    for rid, lid in gt.matches.items():
        cands = [l for l, _ in lr.get(rid, [])]
        for f in functions:
            f_idf = idf.get((f.preprocess, f.tokenizer))
            d = {l: scalar_evaluate(f, lv[l], rv[rid], f_idf) for l in cands}
            if lid in d and d[lid] == min(d.values()):
                hits += 1
                break
    return hits / gt.total_true()


class TestRecallUpperBound:
    def test_feasible_when_nearest_under_some_function(self):
        L, R, gt = generate_synthetic(n_left=30, seed=1, unmatched_rate=0.0)
        ubr = recall_upper_bound(L, R, "name", gt, enumerate_function_space())
        assert ubr >= 0.95

    def test_lexically_disjoint_pair_infeasible(self):
        from fuzzyjoin import make_table

        L = make_table(("name",), [("l1", ("aaa bbb",)), ("l2", ("qqq rrr",))])
        R = make_table(("name",), [("r1", ("aaa bbc",))], role="query")
        gt = GroundTruth({"r1": "l2"})  # semantically related, lexically unrelated
        ubr = recall_upper_bound(L, R, "name", gt, enumerate_function_space())
        assert ubr == 0.0

    # indices into the full function space; in the second case some true
    # match is nearest under one function only
    @pytest.mark.parametrize(
        "seed, picks, beta", [(2, (0, 16, 96), 0.1), (3, (0, 16, 96), 0.1), (3, (20, 70), 0.5)]
    )
    def test_matches_loop_oracle(self, monkeypatch, seed, picks, beta):
        L, R, gt = generate_synthetic(n_left=80, seed=seed, unmatched_rate=0.3)
        fns = [enumerate_function_space()[i] for i in picks]
        calls = []

        def spy(functions, pairs, corpus=None, threads=1):
            calls.append(len(pairs))
            return distance_matrix(functions, pairs, corpus, threads)

        monkeypatch.setattr(solver, "distance_matrix", spy)
        ubr = recall_upper_bound(L, R, "name", gt, fns, beta)
        # one call, over the cross-table pairs of each distinct right value's
        # first record followed by the self-join pairs
        lr, ll = index_by_id(build_index(L, R, "name", beta))
        first: dict[str, str] = {}
        for rid, value in zip(R.ids(), R.column_values("name")):
            first.setdefault(value, rid)
        n_lr = sum(len(lr[rid]) for rid in first.values())
        assert n_lr < sum(map(len, lr.values()))  # some right values repeat
        assert calls == [n_lr + sum(map(len, ll.values()))]
        assert ubr < 1.0
        assert ubr == loop_recall_upper_bound(L, R, "name", gt, fns, beta)

    def test_bounds_any_solution(self):
        L, R, gt = generate_synthetic(n_left=40, seed=8, unmatched_rate=0.1)
        fns = enumerate_function_space()
        ubr = recall_upper_bound(L, R, "name", gt, fns)
        res = solve(L, R, "name", tau=0.9)
        achieved = score(res.result, gt).recall_normalized
        assert ubr >= achieved - 1e-12


class TestGenerator:
    def test_typo_only_stays_close_in_edit_distance(self):
        L, R, gt = generate_synthetic(
            n_left=40, profile=TYPO_ONLY_PROFILE, seed=3
        )
        left_by_id = {rec.id: rec.values[0] for rec in L.records}
        for rec in R.records:
            true_left = left_by_id[gt.matches[rec.id]]
            assert char_distance(rec.values[0], true_left, "ED") <= 0.2

    def test_drop_only_keeps_token_subset(self):
        L, R, gt = generate_synthetic(
            n_left=40, profile=DROP_ONLY_PROFILE, seed=3
        )
        left_by_id = {rec.id: rec.values[0] for rec in L.records}
        for rec in R.records:
            true_left = left_by_id[gt.matches[rec.id]]
            r_tokens = set(tokenize(rec.values[0], "SP"))
            l_tokens = set(tokenize(true_left, "SP"))
            assert r_tokens <= l_tokens

    def test_unmatched_rate(self):
        L, R, gt = generate_synthetic(n_left=100, seed=5, unmatched_rate=0.2)
        frac = 1 - gt.total_true() / len(R)
        assert 0.1 <= frac <= 0.3

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.2, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        # 1.0 would divide by zero, and 1.5 or -0.2 would add no row
        with pytest.raises(ValueError, match="unmatched_rate must be in"):
            generate_synthetic(n_left=20, seed=1, unmatched_rate=rate)
        _, R, _ = generate_synthetic(n_left=20, seed=1)
        with pytest.raises(ValueError, match="rate must be in"):
            inject_irrelevant_rows(R, rate)

    def test_deterministic_by_seed(self):
        a = generate_synthetic(n_left=20, seed=9)
        b = generate_synthetic(n_left=20, seed=9)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_left_names_distinct(self):
        L, _, _ = generate_synthetic(n_left=150, seed=4)
        values = L.column_values("name")
        assert len(set(values)) == len(values)

    def test_disjoint_tables_share_no_words(self):
        L, R = generate_disjoint_tables(30, 30, seed=2)
        lw = {w for v in L.column_values("name") for w in v.split()}
        rw = {w for v in R.column_values("name") for w in v.split()}
        assert lw.isdisjoint(rw)


class TestBlockingFactor:
    def test_beta_sweep_stable_beyond_one(self):
        L, R, gt = generate_synthetic(n_left=60, seed=13, unmatched_rate=0.1)
        r1, r2 = (score(solve(L, R, "name", beta=b).result, gt) for b in (1.0, 2.0))
        base = max(r1.recall_absolute, 1)
        assert abs(r1.recall_absolute - r2.recall_absolute) <= 0.05 * base
        assert abs(r1.precision - r2.precision) <= 0.05

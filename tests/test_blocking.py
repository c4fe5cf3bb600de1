import pytest

from conftest import build_idf_from_values, index_by_id
from fuzzyjoin import (
    apply_preprocess,
    blocking_cutoff,
    build_index,
    generate_synthetic,
    make_table,
    solve,
    tokenize,
)


def oracle_top_k(left_rows, right_value, k, idf, skip_id=None):
    """All-pairs reference: score = summed IDF of shared distinct trigrams
    (accumulated in sorted token order), top k by (-score, id)."""
    q_tokens = sorted(tokenize(apply_preprocess(right_value, "L"), "3G"))
    scored = []
    for lid, lvalue in left_rows:
        if lid == skip_id:
            continue
        l_tokens = set(tokenize(apply_preprocess(lvalue, "L"), "3G"))
        score = 0.0
        for t in q_tokens:
            if t in l_tokens:
                score += idf.weight(t)
        if score > 0.0:
            scored.append((lid, score))
    scored.sort(key=lambda x: (-x[1], x[0]))
    return scored[:k]


def small_tables():
    left_rows = [
        ("L0", "madison falcons football"),
        ("L1", "madison falcons baseball"),
        ("L2", "oakdale hornets soccer"),
        ("L3", "riverton cougars hockey"),
        ("L4", "zzz qqq vvv"),
    ]
    right_rows = [
        ("R0", "madison falcon football"),
        ("R1", "oakdale hornet soccer"),
        ("R2", "jjpp wwxx jpwx"),  # no trigram in common with any left value
    ]
    L = make_table(("name",), [(i, (v,)) for i, v in left_rows])
    R = make_table(("name",), [(i, (v,)) for i, v in right_rows], role="query")
    return L, R, left_rows, right_rows


class TestCutoff:
    def test_sqrt_cutoff(self):
        assert blocking_cutoff(100, 1.0) == 10

    def test_beta_scales(self):
        assert blocking_cutoff(100, 2.0) == 20

    def test_ceil(self):
        assert blocking_cutoff(10, 1.0) == 4


class TestBuildIndex:
    def test_matches_all_pairs_oracle(self):
        L, R, left_rows, right_rows = small_tables()
        idx = build_index(L, R, "name", beta=2.0)
        lr, ll = index_by_id(idx)
        idf = build_idf_from_values(
            [v for _, v in left_rows] + [v for _, v in right_rows], "L", "3G"
        )
        for rid, rvalue in right_rows:
            expected = oracle_top_k(left_rows, rvalue, idx.k, idf)
            got = lr[rid]
            assert [lid for lid, _ in got] == [lid for lid, _ in expected]
            for (_, s1), (_, s2) in zip(got, expected):
                assert s1 == s2
        for lid, lvalue in left_rows:
            expected = oracle_top_k(left_rows, lvalue, idx.k, idf, skip_id=lid)
            assert [x for x, _ in ll[lid]] == [x for x, _ in expected]

    def test_oracle_agreement_on_synthetic(self):
        L, R, _ = generate_synthetic(n_left=40, seed=9, unmatched_rate=0.1)
        idx = build_index(L, R, "name", beta=1.0)
        lr = index_by_id(idx)[0]
        left_rows = list(zip(L.ids(), L.column_values("name")))
        idf = build_idf_from_values(
            L.column_values("name") + R.column_values("name"), "L", "3G"
        )
        for rid, rvalue in zip(R.ids(), R.column_values("name")):
            expected = oracle_top_k(left_rows, rvalue, idx.k, idf)
            assert [lid for lid, _ in lr[rid]] == [lid for lid, _ in expected]

    def test_no_shared_tokens_empty_candidates(self):
        L, R, *_ = small_tables()
        idx = build_index(L, R, "name", beta=1.0)
        assert index_by_id(idx)[0]["R2"] == []

    def test_no_self_pairs(self):
        L, R, *_ = small_tables()
        idx = build_index(L, R, "name", beta=4.0)
        for lid, cands in index_by_id(idx)[1].items():
            assert lid not in [x for x, _ in cands]

    def test_beta_nesting(self):
        L, R, gt = generate_synthetic(n_left=50, seed=4, unmatched_rate=0.1)
        lr_small = index_by_id(build_index(L, R, "name", beta=0.5))[0]
        lr_big = index_by_id(build_index(L, R, "name", beta=2.0))[0]
        for rid in R.ids():
            small = [lid for lid, _ in lr_small[rid]]
            big = [lid for lid, _ in lr_big[rid]]
            assert set(small) <= set(big)
            # shared prefix order is identical (same ranking, longer cut)
            assert big[: len(small)] == small

    def test_candidate_lists_bounded(self):
        L, R, _ = generate_synthetic(n_left=50, seed=4)
        idx = build_index(L, R, "name", beta=1.0)
        lr, ll = index_by_id(idx)
        for cands in list(lr.values()) + list(ll.values()):
            assert len(cands) <= idx.k

    def test_blocking_recall_on_synthetic(self):
        L, R, gt = generate_synthetic(n_left=100, seed=11, unmatched_rate=0.2)
        lr = index_by_id(build_index(L, R, "name", beta=1.0))[0]
        kept = sum(
            1
            for rid, lid in gt.matches.items()
            if lid in [x for x, _ in lr[rid]]
        )
        assert kept / gt.total_true() >= 0.95

    def test_invalid_beta(self):
        L, R, *_ = small_tables()
        with pytest.raises(ValueError):
            build_index(L, R, "name", beta=0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_beta_names_the_blocking_factor(self, beta):
        # not a numeric error from the cutoff's math.ceil
        L, R, *_ = small_tables()
        with pytest.raises(ValueError, match="blocking factor"):
            build_index(L, R, "name", beta=beta)
        with pytest.raises(ValueError, match="blocking factor"):
            solve(L, R, "name", beta=beta)


class TestIndexStats:
    """Stored pair counts of the index."""

    def test_counts_match_recount(self):
        L, R, _ = generate_synthetic(n_left=30, seed=2)
        idx = build_index(L, R, "name", beta=1.0)
        lr, ll = index_by_id(idx)
        lr_pairs = sum(len(v) for v in lr.values())
        ll_pairs = sum(len(v) for v in ll.values())
        assert lr_pairs <= len(R) * idx.k
        assert ll_pairs <= len(L) * idx.k

    def test_empty_right_table(self):
        L, *_ = small_tables()
        R = make_table(("name",), [], role="query")
        idx = build_index(L, R, "name", beta=1.0)
        assert index_by_id(idx)[0] == {}

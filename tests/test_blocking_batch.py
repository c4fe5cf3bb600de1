"""The batched blocking engine against the per-row loop it replaced, and the
negative-rule filter over token ids against the per-pair loop over words."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import index_by_id, loop_build_index, token_strings
import fuzzyjoin.solver as solver
from fuzzyjoin import (
    NegativeRule,
    add_random_column,
    blocking,
    build_index,
    distances,
    enumerate_function_space,
    generate_synthetic,
    make_table,
)
from fuzzyjoin.distances import ColumnStrings, _Tokens
from fuzzyjoin.negative_rules import RULE_PREPROCESS, pair_blocked
from fuzzyjoin.solver import BlockedPairs, filter_lr_by_rules, flatten_index, prepare_columns

WORK = [1, 3, blocking._BLOCK_WORK]


def tables(left_values, right_values, left_ids=None):
    left_ids = left_ids or [f"L{i}" for i in range(len(left_values))]
    L = make_table(("name",), [(i, (v,)) for i, v in zip(left_ids, left_values)])
    R = make_table(
        ("name",), [(f"R{j}", (v,)) for j, v in enumerate(right_values)], role="query"
    )
    return L, R


def assert_matches_loop(L, R, beta):
    """Same pairs in the same order, and the same score bytes, as the loop;
    the views equal the loop's lists."""
    idx = build_index(L, R, "name", beta)
    lr, ll = loop_build_index(L, R, "name", beta)
    left_pos = {lid: i for i, lid in enumerate(L.ids())}
    for got, lists, query_ids in ((idx.lr_pairs, lr, R.ids()), (idx.ll_pairs, ll, L.ids())):
        want = [(q, left_pos[lid], s) for q, qid in enumerate(query_ids) for lid, s in lists[qid]]
        assert got.query.tolist() == [q for q, _, _ in want]
        assert got.left.tolist() == [l for _, l, _ in want]
        assert got.score.tobytes() == np.array([s for *_, s in want], dtype=np.float64).tobytes()
    by_id = index_by_id(idx)
    assert by_id == (lr, ll) and [list(d) for d in by_id] == [list(lr), list(ll)]


WORDS = ["ab", "abc", "bca", "oak", "OAK", "oaks", "x", "", "abc abc", "tigers"]


@st.composite
def blocking_cases(draw):
    """Tables over a few short words: values repeated within and across the
    tables (also up to case), empty and 1-2 character values, tied scores,
    and left ids whose sorted order is not their row order ("L10" < "L2")."""
    value = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)
    left_values = draw(st.lists(value, min_size=1, max_size=12))
    left_ids = [f"L{i}" for i in draw(st.permutations(range(len(left_values))))]
    right_values = draw(st.lists(st.one_of(value, st.sampled_from(left_values)), max_size=12))
    beta = draw(st.sampled_from([0.3, 1.0, 5.0]))  # 5: k >= every hit count
    return (*tables(left_values, right_values, left_ids), beta)


class TestMatchesLoop:
    @given(blocking_cases(), st.sampled_from(WORK))
    def test_random_tables(self, case, work):
        with mock.patch.object(blocking, "_BLOCK_WORK", work):
            assert_matches_loop(*case)

    @pytest.mark.parametrize("work", WORK)
    @pytest.mark.parametrize(
        "left, right",
        [
            (["oak tigers"], ["oak tigers", "Oak Tigers", "pine", ""]),  # n_left = 1
            ([], ["oak"]),  # empty L
            (["oak tigers", "oak bears", "pine"], []),  # empty R
            (["", "ab", "a", "ab"], ["ab", "", "a", "abc"]),  # empty and short values
            # equal values and tied scores: the smaller id goes first
            (["oak", "oak", "oak", "bear oak", "oak"], ["oak", "bear"]),
            (["b c", "a c", "a b", "c d"], ["a b c d"]),  # k >= hits
        ],
    )
    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_edge_cases(self, work, left, right, beta):
        ids = [f"L{(7 * i) % 11}" for i in range(len(left))]
        with mock.patch.object(blocking, "_BLOCK_WORK", work):
            assert_matches_loop(*tables(left, right, ids), beta)

    def test_synthetic_column_set(self):
        L, R, _ = generate_synthetic(n_left=40, seed=5, unmatched_rate=0.2)
        L, R = add_random_column(L, seed=1), add_random_column(R, seed=2)
        joined = make_table(("name",), [(i, (v,)) for i, v in zip(L.ids(), L.joined_values(L.columns))])
        query = make_table(
            ("name",), [(i, (v,)) for i, v in zip(R.ids(), R.joined_values(R.columns))], role="query"
        )
        idx = build_index(L, R, L.columns, 1.0)
        lr, ll = loop_build_index(joined, query, "name", 1.0)
        assert index_by_id(idx) == (lr, ll)


def test_each_distinct_value_tokenized_and_scored_once(monkeypatch):
    left = ["Oak Tigers", "oak tigers", "pine bears", "pine bears", ""]
    right = ["oak tigers", "OAK TIGERS", "pine bears", "elm", "elm", "elm", ""]
    passes, scored = [], []
    tokenize_strings, rank = distances.tokenize_strings, blocking._rank_values

    def spy_tokenize(strings, tokenizer):
        passes.append((tokenizer, list(strings)))
        return tokenize_strings(strings, tokenizer)

    def spy_rank(bounds, *args):
        scored.append(len(bounds) - 1)
        return rank(bounds, *args)

    monkeypatch.setattr(distances, "tokenize_strings", spy_tokenize)
    monkeypatch.setattr(blocking, "_rank_values", spy_rank)
    build_index(*tables(left, right), "name", 1.0)
    distinct = {v.lower() for v in left + right}
    # one pass of the values' own string table, which holds each distinct
    # lowercased value once
    [(tokenizer, strings)] = passes
    assert tokenizer == "3G"
    assert sorted(strings) == sorted(distinct)
    assert scored == [len(distinct)]


# whitespace runs, repeated trigrams, astral code points and a lone
# surrogate, which order by code point as Python strings do
RANK_TEXT = st.lists(
    st.sampled_from(["a", "B", "é", "\U0001F600", "\ud83d", " ", "\t", "\xa0"]), max_size=8
).map("".join)


@given(st.lists(RANK_TEXT, max_size=8), st.lists(RANK_TEXT, max_size=8))
def test_trigram_rank_is_token_string_order(left, right):
    # each value's distinct trigrams are scored in the sorted order of their
    # token strings, which blocking ranks by packed trigram code
    passes, scored = [], []
    tokenize_strings, rank = distances.tokenize_strings, blocking._rank_values

    def spy_tokenize(strings, tokenizer):
        passes.append(tokenize_strings(strings, tokenizer))
        return passes[-1]

    def spy_rank(bounds, tokens, *args):
        scored.append((bounds, tokens))
        return rank(bounds, tokens, *args)

    with mock.patch.object(distances, "tokenize_strings", spy_tokenize), mock.patch.object(
        blocking, "_rank_values", spy_rank
    ):
        build_index(*tables(left, right), "name", 1.0)
    [(vocab, sizes, _, _)] = passes
    [(bounds, tokens)] = scored
    names = token_strings(vocab)
    assert bounds.tolist() == [0, *np.cumsum(sizes).tolist()]
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        value = [names[t] for t in tokens[lo:hi].tolist()]
        assert value == sorted(set(value))


def solver_table(L, R, column):
    """The string table ``prepare_columns`` builds for a column and passes to
    its one-column blocking: every preprocess option of the function space,
    blocking's L and the rules' option included."""
    values = L.column_values(column) + R.column_values(column)
    return ColumnStrings(FUNCTIONS, values, options=("L", RULE_PREPROCESS))


FUNCTIONS = enumerate_function_space()


def assert_same_index(got, want):
    for a, b in ((got.lr_pairs, want.lr_pairs), (got.ll_pairs, want.ll_pairs)):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert (got.left_ids, got.right_ids, got.k) == (want.left_ids, want.right_ids, want.k)


class TestSharedTable:
    """Blocking over a column's shared string table, whose strings include
    other options' and whose 3G pass also serves the set kernel, equals
    blocking over a table of its own, and the per-row loop."""

    @given(blocking_cases())
    def test_random_tables(self, case):
        L, R, beta = case
        got = build_index(L, R, "name", beta, solver_table(L, R, "name"))
        assert_same_index(got, build_index(L, R, "name", beta))
        assert index_by_id(got) == loop_build_index(L, R, "name", beta)

    def test_solver_table(self):
        # the very table prepare_columns keeps for later column sets
        L, R, _ = generate_synthetic(n_left=40, seed=5, unmatched_rate=0.2)
        tables = {}
        prepare_columns(L, R, ("name",), FUNCTIONS, tables=tables)
        for beta in (0.5, 1.0, 3.0):
            got = build_index(L, R, "name", beta, tables["name"])
            assert_same_index(got, build_index(L, R, "name", beta))
            assert index_by_id(got) == loop_build_index(L, R, "name", beta)


class TestViews:
    def test_every_query_id_present(self):
        L, R = tables(["oak", "pine"], ["oak", "zzzz", "pine"])
        lr, ll = index_by_id(build_index(L, R, "name", 1.0))
        assert list(lr) == ["R0", "R1", "R2"]
        assert lr["R1"] == []
        assert list(ll) == ["L0", "L1"] and ll["L0"] == []

    def test_flattened_pairs_sorted(self):
        L, R = tables(["oak b", "oak a", "oak c"], ["oak", "oak a"], ["L2", "L0", "L1"])
        pairs = flatten_index(build_index(L, R, "name", 3.0))
        assert list(zip(pairs.lr_right.tolist(), pairs.lr_left.tolist())) == sorted(
            zip(pairs.lr_right.tolist(), pairs.lr_left.tolist())
        )
        assert pairs.lr_right.dtype == pairs.ll_a.dtype == np.int64
        assert list(zip(pairs.ll_a.tolist(), pairs.ll_b.tolist())) == [
            (a, b) for a in range(3) for b in range(3) if a != b
        ]


@st.composite
def rule_cases(draw):
    """Blocked pairs over values that differ by one word, with one or two
    columns of rules."""
    words = st.sampled_from(["2007", "2008", "lsu", "football", "baseball", "team"])
    value = st.lists(words, min_size=1, max_size=4).map(" ".join)
    n_left, n_right = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n_right - 1), st.integers(0, n_left - 1))
    lr = sorted(set(draw(st.lists(pair, min_size=1, max_size=30))))
    rule = st.builds(NegativeRule.of, words, words)
    columns = [
        (
            draw(st.lists(value, min_size=n_left, max_size=n_left)),
            draw(st.lists(value, min_size=n_right, max_size=n_right)),
            draw(st.sets(rule, max_size=3)),
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    pairs = BlockedPairs(
        [f"L{i}" for i in range(n_left)],
        [f"R{j}" for j in range(n_right)],
        np.array([r for r, _ in lr], dtype=np.int64),
        np.array([l for _, l in lr], dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.arange(n_right),
    )
    return pairs, columns


def token_rules(lv, rv, rules):
    """One column's ``filter_lr_by_rules`` entry: the SP tokenization of
    its distinct values, taken as rule-preprocessed strings, the string ids
    of the left values and of the query values, and the codes of the rules
    whose words the strings hold (no other rule can match)."""
    strings = list(dict.fromkeys(lv + rv))
    words = _Tokens(strings, "SP")
    ids = {w: i for i, w in enumerate(words.vocab)}
    codes = sorted(
        {
            min(ids[r.word_a], ids[r.word_b]) * words.n_vocab + max(ids[r.word_a], ids[r.word_b])
            for r in rules
            if r.word_a in ids and r.word_b in ids
        }
    )
    index = {v: i for i, v in enumerate(strings)}
    return (
        words,
        np.array([index[v] for v in lv], dtype=np.int64),
        np.array([index[v] for v in rv], dtype=np.int64),
        np.array(codes, dtype=np.int64),
    )


@given(rule_cases())
def test_rule_filter_matches_per_pair_loop(case):
    pairs, columns = case
    keep = [
        not any(pair_blocked(lv[l], rv[r], rules) for lv, rv, rules in columns)
        for r, l in zip(pairs.lr_right, pairs.lr_left)
    ]
    out, dropped = filter_lr_by_rules(pairs, [token_rules(*c) for c in columns])
    assert dropped == keep.count(False)
    assert out.lr_right.tolist() == pairs.lr_right[keep].tolist()
    assert out.lr_left.tolist() == pairs.lr_left[keep].tolist()
    assert out.left_ids is pairs.left_ids


def test_rule_filter_calls_once_per_distinct_value_pair(monkeypatch):
    calls = []

    def spy(words, codes, a, b, run=solver.pairs_blocked):
        calls.extend(zip(a.tolist(), b.tolist()))
        return run(words, codes, a, b)

    monkeypatch.setattr(solver, "pairs_blocked", spy)
    lv = ["lsu football", "lsu baseball", "lsu football"]
    rv = ["lsu baseball", "lsu baseball"]
    pairs = BlockedPairs(
        ["L0", "L1", "L2"],
        ["R0", "R1"],
        np.array([0, 0, 0, 1, 1, 1]),
        np.array([0, 1, 2, 0, 1, 2]),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.arange(2),
    )
    rules = {NegativeRule.of("football", "baseball")}
    column = token_rules(lv, rv, rules)
    out, dropped = filter_lr_by_rules(pairs, [column])
    strings = list(dict.fromkeys(lv + rv))
    assert sorted((strings[a], strings[b]) for a, b in calls) == sorted(
        {("lsu football", "lsu baseball"), ("lsu baseball", "lsu baseball")}
    )
    assert dropped == 4
    assert out.lr_left.tolist() == [1, 1]

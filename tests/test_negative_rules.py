import itertools
from collections import Counter

from hypothesis import given, settings, strategies as st

from fuzzyjoin import (
    NegativeRule,
    build_index,
    dump_rules,
    enumerate_function_space,
    learn_rules,
    make_table,
    pair_blocked,
    preprocess_for_rules,
    word_delta,
)
from fuzzyjoin.functions import SPACE_PRESETS
from fuzzyjoin.solver import flatten_index, group_queries, prepare_columns


def prep(values):
    return [preprocess_for_rules(v) for v in values]


class TestWordDelta:
    def test_single_word_difference(self):
        a, b = prep(["2008 lsu tigers baseball team", "2008 lsu tigers football team"])
        # stems of the two sports differ; everything else matches
        delta = word_delta(a, b)
        assert delta is not None
        assert set(delta) == {
            preprocess_for_rules("baseball"),
            preprocess_for_rules("football"),
        }

    def test_identical_no_delta(self):
        a, b = prep(["same thing", "same thing"])
        assert word_delta(a, b) is None

    def test_two_word_difference_no_delta(self):
        a, b = prep(["red fox den", "blue wolf den"])
        assert word_delta(a, b) is None

    def test_subset_no_delta(self):
        a, b = prep(["alpha beta gamma", "alpha beta"])
        assert word_delta(a, b) is None


class TestLearnRules:
    def test_sport_swap_learned(self):
        a, b = prep(["2008 lsu tigers baseball team", "2008 lsu tigers football team"])
        rules = learn_rules([(a, b)])
        assert rules == {
            NegativeRule.of(
                preprocess_for_rules("baseball"), preprocess_for_rules("football")
            )
        }

    def test_year_swap_learned(self):
        a, b = prep(["2007 wisconsin badgers football team",
                     "2008 wisconsin badgers football team"])
        assert learn_rules([(a, b)]) == {NegativeRule.of("2007", "2008")}

    def test_exhaustive_oracle_on_team_names(self):
        values = prep(
            [
                "2007 lsu tigers football team",
                "2008 lsu tigers football team",
                "2008 lsu tigers baseball team",
                "2008 auburn tigers football team",
                "2008 lsu tigers football club",
                "completely different thing here",
            ]
        )
        pairs = list(itertools.combinations(values, 2))
        # independent oracle: raw set arithmetic per definition
        expected = set()
        for a, b in pairs:
            w1, w2 = set(a.split()), set(b.split())
            if len(w1 - w2) == 1 and len(w2 - w1) == 1:
                x, y = next(iter(w1 - w2)), next(iter(w2 - w1))
                expected.add(NegativeRule.of(x, y))
        assert learn_rules(pairs) == expected
        assert NegativeRule.of("2007", "2008") in expected


class TestApplyRules:
    def test_filters_learned_swap(self):
        l, r = prep(["2007 lsu tigers football team", "2007 lsu tigers baseball team"])
        rules = learn_rules([(l, r)])
        assert pair_blocked(l, r, rules)

    def test_symmetric(self):
        rules = {NegativeRule.of("football", "basebal")}
        a, b = "x football y", "x basebal y"
        assert pair_blocked(a, b, rules) and pair_blocked(b, a, rules)

    def test_extra_word_exempts(self):
        rules = {NegativeRule.of("football", "baseball")}
        pair = ("big lsu football team", "lsu baseball team")
        assert not pair_blocked(*pair, rules)

    def test_empty_rule_set_identity(self):
        pairs = [("a b", "a c"), ("x", "y")]
        assert not any(pair_blocked(a, b, set()) for a, b in pairs)

    def test_idempotent_filter(self):
        rules = {NegativeRule.of("red", "blue")}
        pairs = [("red car", "blue car"), ("red car", "red car")]
        survivors = [p for p in pairs if not pair_blocked(*p, rules)]
        assert survivors == [("red car", "red car")]
        assert not any(pair_blocked(*p, rules) for p in survivors)


def test_dump_rules_sorted(tmp_path):
    rules = {NegativeRule.of("zeta", "alpha"), NegativeRule.of("b", "a")}
    path = tmp_path / "rules.tsv"
    dump_rules(rules, path)
    assert path.read_text() == "a\tb\nalpha\tzeta\n"


# words whose rule-preprocessed forms repeat, vanish or are not ASCII
RULE_WORDS = [
    "2007", "2008", "lsu", "tigers", "Football", "baseball", "team", "Team!",
    "équipe", "Équipe", "…", "--", "running", "runs", "foot-ball",
]
RULE_SPACES = {
    "full": enumerate_function_space(),
    "reduced24": enumerate_function_space(SPACE_PRESETS["reduced24"]),
    # no function preprocesses as the rules do
    "L only": [f for f in enumerate_function_space(SPACE_PRESETS["reduced24"]) if f.preprocess == "L"],
}


@st.composite
def rule_tables(draw):
    """Small tables over one or two columns of values made of RULE_WORDS
    (repeated words among them), empty or punctuation-only values, and a
    function space."""
    value = st.one_of(
        st.just(""),
        st.just("!? …"),
        st.lists(st.sampled_from(RULE_WORDS), min_size=1, max_size=5).map(" ".join),
    )
    columns = ("name", "city")[: draw(st.integers(1, 2))]
    row = st.tuples(*[value] * len(columns))
    lefts = draw(st.lists(row, min_size=1, max_size=8))
    rights = draw(st.lists(row, min_size=1, max_size=6))
    L = make_table(columns, [(f"L{i}", v) for i, v in enumerate(lefts)])
    R = make_table(columns, [(f"R{j}", v) for j, v in enumerate(rights)], role="query")
    return L, R, columns, draw(st.sampled_from(sorted(RULE_SPACES)))


@settings(max_examples=60, deadline=None)
@given(rule_tables())
def test_prepared_rules_match_word_oracle(case):
    # the rules over the string table's token ids learn the rules, and keep
    # the cross-table pairs, that learn_rules and pair_blocked give over the
    # rule-preprocessed values
    L, R, columns, space = case
    pairs = flatten_index(build_index(L, R, columns, 1.0))
    pairs, first = group_queries(pairs, list(zip(*(R.column_values(c) for c in columns))))
    lv = {c: prep(L.column_values(c)) for c in columns}
    qv = {c: prep([R.column_values(c)[i] for i in first.tolist()]) for c in columns}
    rules = {c: learn_rules((lv[c][a], lv[c][b]) for a, b in zip(pairs.ll_a, pairs.ll_b)) for c in columns}
    keep = [
        not any(pair_blocked(lv[c][left], qv[c][q], rules[c]) for c in columns)
        for q, left in zip(pairs.lr_right.tolist(), pairs.lr_left.tolist())
    ]
    prepared = prepare_columns(L, R, columns, RULE_SPACES[space])
    assert prepared.rules == rules
    assert prepared.pairs.lr_right.tolist() == pairs.lr_right[keep].tolist()
    assert prepared.pairs.lr_left.tolist() == pairs.lr_left[keep].tolist()
    # dropped pairs are counted over right records
    records = Counter(pairs.query.tolist())
    dropped = sum(records[q] for q, k in zip(pairs.lr_right.tolist(), keep) if not k)
    assert prepared.pair_counts["lr_dropped_by_rules"] == dropped

import itertools

from fuzzyjoin import (
    NegativeRule,
    dump_rules,
    learn_rules,
    pair_blocked,
    preprocess_for_rules,
    word_delta,
)


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

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fuzzyjoin import (
    TokenBag,
    apply_preprocess,
    build_idf_from_values,
    set_distance,
    tokenize,
)


class TestPreprocess:
    def test_lower_and_remove_punct(self):
        assert apply_preprocess("Hello, World!", "L+RP") == "hello world"

    def test_stemming(self):
        assert apply_preprocess("Running", "L+S") == "run"

    def test_identity_on_lowercase(self):
        assert apply_preprocess("abc", "L") == "abc"

    def test_composition_order_rp_before_s(self):
        # punctuation must go before stemming: "Run-ning!" -> "running" -> "run"
        assert apply_preprocess("Run-ning!", "L+S+RP") == "run"

    def test_unicode_punctuation(self):
        assert apply_preprocess("a—b¿c", "L+RP") == "abc"

    def test_only_punctuation_categories_removed(self):
        # symbols (S*) stay; quotation marks and the ellipsis are P*
        assert apply_preprocess("$5 + «x»…©", "L+RP") == "$5 + x©"

    def test_unknown_option(self):
        with pytest.raises(ValueError):
            apply_preprocess("x", "L+X")

    @given(st.text(max_size=40))
    def test_idempotent_l(self, s):
        once = apply_preprocess(s, "L")
        assert apply_preprocess(once, "L") == once

    @given(st.text(max_size=40))
    def test_idempotent_l_rp(self, s):
        once = apply_preprocess(s, "L+RP")
        assert apply_preprocess(once, "L+RP") == once


class TestTokenize:
    def test_sp_whitespace_split(self):
        bag = tokenize("mississippi state bulldogs", "SP")
        assert bag.tokens == Counter(["mississippi", "state", "bulldogs"])

    def test_3g_sliding_window(self):
        assert tokenize("abcd", "3G").tokens == Counter(["abc", "bcd"])

    def test_3g_short_string(self):
        assert tokenize("ab", "3G").tokens == Counter(["ab"])

    def test_3g_collapses_whitespace(self):
        assert tokenize("a  b", "3G").tokens == Counter(["a b"])

    def test_empty_string_empty_bag(self):
        assert tokenize("", "SP").is_empty()
        assert tokenize("", "3G").is_empty()

    def test_multiset_keeps_duplicates(self):
        assert tokenize("aaaa", "3G").tokens == Counter({"aaa": 2})

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=5), max_size=8))
    def test_sp_token_count(self, words):
        s = " ".join(words)
        assert len(tokenize(s, "SP")) == len(words)

    @given(st.text(alphabet="abcd e", min_size=0, max_size=30))
    def test_3g_count_matches_collapsed_length(self, s):
        collapsed = " ".join(s.split())
        bag = tokenize(s, "3G")
        if len(collapsed) >= 3:
            assert len(bag) == len(collapsed) - 2
        elif collapsed:
            assert len(bag) == 1
        else:
            assert bag.is_empty()


class TestIdf:
    def test_token_in_every_record(self):
        idf = build_idf_from_values(["cat hat", "cat mat"], "L", "SP")
        assert idf.doc_freq["cat"] == idf.corpus_size == 2
        assert idf.weight("cat") == 0.0

    def test_token_in_one_of_ten(self):
        values = ["common rare0"] + ["common"] * 9
        idf = build_idf_from_values(values, "L", "SP")
        assert idf.weight("rare0") == pytest.approx(math.log(10))

    def test_unseen_token_smoothing(self):
        idf = build_idf_from_values(["a"] * 10, "L", "SP")
        assert idf.weight("zzz") == pytest.approx(math.log(10))

    def test_doc_freq_counts_records_not_occurrences(self):
        idf = build_idf_from_values(["cat cat cat", "dog"], "L", "SP")
        assert idf.doc_freq["cat"] == 1

    def test_equal_weights(self):
        # every token weighs 1: one shared token of two is half the max weight
        one = TokenBag(Counter(["anything"]))
        two = TokenBag(Counter(["anything", "other"]))
        assert set_distance(one, two, "MD", "EW") == 0.5

    def test_idfw_known_value(self):
        # 100 records, token in 10 of them -> ln 10
        values = [f"tok filler{i}" for i in range(10)] + [
            f"filler{i}" for i in range(10, 100)
        ]
        idf = build_idf_from_values(values, "L", "SP")
        assert idf.weight("tok") == pytest.approx(2.302585, abs=1e-6)

    def test_idfw_requires_index(self):
        with pytest.raises(ValueError):
            set_distance(TokenBag(Counter(["x"])), TokenBag(Counter(["x"])), "JD", "IDFW", None)


class TestBagWeight:
    """A bag's weight, read off MD against one of its own tokens:
    MD = 1 - weight(token) / weight(bag)."""

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=10))
    def test_ew_weight_is_cardinality(self, tokens):
        bag = TokenBag(Counter(tokens))
        one = TokenBag(Counter(tokens[:1]))
        assert set_distance(bag, one, "MD", "EW") == pytest.approx(1 - 1 / len(tokens))

    def test_idfw_weight_sums_tokens(self):
        idf = build_idf_from_values(["a b", "a", "c"], "L", "SP")
        bag = TokenBag(Counter(["a", "b", "b"]))
        one = TokenBag(Counter(["a"]))
        total = idf.weight("a") + 2 * idf.weight("b")
        expected = 1 - idf.weight("a") / total
        assert set_distance(bag, one, "MD", "IDFW", idf) == pytest.approx(expected)

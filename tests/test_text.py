import math
import unicodedata
from collections import Counter

import numpy as np
import pytest
from conftest import (
    IdfIndex,
    build_idf_from_values,
    loop_tokenize_strings,
    scalar_evaluate,
    token_strings,
)
from hypothesis import example, given, strategies as st

from fuzzyjoin import (
    JoinFunction,
    apply_preprocess,
    enumerate_function_space,
    distances,
    evaluate,
    tokenize,
)
from fuzzyjoin.stem import stem
from fuzzyjoin.text import idf_weights, tokenize_strings


def md(a: str, b: str, weights: str, corpus: list[str] | None = None) -> float:
    """MD between two SP token strings, through the shipped engine."""
    return evaluate(JoinFunction("L", "SP", weights, "MD"), a, b, corpus)


def shipped_weights(
    values: list[str], preprocess: str, tokenizer: str, unheld: tuple[str, ...] = ()
) -> dict[str, float]:
    """Token -> ``idf_weights`` over a corpus of raw values, as the set
    kernel computes them: one ``tokenize_strings`` pass over the distinct
    preprocessed values, each counted as often as it occurs, plus the
    ``unheld`` strings, which no document stands for."""
    copies = Counter(apply_preprocess(v, preprocess) for v in values)
    copies.update(dict.fromkeys(unheld, 0))
    strings = list(copies)
    vocab, sizes, tokens, _ = tokenize_strings(strings, tokenizer)
    counts = np.array(list(copies.values()), dtype=np.float64)
    weights = idf_weights(sizes, tokens, len(vocab), counts, len(values))
    return dict(zip(token_strings(vocab), weights.tolist()))


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

    @given(
        st.text(
            st.one_of(
                st.characters(max_codepoint=127),
                # ASCII symbols outside P*, and _ (Pc)
                st.sampled_from("$+<=>^`|~_"),
                # non-ASCII punctuation, and astral characters
                st.sampled_from("«‐¿\U0001F600\U00010400"),
                st.characters(),
            ),
            max_size=30,
        ),
        st.sampled_from(["L", "L+S", "L+RP", "L+S+RP"]),
    )
    def test_ascii_fast_path_matches_per_character_loop(self, s, option):
        # ASCII strings drop their punctuation through a translate table,
        # the rest character by character: both give the loop's result
        out = s.lower()
        if "RP" in option:
            out = "".join(c for c in out if not unicodedata.category(c).startswith("P"))
        if "S" in option.split("+"):
            out = " ".join(stem(w) for w in out.split())
        assert apply_preprocess(s, option) == out
        if "RP" in option:
            # the ASCII part alone, and with a dropped mark that sends it
            # through the loop
            part = s.encode("ascii", "ignore").decode()
            assert apply_preprocess(part + "«", option) == apply_preprocess(part, option)

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
        assert bag == Counter(["mississippi", "state", "bulldogs"])

    def test_3g_sliding_window(self):
        assert tokenize("abcd", "3G") == Counter(["abc", "bcd"])

    def test_3g_short_string(self):
        assert tokenize("ab", "3G") == Counter(["ab"])

    def test_3g_collapses_whitespace(self):
        assert tokenize("a  b", "3G") == Counter(["a b"])

    def test_empty_string_empty_bag(self):
        assert tokenize("", "SP") == Counter()
        assert tokenize("", "3G") == Counter()

    def test_multiset_keeps_duplicates(self):
        assert tokenize("aaaa", "3G") == Counter({"aaa": 2})

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=5), max_size=8))
    def test_sp_token_count(self, words):
        s = " ".join(words)
        assert tokenize(s, "SP").total() == len(words)

    @given(st.text(alphabet="abcd e", min_size=0, max_size=30))
    def test_3g_count_matches_collapsed_length(self, s):
        collapsed = " ".join(s.split())
        bag = tokenize(s, "3G")
        if len(collapsed) >= 3:
            assert bag.total() == len(collapsed) - 2
        elif collapsed:
            assert bag.total() == 1
        else:
            assert bag == Counter()


# whitespace runs (tab, NBSP, em space), repeated trigrams, an astral code
# point and a lone surrogate: their code points order as Python strings do
TOKEN_TEXT = st.lists(
    st.sampled_from(["a", "b", "é", "\U0001F600", "\ud83d", "\x00", " ", "\t", "\xa0", "\u2003"]),
    max_size=9,
).map("".join)
# words and whitespace runs, each drawn from a few, so words repeat
SP_TEXT = st.lists(
    st.sampled_from(["oak", "Oak", "pine", "é", "\U0001F600", " ", "\t", "\xa0", "\u2003", " \t "]),
    max_size=10,
).map("".join)
TOKEN_STRINGS = st.lists(
    st.one_of(st.just("aaaa"), TOKEN_TEXT), max_size=8
).flatmap(lambda pool: st.lists(st.sampled_from(pool or [""]), max_size=12))


class TestTokenizeStrings:
    @given(TOKEN_STRINGS, st.sampled_from(["3G", "SP"]))
    @example(["", "a", "ab", " a\t", "aaaa", "a\xa0\u2003b", "\U0001F600ab", "aaaa", "abc"], "3G")
    def test_matches_loop(self, strings, tokenizer):
        # vocabulary in first-appearance order, sizes, tokens and counts in
        # Counter order, bit for bit; strings repeat, are empty or 1-2
        # characters
        vocab, sizes, tokens, counts = tokenize_strings(strings, tokenizer)
        want = loop_tokenize_strings(strings, tokenizer)
        assert token_strings(vocab) == list(want[0])
        for got, expected in zip((sizes, tokens, counts), want[1:]):
            assert got.dtype == expected.dtype
            assert got.tolist() == expected.tolist()

    @given(st.lists(SP_TEXT, max_size=10))
    @example(["", "oak oak\tpine", "pine\xa0oak", "", "Oak  oak"])
    def test_sp_words_match_loop(self, strings):
        # SP's words, interned into codes, go through 3G's CSR construction:
        # words repeated within and across strings, whitespace runs of tabs,
        # NBSP and em spaces, and empty strings give the loop's CSR
        vocab, sizes, tokens, counts = tokenize_strings(strings, "SP")
        want = loop_tokenize_strings(strings, "SP")
        assert vocab == list(want[0])
        for got, expected in zip((sizes, tokens, counts), want[1:]):
            assert got.dtype == expected.dtype
            assert got.tolist() == expected.tolist()


# words that the options change differently: case, punctuation, stems, and
# whitespace runs that 3G collapses
IDF_WORDS = ["Running", "runs", "run", "teams", "team", "Oak,", "oak", "a,b!", "ab", "x", "  ", ""]


class TestIdf:
    def test_token_in_every_record(self):
        idf = build_idf_from_values(["cat hat", "cat mat"], "L", "SP")
        assert idf.doc_freq["cat"] == idf.corpus_size == 2
        assert idf.weight("cat") == 0.0
        assert shipped_weights(["cat hat", "cat mat"], "L", "SP")["cat"] == 0.0

    def test_token_in_one_of_ten(self):
        values = ["common rare0"] + ["common"] * 9
        idf = build_idf_from_values(values, "L", "SP")
        assert idf.weight("rare0") == pytest.approx(math.log(10))
        assert shipped_weights(values, "L", "SP")["rare0"] == idf.weight("rare0")

    def test_unseen_token_smoothing(self):
        # a token no document holds weighs as if one did
        idf = build_idf_from_values(["a"] * 10, "L", "SP")
        assert idf.weight("zzz") == pytest.approx(math.log(10))
        assert shipped_weights(["a"] * 10, "L", "SP", unheld=("zzz",))["zzz"] == idf.weight("zzz")

    def test_doc_freq_counts_records_not_occurrences(self):
        idf = build_idf_from_values(["cat cat cat", "dog"], "L", "SP")
        assert idf.doc_freq["cat"] == 1
        assert shipped_weights(["cat cat cat", "dog"], "L", "SP")["cat"] == math.log(2)

    @given(
        st.lists(
            st.sampled_from(["Cat hat", "cat, mat", "dog", "", "a b a", "Running dogs", "x"]),
            max_size=30,
        ),
        st.sampled_from(["L", "L+S+RP"]),
        st.sampled_from(["SP", "3G"]),
    )
    def test_repeated_values_match_per_value_loop(self, values, preprocess, tokenizer):
        doc_freq: Counter = Counter()
        for v in values:
            doc_freq.update(tokenize(apply_preprocess(v, preprocess), tokenizer).keys())
        idf = build_idf_from_values(iter(values), preprocess, tokenizer)
        assert idf == IdfIndex(dict(doc_freq), len(values))
        assert list(idf.doc_freq) == list(doc_freq)
        if values:
            want = {t: math.log(len(values) / df) for t, df in doc_freq.items()}
            assert shipped_weights(values, preprocess, tokenizer) == want

    def test_each_distinct_value_tokenized_once(self, monkeypatch):
        # a corpus value repeated, or equal to a pair value, is still
        # tokenized once per tokenizer, and counts as often as it occurs
        passes = []

        def spy(strings, tokenizer):
            passes.append((tokenizer, list(strings)))
            return tokenize_strings(strings, tokenizer)

        corpus = ["a b", "c", "a b", "a b", "c"]
        f = JoinFunction("L", "SP", "IDFW", "JD")
        monkeypatch.setattr(distances, "tokenize_strings", spy)
        d = evaluate(f, "a b", "a d", corpus)
        [(tokenizer, seen)] = passes
        assert tokenizer == "SP" and sorted(seen) == ["a b", "a d", "c"]
        idf = build_idf_from_values(corpus, "L", "SP")
        assert idf == IdfIndex({"a": 3, "b": 3, "c": 2}, 5)
        assert d == scalar_evaluate(f, "a b", "a d", idf)

    def test_equal_weights(self):
        # every token weighs 1: one shared token of two is half the max weight
        assert md("anything", "anything other", "EW") == 0.5

    def test_idfw_known_value(self):
        # 100 records, token in 10 of them -> ln 10
        values = [f"tok filler{i}" for i in range(10)] + [
            f"filler{i}" for i in range(10, 100)
        ]
        idf = build_idf_from_values(values, "L", "SP")
        assert idf.weight("tok") == pytest.approx(2.302585, abs=1e-6)
        assert shipped_weights(values, "L", "SP")["tok"] == pytest.approx(2.302585, abs=1e-6)

    def test_idfw_requires_index(self):
        with pytest.raises(ValueError, match="needs a corpus"):
            evaluate(JoinFunction("L", "SP", "IDFW", "JD"), "x", "x", None)

    @given(
        st.lists(
            st.lists(st.sampled_from(IDF_WORDS), max_size=4).map(" ".join), min_size=1, max_size=12
        ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    )
    def test_idf_weights_match_build_idf_from_values(self, values):
        # values drawn from a small pool, so most repeat; under every IDFW
        # (preprocess, tokenizer) combination, each token weighs what the
        # oracle index gives it, bit for bit
        fns = enumerate_function_space()
        combos = {(f.preprocess, f.tokenizer) for f in fns if f.weights == "IDFW"}
        assert len(combos) == 8
        for p, t in combos:
            idf = build_idf_from_values(values, p, t)
            got = shipped_weights(values, p, t)
            assert got == {token: idf.weight(token) for token in got}


@given(
    st.lists(st.integers(0, 6), max_size=40),
    st.integers(0, 8),
    st.integers(1, 50),
)
def test_idf_weights_match_per_token_loop(tokens, extra_vocab, n_docs):
    # tokens of one string each, with 0-3 documents per string: repeated
    # and zero document frequencies, and vocab ids no string holds
    n_vocab = max(tokens, default=-1) + 1 + extra_vocab
    sizes = np.ones(len(tokens), dtype=np.int64)
    copies = np.arange(len(tokens), dtype=np.float64) % 4
    ids = np.array(tokens, dtype=np.int32)
    doc_freq = np.bincount(ids, weights=copies, minlength=n_vocab)
    want = np.array([math.log(n_docs / (df or 1)) for df in doc_freq.tolist()])
    got = idf_weights(sizes, ids, n_vocab, copies, n_docs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBagWeight:
    """A bag's weight, read off MD against one of its own tokens:
    MD = 1 - weight(token) / weight(bag)."""

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=10))
    def test_ew_weight_is_cardinality(self, tokens):
        assert md(" ".join(tokens), tokens[0], "EW") == pytest.approx(1 - 1 / len(tokens))

    def test_idfw_weight_sums_tokens(self):
        corpus = ["a b", "a", "c"]
        idf = build_idf_from_values(corpus, "L", "SP")
        total = idf.weight("a") + 2 * idf.weight("b")
        expected = 1 - idf.weight("a") / total
        assert md("a b b", "a", "IDFW", corpus) == pytest.approx(expected)

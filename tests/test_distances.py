import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import loop_set_stats
from hypothesis import given, strategies as st

from fuzzyjoin import (
    FunctionSpaceOptions,
    IdfIndex,
    JoinFunction,
    TokenBag,
    apply_preprocess,
    build_idf_from_values,
    char_distance,
    contain_distance,
    distance_matrix,
    enumerate_function_space,
    evaluate,
    jaro_winkler_similarity,
    levenshtein,
    register_plugin,
    set_distance,
    tokenize,
)
from fuzzyjoin import distances
from fuzzyjoin.distances import (
    _char_distances,
    _jaro_winkler_batch,
    _levenshtein_batch,
    _set_stats,
)


# --- independent oracles ------------------------------------------------------


def oracle_levenshtein(a: str, b: str) -> int:
    """Full-matrix reference implementation."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[m][n]


def oracle_jaro_winkler(a: str, b: str) -> float:
    """Definitional re-derivation used to cross-check the implementation."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    a_match, b_match = [], [False] * len(b)
    for i, ca in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not b_match[j] and b[j] == ca:
                a_match.append((i, j))
                b_match[j] = True
                break
    m = len(a_match)
    if m == 0:
        return 0.0
    # half the character mismatches between the two matched sequences,
    # floored as in the reference strcmp95 code
    a_seq = [a[i] for i, _ in sorted(a_match)]
    b_seq = [b[j] for j in sorted(j for _, j in a_match)]
    transpositions = sum(1 for x, y in zip(a_seq, b_seq) if x != y) // 2
    jaro = (m / len(a) + m / len(b) + (m - transpositions) / m) / 3
    if jaro <= 0.7:
        return jaro
    prefix = len(
        list(itertools.takewhile(lambda p: p[0] == p[1], zip(a[:4], b[:4])))
    )
    return jaro + prefix * 0.1 * (1 - jaro)


# --- character distances ------------------------------------------------------


class TestCharDistance:
    def test_ed_identity(self):
        assert char_distance("abc", "abc", "ED") == 0.0

    def test_ed_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert char_distance("kitten", "sitting", "ED") == pytest.approx(3 / 7)

    def test_ed_both_empty(self):
        assert char_distance("", "", "ED") == 0.0

    def test_ed_one_empty(self):
        assert char_distance("", "abc", "ED") == 1.0

    def test_jw_identity(self):
        assert char_distance("x", "x", "JW") == 0.0

    def test_jw_reference_values(self):
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
            0.9611111111, abs=1e-9
        )
        assert jaro_winkler_similarity("dwayne", "duane") == pytest.approx(
            0.84, abs=1e-9
        )

    @given(st.text(alphabet="abcd", max_size=12), st.text(alphabet="abcd", max_size=12))
    def test_ed_matches_oracle(self, a, b):
        assert levenshtein(a, b) == oracle_levenshtein(a, b)

    @given(st.text(alphabet="abcdef", max_size=10), st.text(alphabet="abcdef", max_size=10))
    def test_jw_matches_oracle(self, a, b):
        assert jaro_winkler_similarity(a, b) == pytest.approx(
            oracle_jaro_winkler(a, b), abs=1e-12
        )

    def test_normalized_ed_against_oracle_bulk(self):
        rng = np.random.default_rng(0)
        letters = "abcdefgh"
        for _ in range(1000):
            a = "".join(rng.choice(list(letters), size=rng.integers(0, 15)))
            b = "".join(rng.choice(list(letters), size=rng.integers(0, 15)))
            expected = (
                0.0
                if not a and not b
                else oracle_levenshtein(a, b) / max(len(a), len(b))
            )
            assert char_distance(a, b, "ED") == pytest.approx(expected, abs=1e-12)


# --- batch character kernels ----------------------------------------------------


@st.composite
def char_batches(draw):
    """Batches of pairs that mix empty strings, short strings, and strings
    of 62 to 66 characters around the 64-character word, over small
    alphabets (many matches), alphabets with non-BMP characters, and any
    text."""
    alphabet = draw(
        st.sampled_from(["ab", "abcd ", "a\u00e9\U0001F600\U0001D518 ", None])
    )
    chars = st.characters(codec="utf-8") if alphabet is None else st.sampled_from(alphabet)

    def sized(lo, hi):
        return st.lists(chars, min_size=lo, max_size=hi).map("".join)

    text = st.one_of(st.just(""), sized(0, 10), sized(0, 64), sized(62, 66))
    return draw(st.lists(st.tuples(text, text), min_size=1, max_size=25))


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def fits_word(pairs):
    return [(a, b) for a, b in pairs if len(a) <= 64 and len(b) <= 64]


class TestCharKernels:
    EDGE = [
        ("", ""), ("", "abc"), ("abc", ""), ("kitten", "sitting"),
        ("martha", "marhta"), ("dwayne", "duane"), ("a" * 64, "a" * 64),
        ("a" * 63 + "b", "b" + "a" * 63), ("\U0001F600x", "x\U0001F600"),
        ("ab" * 32, "ba" * 32), ("abc", "abc"), ("x" * 64, "y" * 64),
        ("\ud800ab", "ab\ud800"),
    ]

    def test_edge_cases(self):
        assert _levenshtein_batch(self.EDGE).tolist() == [
            levenshtein(a, b) for a, b in self.EDGE
        ]
        assert float_bits(_jaro_winkler_batch(self.EDGE)) == float_bits(
            [jaro_winkler_similarity(a, b) for a, b in self.EDGE]
        )

    @given(char_batches())
    def test_levenshtein_batch_matches_scalar(self, batch):
        pairs = fits_word(batch)
        if pairs:
            assert _levenshtein_batch(pairs).tolist() == [
                levenshtein(a, b) for a, b in pairs
            ]

    @given(char_batches())
    def test_jaro_winkler_batch_matches_scalar(self, batch):
        pairs = fits_word(batch)
        if pairs:
            assert float_bits(_jaro_winkler_batch(pairs)) == float_bits(
                [jaro_winkler_similarity(a, b) for a, b in pairs]
            )

    @given(char_batches())
    def test_char_distances_match_char_distance(self, batch):
        # pairs with a string over 64 characters take the scalar fallback
        ed, jw = _char_distances(batch)
        assert float_bits(ed) == float_bits([char_distance(a, b, "ED") for a, b in batch])
        assert float_bits(jw) == float_bits([char_distance(a, b, "JW") for a, b in batch])

    def test_chunks_and_fallback(self, monkeypatch):
        # kernel calls of 5 pairs; the pairs over 64 characters in between
        # take the scalar fallback
        monkeypatch.setattr(distances, "_CHUNK", 5)
        pairs = self.EDGE[:7] + [("a" * 65, "a" * 60 + "b"), ("abc", "x" * 70)] + self.EDGE[7:]
        ed, jw = _char_distances(pairs)
        assert float_bits(ed) == float_bits([char_distance(a, b, "ED") for a, b in pairs])
        assert float_bits(jw) == float_bits([char_distance(a, b, "JW") for a, b in pairs])


# --- set distances ------------------------------------------------------------


def bag(*tokens: str) -> TokenBag:
    return TokenBag(Counter(tokens))


class TestSetDistance:
    def test_jd_identity(self):
        assert set_distance(bag("a", "b", "c"), bag("a", "b", "c"), "JD") == 0.0

    def test_jd_example(self):
        assert set_distance(bag("a", "b", "c"), bag("a", "b", "d"), "JD") == pytest.approx(0.5)

    def test_dd_example(self):
        assert set_distance(bag("a", "b"), bag("a"), "DD") == pytest.approx(1 / 3)

    def test_id_overlap_with_min(self):
        assert set_distance(bag("a", "b", "c"), bag("a"), "ID") == 0.0

    def test_md_overlap_with_max(self):
        assert set_distance(bag("a", "b", "c"), bag("a"), "MD") == pytest.approx(2 / 3)

    def test_cd_cosine(self):
        d = set_distance(bag("a", "b"), bag("a", "c"), "CD")
        assert d == pytest.approx(1 - 1 / 2)

    def test_both_empty(self):
        for kind in ("JD", "CD", "DD", "ID", "MD"):
            assert set_distance(bag(), bag(), kind) == 0.0

    def test_one_empty(self):
        for kind in ("JD", "CD", "DD", "ID", "MD"):
            assert set_distance(bag("a"), bag(), kind) == 1.0

    def test_multiset_min_multiplicity(self):
        # {a,a,b} vs {a,b,b}: intersection 2, union 4
        assert set_distance(bag("a", "a", "b"), bag("a", "b", "b"), "JD") == pytest.approx(0.5)

    def test_idfw_weighted(self):
        idf = build_idf_from_values(["a b", "a c", "a d", "a e"], "L", "SP")
        # "a" has zero weight (in every record); overlap on it carries nothing
        d = set_distance(bag("a", "b"), bag("a", "c"), "JD", "IDFW", idf)
        assert d == 1.0

    @given(
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.sampled_from(["JD", "CD", "DD", "ID", "MD"]),
    )
    def test_symmetry_and_range(self, ta, tb, kind):
        a, b = TokenBag(Counter(ta)), TokenBag(Counter(tb))
        d_ab = set_distance(a, b, kind)
        d_ba = set_distance(b, a, kind)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert 0.0 <= d_ab <= 1.0
        if ta:
            assert set_distance(a, a, kind) == 0.0


class TestContainDistance:
    def test_contained_equals_standard(self):
        l, r = bag("a", "b", "c"), bag("a", "b")
        assert contain_distance(l, r, "CJD") == pytest.approx(1 - 2 / 3)
        assert contain_distance(l, r, "CCD") == set_distance(l, r, "CD")
        assert contain_distance(l, r, "CDD") == set_distance(l, r, "DD")

    def test_not_contained_is_one(self):
        assert contain_distance(bag("a", "b", "c"), bag("a", "d"), "CJD") == 1.0

    def test_identity(self):
        x = bag("p", "q")
        assert contain_distance(x, x, "CDD") == 0.0

    def test_exhaustive_small_bags(self):
        # every multiset over {a, b} up to size 4, both sides
        universe = [
            Counter(dict(zip("ab", counts)))
            for counts in itertools.product(range(5), repeat=2)
            if sum(counts) <= 4
        ]
        for A, B in itertools.product(universe, repeat=2):
            contained = all(A.get(t, 0) >= m for t, m in B.items())
            for ckind, skind in (("CJD", "JD"), ("CCD", "CD"), ("CDD", "DD")):
                got = contain_distance(TokenBag(A), TokenBag(B), ckind)
                if contained:
                    assert got == set_distance(TokenBag(A), TokenBag(B), skind)
                else:
                    assert got == 1.0


# --- batch set kernel -----------------------------------------------------------

STAT_NAMES = ("cnt_i", "cnt_a", "cnt_b", "idf_i", "idf_a", "idf_b")


def kernel_set_stats(pairs_by_option, tokenizer, idf_by_option):
    """``_set_stats`` on preprocessed string pairs, one list per option."""
    string_ids: dict[str, int] = {}
    id_pairs = {
        option: tuple(
            np.array([string_ids.setdefault(s, len(string_ids)) for s in side], dtype=np.int64)
            for side in zip(*pairs)
        )
        for option, pairs in pairs_by_option.items()
    }
    return _set_stats(list(string_ids), id_pairs, tokenizer, idf_by_option)


def assert_matches_loop(pairs_by_option, tokenizer, idf_by_option):
    got = kernel_set_stats(pairs_by_option, tokenizer, idf_by_option)
    for option, pairs in pairs_by_option.items():
        want = loop_set_stats(pairs, tokenizer, idf_by_option.get(option))
        for name in STAT_NAMES:
            assert float_bits(got[option][name]) == float_bits(want[name]), (option, name)
        assert got[option]["contained"].tolist() == want["contained"].tolist(), option


@st.composite
def set_cases(draw):
    """One or two options' pair lists over shared small alphabets (repeated
    tokens, tokens on one side only, empty and 1-2 character strings), each
    with no IdfIndex or one whose document frequencies range from 1 to the
    corpus size (weight 0) and that leaves some tokens unseen."""
    tokenizer = draw(st.sampled_from(["3G", "SP"]))
    chars = st.sampled_from(draw(st.sampled_from(["ab ", "abc  ", "a\u00e9\U0001F600 "])))
    text = st.one_of(
        st.just(""),
        st.lists(chars, max_size=2).map("".join),
        st.lists(chars, max_size=14).map("".join),
        st.lists(chars, min_size=20, max_size=40).map("".join),
    )
    pairs_by_option, idf_by_option = {}, {}
    for option in draw(st.sampled_from([["x"], ["x", "y"]])):
        pairs = draw(st.lists(st.tuples(text, text), min_size=1, max_size=20))
        pairs_by_option[option] = pairs
        tokens = sorted({t for pair in pairs for s in pair for t in tokenize(s, tokenizer).tokens})
        if tokens and draw(st.booleans()):
            n = draw(st.integers(1, 12))
            kept = draw(st.lists(st.sampled_from(tokens), unique=True))
            idf_by_option[option] = IdfIndex({t: draw(st.integers(1, n)) for t in kept}, n)
    return pairs_by_option, tokenizer, idf_by_option


class TestSetKernel:
    EDGE = [
        ("", ""), ("", "ab c"), ("ab c", ""),  # empty bags, one side or both
        ("ab", "ab"), ("a", "ab"), ("ab", "a"),  # 3G strings shorter than 3
        ("aaaa", "aaaaa"), ("a a a b", "a a b b"),  # repeated tokens
        ("abc", "abd xyz"), ("q", "r s t"),  # tokens only on the B side
        ("common x", "common y"),  # "common" weighs 0
        ("rare zzz", "zzz unseen"),  # tokens the IdfIndex never saw
        # long overlaps: many terms of different weights in one sum
        ("the quick brown fox jumps over", "quick brown fox jumps over the lazy dog"),
    ]

    @pytest.mark.parametrize("tokenizer", ["3G", "SP"])
    @pytest.mark.parametrize("entries", [1, 2, 5, distances._SET_ENTRIES])
    def test_edge_cases(self, monkeypatch, tokenizer, entries):
        # small steps put chunk boundaries between and inside the pairs
        monkeypatch.setattr(distances, "_SET_ENTRIES", entries)
        docs = [tokenize(s, tokenizer).tokens for pair in self.EDGE for s in pair]
        common = tokenize("common", tokenizer).tokens
        doc_freq = {t: len(docs) for t in common}
        rest = sorted({t for d in docs for t in d if t not in common and "un" not in t})
        doc_freq |= {t: 1 + i % len(docs) for i, t in enumerate(rest)}
        idf = IdfIndex(doc_freq, len(docs))
        assert idf.weight(next(iter(common))) == 0.0
        assert_matches_loop({"x": self.EDGE, "y": self.EDGE[::-1]}, tokenizer, {"x": idf})

    @given(set_cases(), st.sampled_from([1, 3, 7, distances._SET_ENTRIES]))
    def test_matches_loop(self, case, entries):
        with mock.patch.object(distances, "_SET_ENTRIES", entries):
            assert_matches_loop(*case)


# --- full evaluation ----------------------------------------------------------


class TestEvaluate:
    def test_identical_nonempty_zero_everywhere(self):
        idf = build_idf_from_values(["madison falcons", "oak hornets"], "L", "SP")
        for f in enumerate_function_space():
            assert evaluate(f, "Madison Falcons", "Madison Falcons", idf) == 0.0

    def test_both_missing_is_max_distance(self):
        idf = build_idf_from_values(["a"], "L", "SP")
        for f in enumerate_function_space():
            assert evaluate(f, "", "", idf) == 1.0

    def test_sp_ew_jd_example(self):
        f = JoinFunction("L", "SP", "EW", "JD")
        assert evaluate(f, "a b c d e", "a b c d x") == pytest.approx(1 - 4 / 6)

    def test_plugin_roundtrip(self):
        register_plugin("always-half", lambda a, b: 0.5)
        f = JoinFunction("L", "NONE", "NONE", "PLUGIN", plugin="always-half")
        assert evaluate(f, "x", "y") == 0.5

    def test_missing_plugin_raises(self):
        f = JoinFunction("L", "NONE", "NONE", "PLUGIN", plugin="not-registered")
        with pytest.raises(ValueError):
            evaluate(f, "x", "y")


class TestDistanceMatrix:
    def test_matches_scalar_evaluate(self):
        # repeated values, an empty value on both sides (the ("", "") pair is
        # missing) and 1-2 character values, which 3G keeps whole
        values_l = [
            "2008 oak tigers football team", "riverton Hornets", "a,b!", "ab",
            "riverton Hornets", "",
        ]
        values_r = ["2008 oak tigers baseball team", "riverton hornet", "", "ab", "a", "aaaa aaaa"]
        pairs = [(a, b) for a in values_l for b in values_r]
        fns = enumerate_function_space()
        idf_by_pt = {
            (p, t): build_idf_from_values(values_l + values_r, p, t)
            for p in ("L", "L+S", "L+RP", "L+S+RP")
            for t in ("3G", "SP")
        }
        mat = distance_matrix(fns, pairs, idf_by_pt)
        for fi, f in enumerate(fns):
            idf = idf_by_pt[(f.preprocess, f.tokenizer)] if f.is_set_based else None
            for pi, (a, b) in enumerate(pairs):
                assert mat[fi, pi] == evaluate(f, a, b, idf)

    def test_char_kernels_see_each_preprocessed_pair_once(self, monkeypatch):
        seen = {"ED": [], "JW": []}
        for kind, name in (("ED", "_levenshtein_batch"), ("JW", "_jaro_winkler_batch")):
            kernel = getattr(distances, name)

            def spy(pairs, kernel=kernel, kind=kind):
                seen[kind].extend(pairs)
                return kernel(pairs)

            monkeypatch.setattr(distances, name, spy)
        # "oak tigers" is the same under every preprocess option; "Oak, Tigers!"
        # and "running dogs" differ between some; the 70-character value
        # takes the scalar fallback and never reaches the kernels
        values = ["oak tigers", "Oak, Tigers!", "running dogs", "oak tiger", "x" * 70]
        pairs = [(a, b) for a in values for b in values] * 2
        fns = enumerate_function_space(FunctionSpaceOptions(weights=("EW",)))
        distance_matrix(fns, pairs)
        by_option = [
            {
                (apply_preprocess(a, o), apply_preprocess(b, o))
                for a, b in pairs
                if len(a) <= 64 and len(b) <= 64
            }
            for o in {f.preprocess for f in fns}
        ]
        expected = set().union(*by_option)
        # one cache per option would compute more pairs
        assert len(by_option) == 4
        assert len(expected) < sum(map(len, by_option))
        for kind in ("ED", "JW"):
            assert sorted(seen[kind]) == sorted(expected)

    def test_each_preprocessed_string_tokenized_once(self, monkeypatch):
        values = ["oak tigers", "Oak, Tigers!", "running dogs", "oak tiger", "x" * 70, "", "ab"]
        pairs = [(a, b) for a in values for b in values] * 2
        fns = enumerate_function_space()
        idf_by_pt = {
            (f.preprocess, f.tokenizer): build_idf_from_values(values, f.preprocess, f.tokenizer)
            for f in fns
            if f.is_set_based
        }
        seen = []

        def spy(s, scheme):
            seen.append((s, scheme))
            return tokenize(s, scheme)

        monkeypatch.setattr(distances, "tokenize", spy)
        distance_matrix(fns, pairs, idf_by_pt)
        by_option = [{apply_preprocess(v, o) for v in values} for o in {f.preprocess for f in fns}]
        expected = [(s, t) for s in set().union(*by_option) for t in ("3G", "SP")]
        # one tokenization per option would tokenize more strings
        assert len(by_option) == 4
        assert len(expected) < 2 * sum(map(len, by_option))
        assert sorted(seen) == sorted(expected)

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25])
    def test_plugin_out_of_range_raises(self, bad):
        register_plugin("bad-range", lambda a, b: bad if a == "x" else 0.5)
        f = JoinFunction("L", "NONE", "NONE", "PLUGIN", plugin="bad-range")
        with pytest.raises(ValueError, match="'bad-range'"):
            distance_matrix([f], [("y", "z"), ("x", "z")])

    def test_plugin_bounds_accepted(self):
        register_plugin("zero-one", lambda a, b: float(a != b))
        f = JoinFunction("L", "NONE", "NONE", "PLUGIN", plugin="zero-one")
        mat = distance_matrix([f], [("a", "a"), ("a", "b")])
        assert mat.tolist() == [[0.0, 1.0]]

    def test_missing_pair_is_one_for_all_functions(self):
        fns = enumerate_function_space(FunctionSpaceOptions(weights=("EW",)))
        mat = distance_matrix(fns, [("", "")])
        assert np.all(mat == 1.0)

    def test_idfw_without_index_raises(self):
        f = JoinFunction("L", "SP", "IDFW", "JD")
        with pytest.raises(ValueError):
            distance_matrix([f], [("a", "b")])

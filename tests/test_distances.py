import itertools
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from conftest import IdfIndex, build_idf_from_values, loop_set_stats, scalar_evaluate
from hypothesis import given, settings, strategies as st

from fuzzyjoin import (
    FunctionSpaceOptions,
    JoinFunction,
    apply_preprocess,
    char_distance,
    distance_matrix,
    enumerate_function_space,
    evaluate,
    jaro_winkler_similarity,
    levenshtein,
    tokenize,
)
from fuzzyjoin import distances, text
from fuzzyjoin.distances import (
    ColumnStrings,
    _Tokens,
    _char_rows,
    _distinct_pairs,
    _jaro_winkler_batch,
    _levenshtein_batch,
    _peq_table,
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


def interned(pairs):
    """The distinct strings of the pairs and each pair as two id arrays."""
    ids: dict[str, int] = {}
    a = np.array([ids.setdefault(x, len(ids)) for x, _ in pairs], dtype=np.int64)
    b = np.array([ids.setdefault(y, len(ids)) for _, y in pairs], dtype=np.int64)
    return list(ids), a, b


def with_swapped(pairs):
    """The pairs and then each pair reversed: interned, the ids repeat
    across pairs and each string is on both sides."""
    return pairs + [(b, a) for a, b in pairs]


# the default row byte cap, which keeps a dense match-mask table for these
# tests' small alphabets, and 0, which makes every mask come from the
# sorted-key lookup
PEQ_CAPS = (distances._PEQ_ROW_BYTES, 0)


class TestCharKernels:
    """The Peq-table kernels and ``_char_rows`` against the scalar code, each
    check under both table kinds."""

    EDGE = [
        ("", ""), ("", "abc"), ("abc", ""), ("kitten", "sitting"),
        ("martha", "marhta"), ("dwayne", "duane"), ("a" * 64, "a" * 64),
        ("a" * 63 + "b", "b" + "a" * 63), ("\U0001F600x", "x\U0001F600"),
        ("ab" * 32, "ba" * 32), ("abc", "abc"), ("x" * 64, "y" * 64),
        ("\ud800ab", "ab\ud800"), ("\ud800ab", "\ud800ba"),
    ]

    @staticmethod
    def kernels(pairs, cap):
        """Edit distances and Jaro-Winkler similarities of pairs of strings
        up to 64 characters, through one Peq table of their strings."""
        strings, a, b = interned(pairs)
        with mock.patch.object(distances, "_PEQ_ROW_BYTES", cap):
            table = _peq_table(strings)
        return _levenshtein_batch(table, a, b), _jaro_winkler_batch(table, a, b)

    def check_kernels(self, pairs):
        for cap in PEQ_CAPS:
            ed, jw = self.kernels(pairs, cap)
            assert ed.tolist() == [levenshtein(a, b) for a, b in pairs]
            assert float_bits(jw) == float_bits([jaro_winkler_similarity(a, b) for a, b in pairs])

    @staticmethod
    def check_char_rows(pairs):
        strings, a, b = interned(pairs)
        for cap in PEQ_CAPS:
            with mock.patch.object(distances, "_PEQ_ROW_BYTES", cap):
                ed, jw = _char_rows(strings, *_distinct_pairs({"L": (a, b)}, len(strings)))["L"]
            assert float_bits(ed) == float_bits([char_distance(x, y, "ED") for x, y in pairs])
            assert float_bits(jw) == float_bits([char_distance(x, y, "JW") for x, y in pairs])

    def test_edge_cases(self):
        self.check_kernels(with_swapped(self.EDGE))

    def test_jaro_winkler_window_edges(self):
        # one "a" among "b"s on each side matches exactly when the two
        # positions are within the window; a short b clips a window at both
        # its start and its end
        def one_a(position, length):
            return "b" * position + "a" + "b" * (length - position - 1)

        pairs = [
            (one_a(p, la), one_a(q, lb))
            for la, lb in ((64, 1), (64, 3), (40, 7), (33, 33), (9, 2), (2, 1))
            for p in range(la)
            for q in range(lb)
        ]
        self.check_kernels(with_swapped(pairs))

    def test_table_kind(self):
        strings = interned(self.EDGE)[0]
        for cap in PEQ_CAPS:
            with mock.patch.object(distances, "_PEQ_ROW_BYTES", cap):
                assert (_peq_table(strings).keys is None) == (cap > 0)
        # the cap bounds a row, not the table: 70000 strings over 31 symbols
        # (18 MB) stay dense
        many = [f"{i:05d}" + "abcdefghijklmnopqrstu"[i % 21 :] for i in range(70_000)]
        table = _peq_table(many)
        assert table.keys is None and table.width == 32

    @given(char_batches())
    def test_levenshtein_batch_matches_scalar(self, batch):
        pairs = with_swapped(fits_word(batch))
        for cap in PEQ_CAPS:
            ed, _ = self.kernels(pairs, cap)
            assert ed.tolist() == [levenshtein(a, b) for a, b in pairs]

    @given(char_batches())
    def test_jaro_winkler_batch_matches_scalar(self, batch):
        pairs = with_swapped(fits_word(batch))
        for cap in PEQ_CAPS:
            _, jw = self.kernels(pairs, cap)
            assert float_bits(jw) == float_bits([jaro_winkler_similarity(a, b) for a, b in pairs])

    @given(char_batches())
    def test_char_distances_match_char_distance(self, batch):
        # pairs with a string over 64 characters take the scalar fallback
        self.check_char_rows(with_swapped(batch))

    def test_chunks_and_fallback(self, monkeypatch):
        # kernel steps of 5 pairs; the pairs over 64 characters in between
        # take the scalar fallback
        monkeypatch.setattr(distances, "_CHUNK", 5)
        pairs = self.EDGE[:7] + [("a" * 65, "a" * 60 + "b"), ("abc", "x" * 70)] + self.EDGE[7:]
        self.check_char_rows(with_swapped(pairs))

    def test_large_alphabet(self):
        # 2000 strings over 2000 CJK code points: a row is past the default
        # byte cap, so the table keeps sorted keys without any patching
        rng = np.random.default_rng(0)
        alphabet = [chr(0x4E00 + i) for i in range(2000)]
        strings = [
            c + "".join(rng.choice(alphabet[:40], size=rng.integers(0, 20))) for c in alphabet
        ]
        pairs = [(strings[i], strings[(i * 7 + 1) % len(strings)]) for i in range(len(strings))]
        assert _peq_table(interned(pairs)[0]).keys is not None
        self.check_kernels(with_swapped(pairs))
        self.check_char_rows(with_swapped(pairs))


# --- set distances ------------------------------------------------------------


def bag(*tokens: str) -> str:
    """A raw value whose SP tokens under "L" are the given tokens: the
    tokens space-joined, and a lone space for no token, since the pair
    ("", "") is the missing pair, at distance 1."""
    return " ".join(tokens) or " "


def set_distance(a: str, b: str, kind: str, weights: str = "EW", corpus=None) -> float:
    """The shipped engine's distance between two SP token strings."""
    return evaluate(JoinFunction("L", "SP", weights, kind), a, b, corpus)


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
        # "a" has zero weight (in every record); overlap on it carries nothing
        d = set_distance(bag("a", "b"), bag("a", "c"), "JD", "IDFW", ["a b", "a c", "a d", "a e"])
        assert d == 1.0

    @given(
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.sampled_from(["JD", "CD", "DD", "ID", "MD"]),
    )
    def test_symmetry_and_range(self, ta, tb, kind):
        a, b = bag(*ta), bag(*tb)
        d_ab = set_distance(a, b, kind)
        d_ba = set_distance(b, a, kind)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert 0.0 <= d_ab <= 1.0
        if ta:
            assert set_distance(a, a, kind) == 0.0


class TestContainDistance:
    def test_contained_equals_standard(self):
        l, r = bag("a", "b", "c"), bag("a", "b")
        assert set_distance(l, r, "CJD") == pytest.approx(1 - 2 / 3)
        assert set_distance(l, r, "CCD") == set_distance(l, r, "CD")
        assert set_distance(l, r, "CDD") == set_distance(l, r, "DD")

    def test_not_contained_is_one(self):
        assert set_distance(bag("a", "b", "c"), bag("a", "d"), "CJD") == 1.0

    def test_identity(self):
        x = bag("p", "q")
        assert set_distance(x, x, "CDD") == 0.0

    def test_exhaustive_small_bags(self):
        # every multiset over {a, b} up to size 4, both sides: 15 x 15 pairs,
        # each under the three hybrids and their standard kinds in one call
        universe = [
            Counter(dict(zip("ab", counts)))
            for counts in itertools.product(range(5), repeat=2)
            if sum(counts) <= 4
        ]
        bags = list(itertools.product(universe, repeat=2))
        kinds = (("CJD", "JD"), ("CCD", "CD"), ("CDD", "DD"))
        fns = [JoinFunction("L", "SP", "EW", kind) for pair in kinds for kind in pair]
        values = [(bag(*sorted(A.elements())), bag(*sorted(B.elements()))) for A, B in bags]
        mat = distance_matrix(fns, values)
        assert mat.shape == (6, 225)
        for pi, (A, B) in enumerate(bags):
            contained = all(A.get(t, 0) >= m for t, m in B.items())
            for ki in range(len(kinds)):
                got, standard = mat[2 * ki, pi], mat[2 * ki + 1, pi]
                assert got == (standard if contained else 1.0)


# --- batch set kernel -----------------------------------------------------------

STAT_NAMES = ("cnt_i", "cnt_a", "cnt_b", "idf_i", "idf_a", "idf_b")


def kernel_set_stats(pairs_by_option, tokenizer, docs_by_option, n_docs, rows=None):
    """``_set_stats`` on preprocessed string pairs, one list per option,
    with per option the number of documents each string stands for (strings
    outside the pairs too), gathered per option into ``STAT_NAMES`` and
    "contained": IDF statistics for the options with documents only.
    ``rows`` A strings share one dense block, where given; by default the
    block's byte cap decides."""
    string_ids: dict[str, int] = {}
    id_pairs = {
        option: tuple(
            np.array([string_ids.setdefault(s, len(string_ids)) for s in side], dtype=np.int64)
            for side in zip(*pairs)
        )
        for option, pairs in pairs_by_option.items()
    }
    for docs in docs_by_option.values():
        for s in docs:
            string_ids.setdefault(s, len(string_ids))
    doc_counts = {
        option: np.array([docs.get(s, 0) for s in string_ids], dtype=np.float64)
        for option, docs in docs_by_option.items()
    }
    tok = _Tokens(list(string_ids), tokenizer)
    idf = {option: tok.idf(docs, n_docs) for option, docs in doc_counts.items()}
    cap = distances._SET_BLOCK_BYTES if rows is None else rows * 4 * max(tok.n_vocab, 1)
    with mock.patch.object(distances, "_SET_BLOCK_BYTES", cap):
        stats = _set_stats(tok, *_distinct_pairs(id_pairs, len(string_ids)), idf)
    out = {}
    for option in id_pairs:
        *ew, contained = stats.gather(option, "EW")
        out[option] = dict(zip(STAT_NAMES[:3], ew), contained=contained)
        if option in idf:
            *weighted, same = stats.gather(option, "IDFW")
            assert same.tolist() == contained.tolist()
            out[option] |= dict(zip(STAT_NAMES[3:], weighted))
    return out


def idf_of_docs(docs: dict[str, int], tokenizer: str, n_docs: int) -> IdfIndex:
    """The oracle index of a corpus of ``n_docs`` documents, of which
    ``docs[s]`` are the string s."""
    doc_freq: Counter = Counter()
    for s, k in docs.items():
        for t in tokenize(s, tokenizer):
            doc_freq[t] += k
    return IdfIndex(dict(doc_freq), n_docs)


def assert_matches_loop(pairs_by_option, tokenizer, docs_by_option, rows=None):
    n_docs = max((sum(docs.values()) for docs in docs_by_option.values()), default=1)
    got = kernel_set_stats(pairs_by_option, tokenizer, docs_by_option, n_docs, rows)
    for option, pairs in pairs_by_option.items():
        docs = docs_by_option.get(option)
        idf = idf_of_docs(docs, tokenizer, n_docs) if docs else None
        want = loop_set_stats(pairs, tokenizer, idf)
        # only options with IDF weights get IDF statistics
        for name in STAT_NAMES if option in docs_by_option else STAT_NAMES[:3]:
            assert float_bits(got[option][name]) == float_bits(want[name]), (option, name)
        assert got[option]["contained"].tolist() == want["contained"].tolist(), option


@st.composite
def set_cases(draw):
    """One or two options' pair lists over shared small alphabets (repeated
    tokens, tokens on one side only, empty and 1-2 character strings), each
    with no documents or 1-3 documents for each of some strings, of the
    pairs or not.  The corpus size is the largest option's document count,
    so a token that all of its documents hold weighs 0, and the tokens of
    pair strings that no document holds take document frequency 1."""
    tokenizer = draw(st.sampled_from(["3G", "SP"]))
    chars = st.sampled_from(draw(st.sampled_from(["ab ", "abc  ", "a\u00e9\U0001F600 "])))
    text = st.one_of(
        st.just(""),
        st.lists(chars, max_size=2).map("".join),
        st.lists(chars, max_size=14).map("".join),
        st.lists(chars, min_size=20, max_size=40).map("".join),
    )
    pairs_by_option, docs_by_option = {}, {}
    for option in draw(st.sampled_from([["x"], ["x", "y"]])):
        pairs = draw(st.lists(st.tuples(text, text), min_size=1, max_size=20))
        pairs_by_option[option] = pairs
        if draw(st.booleans()):
            strings = st.sampled_from(sorted({s for pair in pairs for s in pair}))
            docs_by_option[option] = draw(
                st.dictionaries(st.one_of(strings, text), st.integers(1, 3), min_size=1, max_size=6)
            )
    return pairs_by_option, tokenizer, docs_by_option


class TestSetKernel:
    EDGE = [
        ("", ""), ("", "ab c"), ("ab c", ""),  # empty bags, one side or both
        ("ab", "ab"), ("a", "ab"), ("ab", "a"),  # 3G strings shorter than 3
        ("aaaa", "aaaaa"), ("a a a b", "a a b b"),  # repeated tokens
        ("abc", "abd xyz"), ("q", "r s t"),  # tokens only on the B side
        ("common x", "common y"),  # "common" weighs 0
        ("rare zzz", "zzz unseen"),  # "unseen" is in no document
        # long overlaps: many terms of different weights in one sum
        ("the quick brown fox jumps over", "quick brown fox jumps over the lazy dog"),
    ]

    @pytest.mark.parametrize("tokenizer", ["3G", "SP"])
    @pytest.mark.parametrize("entries", [1, 2, 5, distances._SET_ENTRIES])
    def test_edge_cases(self, monkeypatch, tokenizer, entries):
        # small steps put chunk boundaries between and inside the pairs
        monkeypatch.setattr(distances, "_SET_ENTRIES", entries)
        # 1-3 documents per string outside the pairs: each EDGE string but
        # "zzz unseen" with "common" in front, so the weights vary and every
        # document holds "common"
        held = dict.fromkeys(s for pair in self.EDGE for s in pair if "unseen" not in s)
        docs = {f"common {s}": 1 + i % 3 for i, s in enumerate(held)}
        idf = idf_of_docs(docs, tokenizer, sum(docs.values()))
        assert idf.weight(next(iter(tokenize("common", tokenizer)))) == 0.0
        assert not set(tokenize("unseen", tokenizer)) & set(idf.doc_freq)
        assert_matches_loop({"x": self.EDGE, "y": self.EDGE[::-1]}, tokenizer, {"x": docs})

    @pytest.mark.parametrize("tokenizer", ["3G", "SP"])
    @pytest.mark.parametrize("entries", [1, 3, distances._SET_ENTRIES])
    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_block_boundaries(self, monkeypatch, tokenizer, entries, rows):
        # blocks of one A string, of a few, and the default cap, crossed with
        # steps that cut between and inside the pairs of a block
        monkeypatch.setattr(distances, "_SET_ENTRIES", entries)
        docs = {s: 1 + i % 3 for i, s in enumerate(dict.fromkeys(s for p in self.EDGE for s in p))}
        assert_matches_loop({"x": self.EDGE, "y": self.EDGE[::-1]}, tokenizer, {"x": docs}, rows)
        # every pair shares one A string, the empty one among them
        for a in ("a a b c aaaa", ""):
            one_a = [(a, b) for _, b in self.EDGE]
            assert_matches_loop({"x": one_a}, tokenizer, {"x": docs}, rows)

    @pytest.mark.parametrize("cap", [0, 4, 64])
    def test_vocabulary_larger_than_cap(self, monkeypatch, cap):
        # a dense row larger than the cap still takes one block of one row
        words = [f"w{i}" for i in range(40)]
        pairs = [(" ".join(words[i::3]), " ".join(words[i::2])) for i in range(6)]
        pairs += [(" ".join(words), ""), ("", " ".join(words))]
        monkeypatch.setattr(distances, "_SET_BLOCK_BYTES", cap)
        for tokenizer in ("3G", "SP"):
            assert_matches_loop({"x": pairs}, tokenizer, {"x": {s: 1 for p in pairs for s in p}})

    @given(
        set_cases(),
        st.sampled_from([1, 3, 7, distances._SET_ENTRIES]),
        st.sampled_from([1, 2, None]),
    )
    def test_matches_loop(self, case, entries, rows):
        with mock.patch.object(distances, "_SET_ENTRIES", entries):
            assert_matches_loop(*case, rows=rows)


# --- full evaluation ----------------------------------------------------------


class TestEvaluate:
    def test_identical_nonempty_zero_everywhere(self):
        corpus = ["madison falcons", "oak hornets"]
        for f in enumerate_function_space():
            assert evaluate(f, "Madison Falcons", "Madison Falcons", corpus) == 0.0

    def test_both_missing_is_max_distance(self):
        for f in enumerate_function_space():
            assert evaluate(f, "", "", ["a"]) == 1.0

    def test_sp_ew_jd_example(self):
        f = JoinFunction("L", "SP", "EW", "JD")
        assert evaluate(f, "a b c d e", "a b c d x") == pytest.approx(1 - 4 / 6)


@st.composite
def column_cases(draw):
    """A column's values in two tables, the IDF corpus, and two lists of
    pairs among them: case and punctuation that some preprocess options
    drop, repeated and empty values, and values over 64 characters."""
    chars = st.sampled_from("aAb, c.")
    text = st.one_of(
        st.just(""),
        st.lists(chars, max_size=12).map("".join),
        st.lists(chars, min_size=63, max_size=66).map("".join),
    )
    lvals = draw(st.lists(text, min_size=1, max_size=8))
    rvals = draw(st.lists(text, min_size=1, max_size=8))
    pair = st.tuples(st.sampled_from(lvals), st.sampled_from(lvals + rvals))
    pairs = st.lists(pair, max_size=15)
    return lvals + rvals, draw(pairs), draw(pairs)


class TestDistanceMatrix:
    @settings(max_examples=30)
    @given(column_cases())
    def test_shared_table_matches_raw_corpus(self, case):
        # one table serves call after call, and a pair's row does not depend
        # on the other pairs of its call, so the table gathers the rows of
        # the value pairs a previous call over it computed, and the kernels
        # see only the rest
        corpus, first, second = case
        fns = enumerate_function_space()
        table = ColumnStrings(fns, corpus)
        seen = []  # per kernel call, per option, the preprocessed pairs
        strings = table.strings

        def spy(kernel):
            def run(source, a, b, gather, *args):
                seen.append({
                    o: Counter((strings[x], strings[y]) for x, y in zip(a[g], b[g]))
                    for o, g in gather.items()
                })
                return kernel(source, a, b, gather, *args)

            return run

        # first + second holds no pair the first two calls did not compute
        done = set()
        for pairs in (first, second, first + second):
            want = distance_matrix(fns, pairs, corpus)
            seen.clear()
            with mock.patch.object(distances, "_char_rows", spy(distances._char_rows)), \
                    mock.patch.object(distances, "_set_stats", spy(distances._set_stats)):
                got = distance_matrix(fns, pairs, table)
            assert float_bits(got) == float_bits(want)
            assert not got.flags.writeable
            new = set(pairs) - done
            done |= new
            assert bool(seen) == bool(new)
            for by_option in seen:
                for o, computed in by_option.items():
                    assert computed == Counter(
                        (apply_preprocess(x, o), apply_preprocess(y, o)) for x, y in new
                    )

        # a call that raises leaves no rows behind: with a pair value missing
        # from the table it fails, the table holds the calls it held, and it
        # still gives the rows a fresh table gives
        pairs = first + second or [(corpus[0], corpus[0])]
        held = {signature: len(calls) for signature, calls in table._held.items()}
        with pytest.raises(ValueError, match="'zz'"):
            distance_matrix(fns, [*pairs, (corpus[0], "zz")], table)
        assert {signature: len(calls) for signature, calls in table._held.items()} == held
        fresh = distance_matrix(fns, pairs, ColumnStrings(fns, corpus))
        assert float_bits(distance_matrix(fns, pairs, table)) == float_bits(fresh)

    @pytest.mark.parametrize("chunk", [1, 3, distances._PAIR_CHUNK])
    @settings(max_examples=20)
    @given(column_cases())
    def test_pair_chunks_give_the_same_bits(self, chunk, case):
        # a call's new pairs computed a chunk at a time, in order of first
        # position, with repeated pairs and rows gathered from earlier calls
        # over the table (a few cells at a time with the small chunks), give
        # the bits of a fresh call per pair list
        corpus, first, second = case
        fns = enumerate_function_space()
        calls = [first, second, second[::-1] + first + second]
        want = [distance_matrix(fns, pairs, corpus) for pairs in calls]
        table = ColumnStrings(fns, corpus)
        with mock.patch.object(distances, "_PAIR_CHUNK", chunk), \
                mock.patch.object(distances, "_GATHER_CELLS", min(chunk, distances._GATHER_CELLS)):
            got = [distance_matrix(fns, pairs, table) for pairs in calls]
        assert [float_bits(g) for g in got] == [float_bits(w) for w in want]

    def test_pair_value_missing_from_table_raises(self):
        fns = enumerate_function_space()
        table = ColumnStrings(fns, ["oak tigers", "riverton hornets"])
        with pytest.raises(ValueError, match="'oak tiger'"):
            distance_matrix(fns, [("oak tigers", "oak tiger")], table)
        with pytest.raises(ValueError, match="'L\\+S'"):
            table = ColumnStrings(fns[:1], ["oak tigers"])
            distance_matrix(fns, [("oak tigers", "oak tigers")], table)

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
        corpus = values_l + values_r
        mat = distance_matrix(fns, pairs, corpus)
        for fi, f in enumerate(fns):
            idf = None
            if f.is_set_based:
                idf = build_idf_from_values(corpus, f.preprocess, f.tokenizer)
            for pi, (a, b) in enumerate(pairs):
                assert mat[fi, pi] == scalar_evaluate(f, a, b, idf)
                assert evaluate(f, a, b, corpus) == mat[fi, pi]

    def test_idfw_matches_scalar_evaluate_over_other_corpus(self):
        # the corpus lacks some pair values, whose tokens no document may
        # hold (document frequency 0, weighed as 1), and holds values outside
        # the pairs, one of them repeated
        values_l = ["2008 Oak Tigers football team", "riverton hornets", "a,b!", "ab", ""]
        values_r = ["oak tigers baseball", "Riverton Hornet", "zz", "ab c", "quasar"]
        pairs = [(a, b) for a in values_l for b in values_r]
        corpus = values_l[:2] + values_r[:1] + ["oak tigers hockey club", "Team", "Team", "ab"]
        fns = [f for f in enumerate_function_space() if f.weights == "IDFW"]
        mat = distance_matrix(fns, pairs, corpus)
        for p, t in {(f.preprocess, f.tokenizer) for f in fns}:
            unheld = tokenize(apply_preprocess("quasar", p), t)
            assert not set(unheld) & set(build_idf_from_values(corpus, p, t).doc_freq)
        for fi, f in enumerate(fns):
            idf = build_idf_from_values(corpus, f.preprocess, f.tokenizer)
            want = [scalar_evaluate(f, a, b, idf) for a, b in pairs]
            assert float_bits(mat[fi]) == float_bits(want), f

    def test_char_kernels_see_each_preprocessed_pair_once(self, monkeypatch):
        seen = {"ED": [], "JW": []}
        table_strings = {}

        def table_spy(strings, build=distances._peq_table):
            table = build(strings)
            table_strings[id(table)] = list(strings)
            return table

        monkeypatch.setattr(distances, "_peq_table", table_spy)
        for kind, name in (("ED", "_levenshtein_batch"), ("JW", "_jaro_winkler_batch")):
            kernel = getattr(distances, name)

            def spy(table, a, b, kernel=kernel, kind=kind):
                strings = table_strings[id(table)]
                seen[kind].extend((strings[x], strings[y]) for x, y in zip(a, b))
                return kernel(table, a, b)

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
        seen = []

        def spy(strings, tokenizer, tokenize_strings=distances.tokenize_strings):
            seen.extend((s, tokenizer) for s in strings)
            return tokenize_strings(strings, tokenizer)

        monkeypatch.setattr(distances, "tokenize_strings", spy)
        distance_matrix(fns, pairs, values)
        by_option = [{apply_preprocess(v, o) for v in values} for o in {f.preprocess for f in fns}]
        expected = [(s, t) for s in set().union(*by_option) for t in ("3G", "SP")]
        # one tokenization per option would tokenize more strings
        assert len(by_option) == 4
        assert len(expected) < 2 * sum(map(len, by_option))
        assert sorted(seen) == sorted(expected)

    def test_set_rows_released_after_last_use(self, monkeypatch):
        # the full space orders set functions by (option, tokenizer, weights)
        # key, so when a key's rows are built every earlier key's are freed
        values = ["oak tigers", "Oak, Tigers!", "running dogs", "oak tiger", "", "ab"]
        pairs = [(a, b) for a in values for b in values]
        fns = enumerate_function_space()
        built, freed = [], []

        def spy(*args, set_rows=distances._set_rows):
            freed.append([ref() is None for ref in built])
            rows = set_rows(*args)
            built.extend(weakref.ref(row) for row in rows.values())
            return rows

        monkeypatch.setattr(distances, "_set_rows", spy)
        want = distance_matrix(fns, pairs, values)
        keys = {(f.preprocess, f.tokenizer, f.weights) for f in fns if f.is_set_based}
        assert len(freed) == len(keys) == 16
        assert all(all(done) for done in freed)
        # a release counts last uses: interleaved keys are built once each and
        # give the same rows
        order = sorted(range(len(fns)), key=lambda i: (fns[i].distance, i))
        freed.clear()
        got = distance_matrix([fns[i] for i in order], pairs, values)
        assert len(freed) == 16 and not all(all(done) for done in freed)
        assert float_bits(got) == float_bits(want[order])

    def test_missing_pair_is_one_for_all_functions(self):
        fns = enumerate_function_space(FunctionSpaceOptions(weights=("EW",)))
        mat = distance_matrix(fns, [("", "")])
        assert np.all(mat == 1.0)

    def test_idfw_without_index_raises(self):
        f = JoinFunction("L", "SP", "IDFW", "JD")
        with pytest.raises(ValueError, match="needs a corpus"):
            distance_matrix([f], [("a", "b")])
        with pytest.raises(ValueError, match="needs a corpus"):
            distance_matrix([f], [], None)

    def test_idfw_empty_corpus_raises(self):
        # IDF over no document is undefined; without an IDFW function the
        # corpus is not read
        f = JoinFunction("L", "SP", "IDFW", "JD")
        for corpus in ([], iter(())):
            with pytest.raises(ValueError, match="empty corpus"):
                distance_matrix([f], [("a", "b")], corpus)
        with pytest.raises(ValueError, match="empty corpus"):
            evaluate(f, "a", "b", [])
        ew = JoinFunction("L", "SP", "EW", "JD")
        assert distance_matrix([ew], [("a", "b")], []).tolist() == [[1.0]]

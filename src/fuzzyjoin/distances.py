"""Distance kinds, all normalized to [0, 1].

Character-based kinds (ED, JW) compare preprocessed strings directly;
set-based kinds (JD, CD, DD, ID, MD) compare weighted token multisets; the
containment hybrids (CJD, CCD, CDD) fall back to the matching standard kind
when the right bag is a sub-multiset of the left bag and return 1 otherwise.
These are all the kinds: the function space is closed, and the library
computes each of them itself.

`distance_matrix` is the library's one set-distance path: the solver calls
it, and the single-pair `evaluate` is one call to it.  Every call runs on a
`ColumnStrings`, the string table of one column: its raw values in both
tables (the IDF corpus), each distinct value interned once and preprocessed
once per option into one table of distinct preprocessed strings.  The
solver builds one per column, which also holds blocking's lowercased strings
and, when the rules run, the rules', and makes one call per column and
column set over its L-R pairs followed by its L-L pairs; the column's
blocking and the column sets of a search share it.  A raw or missing
corpus becomes one at the start of the call.  A call computes every
(preprocess, tokenizer, weights) combination once per distinct pair of
string ids, shared across all distance kinds that use it.  A pair's row
depends only on its two values and the table, so the table remembers the
matrices computed over it, per tuple of functions, keyed by value pair: a
later call with the same functions gathers the rows of the value pairs a
previous call computed, bit for bit, and computes only the rest.  That rest
is computed in order of first position, at most ``_PAIR_CHUNK`` distinct
pairs at a time, each written to its first position and copied to its
repeats, so a call's per-pair statistics and rows are bounded whatever its
size; gathered and repeated columns are copied a block of rows at a time.
Returned matrices are read-only, because the table keeps them.

The character kinds share one cache across preprocess options, so a
preprocessed pair that several options produce is computed once.  Pairs of
strings up to 64 characters run as batch kernels over string ids: Myers's
bit-parallel edit distance (Hyyrö's Levenshtein formulation) and a
bit-parallel Jaro-Winkler, one 64-bit word per pair.  Both read one
match-mask ("Peq") table built once per call: the strings' code points
interned into one alphabet, and per string and symbol the mask of the
positions that hold it.  Each kernel step gathers one mask per pair, the
pattern string's mask of the text's next symbol.  The table is a dense
(strings x alphabet) uint64 array while a row of it fits a fixed byte cap,
`_PEQ_ROW_BYTES` (2 KB: 255 symbols and the pad), so its size grows with
the number of strings only; a larger alphabet, e.g. of CJK text, has the
same masks looked up among sorted (string, symbol) keys, which takes
several times longer per step.  Pairs with a string longer than 64
characters fall back to the scalar `char_distance`, which also serves as
the kernels' test oracle.

The set kinds have no scalar path.  They run batched over one tokenization
per table and tokenizer (`text.tokenize_strings`): each distinct
preprocessed string of the column is tokenized once into token ids and
counts, on the first call that needs that tokenizer.  A pair's
intersection reads the A string's count of each B token directly, from
dense (string x token) count rows filled for a block of A strings at a time
(the probe step of an inverted token index), and numpy sums each pair's
terms over the tokens both hold, in the order of a loop over its token
`Counter`s; a token A lacks would add 0, which changes no sum.  So the
results equal, bit for bit, the per-pair loop kept as the test oracle in
`tests/conftest.py` (`loop_set_stats`, `scalar_evaluate`).  Count
statistics are shared across preprocess options like the character cache;
only the IDF weights differ.  Within one chunk, the distinct string pairs
are found once per set of options the kernels read, and a (preprocess,
tokenizer, weights) combination's statistics are gathered when its first
function is reached, and its rows dropped after the last that reads them.

IDF weights count the table's documents: each raw corpus value stands for
as many documents as it has copies, and a value of a pair that is not in
the corpus for none.  Per IDFW option, `text.idf_weights` turns the number
of documents each string stands for into one weight per token, once per
table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .functions import CHAR_DISTANCES, JoinFunction
from .text import apply_preprocess, idf_weights, tokenize_strings

# --- character-based -------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Raw edit distance (two-row dynamic program)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        append = cur.append
        left = i
        for j, cb in enumerate(b, start=1):
            sub = prev[j - 1] + (ca != cb)
            dele = prev[j] + 1
            ins = left + 1
            left = sub if sub <= dele else dele
            if ins < left:
                left = ins
            append(left)
        prev = cur
    return prev[-1]


def jaro_similarity(a: str, b: str) -> float:
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    matched_a = [False] * la
    matched_b = [False] * lb
    m = 0
    for i, ca in enumerate(a):
        lo = i - window if i > window else 0
        hi = i + window + 1
        if hi > lb:
            hi = lb
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ca:
                matched_a[i] = True
                matched_b[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if matched_a[i]:
            while not matched_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    t = transpositions // 2
    return (m / la + m / lb + (m - t) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str) -> float:
    """Jaro similarity with the standard prefix bonus: scale 0.1, at most 4
    prefix characters, applied when the base similarity exceeds 0.7."""
    jaro = jaro_similarity(a, b)
    if jaro <= 0.7:
        return jaro
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def char_distance(a: str, b: str, kind: str) -> float:
    """ED = edit distance / max length (0 when both empty); JW = 1 - Jaro-Winkler."""
    if kind == "ED":
        longest = max(len(a), len(b))
        if longest == 0:
            return 0.0
        return levenshtein(a, b) / longest
    if kind == "JW":
        return 1.0 - jaro_winkler_similarity(a, b)
    raise ValueError(f"unknown character distance {kind!r}")


# --- set-based --------------------------------------------------------------

# a containment hybrid's standard kind, taken when the right bag is a
# sub-multiset of the left one
_CONTAIN_BASE = {"CJD": "JD", "CCD": "CD", "CDD": "DD"}


# --- full evaluation --------------------------------------------------------


def evaluate(
    f: JoinFunction,
    l_value: str,
    r_value: str,
    corpus: Iterable[str] | None = None,
) -> float:
    """Distance between two raw cell values under one join function: one
    ``distance_matrix`` call, so it equals what the solver computes.

    Composes preprocess, tokenize, weight, and distance.  Two missing
    values (both raw cells empty) are maximally distant by definition.
    ``corpus`` holds the raw cell values an IDFW function's weights count.
    """
    return float(distance_matrix([f], [(l_value, r_value)], corpus)[0, 0])


# --- batch evaluation over distinct string pairs ----------------------------

# Strings up to one machine word long run through the bit-parallel kernels;
# bit k of a mask stands for character k of a string.
_WORD = 64
# pairs per kernel step, which bounds the (pairs x 64) temporaries
_CHUNK = 4096
# new distinct value pairs per pass of all the kernels in one
# ``distance_matrix`` call, which bounds the call's per-pair statistics and
# rows whatever its number of pairs
_PAIR_CHUNK = 1 << 15
# cells per block of a copy of matrix columns, which bounds its temporary
_GATHER_CELLS = 1 << 16
# largest row of a dense match-mask table in bytes, 255 symbols and the pad:
# the table costs at most 2 KB per string, whatever the number of strings;
# a larger alphabet is kept as sorted (string, symbol) keys instead
_PEQ_ROW_BYTES = 2048
# _LOW[k] has bits 0..k-1 set
_LOW = np.array([(1 << k) - 1 for k in range(_WORD + 1)], dtype=np.uint64)


@dataclass(frozen=True)
class _PeqTable:
    """The match masks of a table of strings of at most 64 characters.

    ``symbols[s, k]`` is the symbol id of character k of string s, padded
    with the id ``width - 1``, which no character has.  ``eq(s * width + c)``
    is the mask whose bit k is set when character k of string s is symbol
    c: a gather from the dense (strings x width) table when ``keys`` is
    None, otherwise a lookup among the sorted keys of the non-zero masks,
    which end with a sentinel no query hits.
    """

    symbols: np.ndarray
    lengths: np.ndarray
    width: int
    keys: np.ndarray | None
    masks: np.ndarray

    def eq(self, query: np.ndarray) -> np.ndarray:
        if self.keys is None:
            return self.masks[query]
        pos = np.searchsorted(self.keys, query)
        return np.where(self.keys[pos] == query, self.masks[pos], np.uint64(0))


def _peq_table(strings: Sequence[str]) -> _PeqTable:
    """The Peq table of Myers (1999) over strings of at most 64 characters:
    their code points interned into one alphabet, and one mask per string
    and symbol it holds, built once for all the pairs among them."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    flat = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    alphabet, symbol = np.unique(flat, return_inverse=True)
    width = len(alphabet) + 1
    owner = np.repeat(np.arange(len(strings)), lengths)
    position = np.arange(len(flat)) - (np.cumsum(lengths) - lengths)[owner]
    symbols = np.full((len(strings), _WORD), width - 1, dtype=np.int32)
    symbols[owner, position] = symbol
    keys = owner * width + symbol
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    bits = np.left_shift(np.uint64(1), position[order].astype(np.uint64))
    masks = np.bitwise_or.reduceat(bits, first)
    keys = keys[first]
    if width * 8 <= _PEQ_ROW_BYTES:
        dense = np.zeros(len(strings) * width, dtype=np.uint64)
        dense[keys] = masks
        return _PeqTable(symbols, lengths, width, None, dense)
    keys = np.append(keys, np.iinfo(np.int64).max)
    return _PeqTable(symbols, lengths, width, keys, np.append(masks, np.uint64(0)))


def _blocks(lengths: np.ndarray):
    """Blocks of at most _CHUNK rows, longest first, each with, per step j,
    the number of its rows longer than j: in that order, the rows a loop
    over character positions still runs at step j are a prefix."""
    order = np.argsort(-lengths, kind="stable")
    for start in range(0, len(order), _CHUNK):
        rows = order[start : start + _CHUNK]
        yield rows, np.searchsorted(-lengths[rows], -np.arange(lengths[rows[0]]))


def _levenshtein_batch(table: _PeqTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Edit distances of the string pairs (a[i], b[i]) of a Peq table:
    Myers's bit-parallel algorithm in Hyyrö's formulation for Levenshtein
    distance, one uint64 word per pair, all pairs advancing one text
    character per step.  The pattern is the longer string, the text the
    shorter one, and each step gathers the pattern's mask of one text
    symbol.  A pair's distance is read off its last column: the text's
    length plus the pattern's vertical deltas there."""
    la, lb = table.lengths[a], table.lengths[b]
    longer = la >= lb
    pattern, text = np.where(longer, a, b), np.where(longer, b, a)
    lt = np.minimum(la, lb)
    out = np.empty(len(a), dtype=np.int64)
    for rows, active in _blocks(lt):
        base = pattern[rows] * table.width
        chars = table.symbols[text[rows]]
        pv = np.full(len(rows), ~np.uint64(0))
        mv = np.zeros(len(rows), dtype=np.uint64)
        for j, k in enumerate(active):
            eq = table.eq(base[:k] + chars[:k, j])
            vp, vm = pv[:k], mv[:k]
            xv = eq | vm
            xh = (((eq & vp) + vp) ^ vp) | eq
            ph = vm | ~(xh | vp)
            mh = vp & xh
            ph = (ph << 1) | 1
            mh = mh << 1
            pv[:k] = mh | ~(xv | ph)
            mv[:k] = ph & xv
        low = _LOW[np.maximum(la[rows], lb[rows])]  # the pattern's bits
        out[rows] = lt[rows] + np.bitwise_count(pv & low) - np.bitwise_count(mv & low)
    return out


def _jaro_winkler_batch(table: _PeqTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``jaro_winkler_similarity`` of the string pairs (a[i], b[i]) of a Peq
    table, bit for bit.  Each character of a takes the lowest unmatched
    matching position of b within the window, from b's mask of its symbol;
    transpositions compare the matched symbols of both in order."""
    la, lb = table.lengths[a], table.lengths[b]
    out = np.empty(len(a))
    for rows, active in _blocks(la):
        n = len(rows)
        ln, rn = la[rows], lb[rows]
        left, right = table.symbols[a[rows]], table.symbols[b[rows]]
        base = b[rows] * table.width
        window = np.maximum(np.maximum(ln, rn) // 2 - 1, 0)
        # b's positions i - window to i + window around a's character i,
        # shifted one bit per step; bits past b's end match no mask of b
        reach = _LOW[window + 1]
        taken_b = np.zeros(n, dtype=np.uint64)
        taken_a = np.zeros((n, _WORD), dtype=bool)
        for i, k in enumerate(active):
            cand = table.eq(base[:k] + left[:k, i]) & reach[:k] & ~taken_b[:k]
            taken_b[:k] |= cand & (~cand + np.uint64(1))
            taken_a[:k, i] = cand != 0
            reach[:k] = (reach[:k] << 1) | (window[:k] > i)
        m = taken_a.sum(axis=1)
        bits_b = np.unpackbits(
            taken_b.astype("<u8").view(np.uint8).reshape(n, 8), axis=1, bitorder="little"
        ).astype(bool)
        differ = left[taken_a] != right[bits_b]
        t = np.bincount(np.repeat(np.arange(n), m)[differ], minlength=n) // 2
        # both sides pad with one symbol, but pads line up within the first 4
        # positions only for equal strings, where jaro is exactly 1 and the
        # bonus below adds prefix * 0.1 * 0
        prefix = np.cumprod(left[:, :4] == right[:, :4], axis=1).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            jaro = (m / ln + m / rn + (m - t) / m) / 3.0
        sim = np.where(jaro > 0.7, jaro + prefix * 0.1 * (1.0 - jaro), jaro)
        # no match gives 0, except between two empty strings, which are equal;
        # equal non-empty strings give exactly 1 above
        out[rows] = np.where(m > 0, sim, np.where(ln + rn == 0, 1.0, 0.0))
    return out


def _distinct_pairs(
    pairs_by_option: Mapping[str, tuple[np.ndarray, np.ndarray]], n_strings: int
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The distinct (a, b) string-id pairs over all options, and per option
    the index of each of its pairs among them."""
    keys = np.concatenate([a * n_strings + b for a, b in pairs_by_option.values()])
    distinct, inverse = np.unique(keys, return_inverse=True)
    splits = np.cumsum([len(a) for a, _ in pairs_by_option.values()])[:-1]
    a, b = np.divmod(distinct, n_strings)
    return a, b, dict(zip(pairs_by_option, np.split(inverse, splits)))


def _char_rows(
    strings: Sequence[str], a: np.ndarray, b: np.ndarray, gather: Mapping[str, np.ndarray]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """ED and JW rows per preprocess option, equal to ``char_distance``, over
    a ``_distinct_pairs`` table: each distinct preprocessed pair is computed
    once, whichever options produce it.  Pairs of strings up to 64
    characters run through the kernels over one Peq table of the strings
    they hold; the scalar code takes the rest."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    ed = np.empty(len(a))
    jw = np.empty(len(a))
    fits = (lengths[a] <= _WORD) & (lengths[b] <= _WORD)
    held, rows = np.unique(np.concatenate([a[fits], b[fits]]), return_inverse=True)
    table = _peq_table([strings[s] for s in held.tolist()])
    x, y = np.split(rows, 2)
    longest = np.maximum(lengths[a[fits]], lengths[b[fits]])
    with np.errstate(divide="ignore", invalid="ignore"):
        ed[fits] = np.where(longest == 0, 0.0, _levenshtein_batch(table, x, y) / longest)
    jw[fits] = 1.0 - _jaro_winkler_batch(table, x, y)
    for i in np.flatnonzero(~fits).tolist():
        ed[i] = char_distance(strings[a[i]], strings[b[i]], "ED")
        jw[i] = char_distance(strings[a[i]], strings[b[i]], "JW")
    return {option: (ed[g], jw[g]) for option, g in gather.items()}


# B-side token entries per set-kernel step, which bounds the per-entry
# temporaries
_SET_ENTRIES = 1 << 14
# bytes of the dense int32 (A string x token) count rows the set kernel
# fills at once; a row larger than this still takes one block
_SET_BLOCK_BYTES = 1 << 18


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges [start, start + length)."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)


class _Tokens:
    """One ``tokenize_strings`` pass over every string of a table: its
    vocabulary, and per string its entries (token ids and counts, in
    ``Counter`` order) and its total count."""

    def __init__(self, strings: Sequence[str], tokenizer: str):
        self.vocab, self.sizes, self.tokens, self.counts = tokenize_strings(strings, tokenizer)
        self.n_vocab = len(self.vocab)
        self.starts = np.cumsum(self.sizes) - self.sizes
        owner = np.repeat(np.arange(len(strings)), self.sizes)
        self.size = np.bincount(owner, weights=self.counts, minlength=len(strings))

    def entries(self, strings: np.ndarray) -> np.ndarray:
        """The positions of the given strings' entries, string by string."""
        return _ranges(self.starts[strings], self.sizes[strings])

    def idf(self, docs: np.ndarray, n_docs: int) -> tuple[np.ndarray, np.ndarray]:
        """Per token its IDF weight over ``n_docs`` documents, of which string
        s stands for ``docs[s]``, and per string its total weight, summed in
        token order."""
        n_strings = len(self.sizes)
        w = idf_weights(self.sizes, self.tokens, self.n_vocab, docs, n_docs)
        owner = np.repeat(np.arange(n_strings), self.sizes)
        return w, np.bincount(owner, weights=self.counts * w[self.tokens], minlength=n_strings)


@dataclass
class _SetStats:
    """``_set_stats`` of one tokenizer: the distinct pairs and their
    statistics, and per preprocess option its pairs' indices among them."""

    tok: _Tokens
    a: np.ndarray
    b: np.ndarray
    idf: Mapping[str, tuple[np.ndarray, np.ndarray]]
    at: Mapping[str, np.ndarray]
    cnt_i: np.ndarray
    idf_i: Mapping[str, np.ndarray]
    contained: np.ndarray

    def gather(self, option: str, weights: str) -> tuple[np.ndarray, ...]:
        """An option's per-pair intersection, A size and B size under one
        weight scheme, and whether B is a sub-multiset of A."""
        g = self.at[option]
        pa, pb = self.a[g], self.b[g]
        if weights == "EW":
            inter, w_a, w_b = self.cnt_i[g], self.tok.size[pa], self.tok.size[pb]
        else:
            total = self.idf[option][1]
            inter, w_a, w_b = self.idf_i[option][g], total[pa], total[pb]
        return inter, w_a, w_b, self.contained[g]


def _set_stats(
    tok: _Tokens,
    a: np.ndarray,
    b: np.ndarray,
    gather: Mapping[str, np.ndarray],
    idf_by_option: Mapping[str, tuple[np.ndarray, np.ndarray]],
) -> _SetStats:
    """Per preprocess option, the per-pair intersection and size statistics
    of one tokenizer under both weight schemes over a ``_distinct_pairs``
    table, and whether the right bag is a sub-multiset of the left one, each
    gathered when asked for (``_SetStats.gather``).  ``idf_by_option[option]``
    holds the option's IDF weights (``_Tokens.idf``); only those options
    have IDF statistics.

    The count statistics of a distinct string pair are computed once,
    whichever options produce it; only the IDF weights differ between
    options.  The distinct pairs come sorted by A string.  Per block of
    consecutive A strings whose dense (string x token) int32 count rows fit
    ``_SET_BLOCK_BYTES``, their counts are scattered into those rows; each
    B-side entry of the block's pairs then reads its A count directly at
    (row, token), in steps of at most ``_SET_ENTRIES`` entries, and the
    touched cells are zeroed for the next block.  ``np.bincount`` adds each
    pair's terms in B's token order starting from 0.0, the order of a loop
    over the bags.  It adds only the entries whose token A holds: any other
    would add ``0 * w``, which changes no sum, so the results are those of
    the loop bit for bit.  B is a sub-multiset of A exactly when the summed
    ``min(count in A, count in B)`` reaches B's total count.
    """
    n = len(a)
    n_vocab = tok.n_vocab
    cnt_i = np.empty(n)
    idf_i = {option: np.empty(n) for option in idf_by_option}
    # each pair's A string numbered in order, and blocks of rows_per_block of
    # them, one dense row each
    new_a = np.diff(a, prepend=-1) != 0
    heads = np.flatnonzero(new_a)
    rows_per_block = max(_SET_BLOCK_BYTES // (4 * max(n_vocab, 1)), 1)
    row = (np.cumsum(new_a) - 1) % rows_per_block
    dense = np.zeros(min(rows_per_block, len(heads)) * n_vocab, dtype=np.int32)
    block_bounds = np.append(heads[::rows_per_block], n).tolist()
    for block, (start, stop) in enumerate(zip(block_bounds[:-1], block_bounds[1:])):
        held = a[heads[block * rows_per_block : (block + 1) * rows_per_block]]
        entry = tok.entries(held)
        cells = np.repeat(np.arange(len(held)) * n_vocab, tok.sizes[held]) + tok.tokens[entry]
        dense[cells] = tok.counts[entry]
        # steps of whole pairs; step k ends with the last pair that ends
        # within the block's first (k + 1) * _SET_ENTRIES entries, so it holds
        # at most _SET_ENTRIES entries plus those of its first pair (a
        # repeated cut makes an empty step)
        ends = np.cumsum(tok.sizes[b[start:stop]])
        cuts = np.searchsorted(ends, np.arange(_SET_ENTRIES, ends[-1], _SET_ENTRIES), side="right")
        bounds = np.concatenate([[0], cuts, [stop - start]]) + start
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            lengths = tok.sizes[b[lo:hi]]
            entry = tok.entries(b[lo:hi])
            t = tok.tokens[entry]
            ma = dense[np.repeat(row[lo:hi] * n_vocab, lengths) + t]
            hit = np.flatnonzero(ma)
            pair = np.repeat(np.arange(hi - lo, dtype=np.int32), lengths)[hit]
            t = t[hit]
            m = np.minimum(ma[hit], tok.counts[entry[hit]])
            cnt_i[lo:hi] = np.bincount(pair, weights=m, minlength=hi - lo)
            for option, (w, _) in idf_by_option.items():
                idf_i[option][lo:hi] = np.bincount(pair, weights=m * w[t], minlength=hi - lo)
        dense[cells] = 0
    contained = cnt_i == tok.size[b]
    return _SetStats(tok, a, b, idf_by_option, gather, cnt_i, idf_i, contained)


def _set_rows(inter, w_a, w_b, contained) -> dict[str, np.ndarray]:
    both_zero = (w_a <= 0.0) & (w_b <= 0.0)
    one_zero = ((w_a <= 0.0) | (w_b <= 0.0)) & ~both_zero
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = {
            "JD": 1.0 - inter / (w_a + w_b - inter),
            "CD": 1.0 - inter / np.sqrt(w_a * w_b),
            "DD": 1.0 - 2.0 * inter / (w_a + w_b),
            "ID": 1.0 - inter / np.minimum(w_a, w_b),
            "MD": 1.0 - inter / np.maximum(w_a, w_b),
        }
    for kind, base in _CONTAIN_BASE.items():
        rows[kind] = np.where(contained, rows[base], 1.0)
    for kind, row in rows.items():
        row = np.where(one_zero, 1.0, np.where(both_zero, 0.0, row))
        rows[kind] = np.clip(row, 0.0, 1.0)
    return rows


class ColumnStrings:
    """The strings of one column that every distance call over its pairs
    shares.

    Built from the column's raw values in both tables, the IDF corpus (one
    document per value, so a value stands for as many documents as it has
    copies), plus ``extra`` values of no document.  It interns each distinct
    value once and preprocesses it once per preprocess option of
    ``functions``, and of ``options`` (the solver adds blocking's L, and the
    negative rules'), into one table of distinct preprocessed strings.  On
    first use it tokenizes all of those strings once per tokenizer and counts
    each IDFW option's weights once; blocking, later calls, and later column
    sets that keep the table read them again.

    It also remembers, per tuple of functions, the matrices that
    ``distance_matrix`` returned over it: per call, the sorted keys of the
    distinct value pairs that call computed, one column of the matrix per
    key, and the matrix itself, which is read-only and not copied.  A call
    is remembered only once it has succeeded.
    """

    def __init__(
        self,
        functions: Sequence[JoinFunction],
        corpus: Iterable[str],
        extra: Iterable[str] = (),
        options: Iterable[str] = (),
    ):
        copies = Counter(corpus)
        self.n_docs = copies.total()
        self.value_ids = {v: i for i, v in enumerate(copies)}
        for v in extra:
            self.value_ids.setdefault(v, len(self.value_ids))
        self.copies = np.zeros(len(self.value_ids))
        self.copies[: len(copies)] = list(copies.values())
        ids: dict[str, int] = {}
        # per option, each value's preprocessed string id
        self.of_value = {
            option: np.array(
                [ids.setdefault(apply_preprocess(v, option), len(ids)) for v in self.value_ids],
                dtype=np.int64,
            )
            for option in dict.fromkeys([*(f.preprocess for f in functions), *options])
        }
        self.strings = list(ids)
        self._tokens: dict[str, _Tokens] = {}
        self._idf: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        # per function tuple, one (keys, columns, matrix) per call
        self._held: dict[tuple[JoinFunction, ...], list[tuple[np.ndarray, ...]]] = {}

    def string_ids(self, values: Iterable[str], option: str) -> np.ndarray:
        """Each value's preprocessed string id under ``option``."""
        value_ids = self.value_ids
        return self.of_value[option][np.fromiter((value_ids[v] for v in values), dtype=np.int64)]

    def tokens(self, tokenizer: str) -> _Tokens:
        if tokenizer not in self._tokens:
            self._tokens[tokenizer] = _Tokens(self.strings, tokenizer)
        return self._tokens[tokenizer]

    def idf(self, tokenizer: str, option: str) -> tuple[np.ndarray, np.ndarray]:
        """An IDFW option's token weights and per-string totals."""
        key = (tokenizer, option)
        if key not in self._idf:
            docs = np.bincount(
                self.of_value[option], weights=self.copies, minlength=len(self.strings)
            )
            self._idf[key] = self.tokens(tokenizer).idf(docs, self.n_docs)
        return self._idf[key]


def _write_rows(
    out: np.ndarray,
    at: np.ndarray,
    functions: Sequence[JoinFunction],
    table: ColumnStrings,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """Write to ``out[fi, at]`` function fi's row over the distinct value
    pairs (left[i], right[i]) of ``table``, whose distinct string pairs are
    found once per set of options a kernel reads.  A combination's
    statistics are gathered at its first function, its rows dropped after
    its last."""

    @cache
    def pairs_of(options: frozenset[str]) -> tuple:
        by_option = {o: (table.of_value[o][left], table.of_value[o][right]) for o in options}
        return _distinct_pairs(by_option, len(table.strings))

    char_options = frozenset(f.preprocess for f in functions if f.distance in CHAR_DISTANCES)
    char_rows = _char_rows(table.strings, *pairs_of(char_options)) if char_options else {}
    set_fns = [f for f in functions if f.is_set_based]
    set_stats: dict[str, _SetStats] = {}
    for tokenizer in dict.fromkeys(f.tokenizer for f in set_fns):
        fns = [f for f in set_fns if f.tokenizer == tokenizer]
        set_stats[tokenizer] = _set_stats(
            table.tokens(tokenizer),
            *pairs_of(frozenset(f.preprocess for f in fns)),
            {f.preprocess: table.idf(tokenizer, f.preprocess) for f in fns if f.weights == "IDFW"},
        )
    set_rows: dict[tuple[str, str, str], dict[str, np.ndarray]] = {}
    last_use = {
        (f.preprocess, f.tokenizer, f.weights): fi for fi, f in enumerate(functions) if f.is_set_based
    }
    for fi, f in enumerate(functions):
        if f.distance in CHAR_DISTANCES:
            ed, jw = char_rows[f.preprocess]
            out[fi, at] = ed if f.distance == "ED" else jw
            continue
        key = (f.preprocess, f.tokenizer, f.weights)
        if key not in set_rows:
            set_rows[key] = _set_rows(*set_stats[f.tokenizer].gather(f.preprocess, f.weights))
        out[fi, at] = set_rows[key][f.distance]
        if last_use[key] == fi:
            del set_rows[key]


def _copy_columns(out: np.ndarray, at: np.ndarray, source: np.ndarray, src: np.ndarray) -> None:
    """``out[:, at] = source[:, src]``, a block of rows at a time."""
    step = max(1, _GATHER_CELLS // max(len(src), 1))
    for r in range(0, len(out), step):
        out[r : r + step, at] = source[r : r + step, src]


def distance_matrix(
    functions: Sequence[JoinFunction],
    pairs: Sequence[tuple[str, str]],
    corpus: ColumnStrings | Iterable[str] | None = None,
    threads: int = 1,  # ignored; kept only for perfbench's tracer, which passes it
) -> np.ndarray:
    """Distances for every join function over a list of (left, right) raw
    value pairs; returns an array of shape (len(functions), len(pairs)).

    ``corpus`` is the column's ``ColumnStrings``, which must hold every pair
    value and every preprocess option of ``functions``, or the raw cell
    values that IDF weights are counted over, one document per value.  A raw
    or missing corpus becomes a ``ColumnStrings`` here, with the pair values
    as strings of no document.  An IDFW function needs a corpus of at least
    one document; without one the corpus is not read.  The result is
    read-only: the table keeps it for later calls with the same functions.
    """
    idfw = [f for f in functions if f.is_set_based and f.weights == "IDFW"]
    if isinstance(corpus, ColumnStrings):
        table = corpus
    elif idfw and corpus is None:
        raise ValueError(f"IDFW function {idfw[0]} needs a corpus for its IDF weights")
    else:
        values = (v for pair in pairs for v in pair)
        table = ColumnStrings(functions, corpus if idfw else (), values)
    if idfw and table.n_docs == 0:
        raise ValueError(
            f"IDFW function {idfw[0]} was given an empty corpus: IDF weights need "
            "at least one document"
        )
    options = dict.fromkeys(f.preprocess for f in functions)
    unknown = [option for option in options if option not in table.of_value]
    if unknown:
        raise ValueError(f"the column's string table has no preprocess option {unknown[0]!r}")

    # each distinct raw value's table id; a distinct raw pair that a previous
    # call over the table computed is gathered from it, and the rest is
    # computed in chunks
    n = len(pairs)
    value_ids = table.value_ids
    try:
        ids = np.fromiter(
            (value_ids[v] for pair in pairs for v in pair), dtype=np.int64, count=2 * n
        )
    except KeyError as exc:
        raise ValueError(
            f"pair value {exc.args[0]!r} is not in the column's string table"
        ) from None
    n_values = len(value_ids)
    keys, first, inverse = np.unique(
        ids[0::2] * n_values + ids[1::2], return_index=True, return_inverse=True
    )
    result = np.empty((len(functions), n))
    todo = np.ones(len(keys), dtype=bool)
    signature = tuple(functions)
    for held_keys, columns, held in table._held.get(signature, ()):
        pos = np.minimum(np.searchsorted(held_keys, keys), len(held_keys) - 1)
        hit = held_keys[pos] == keys
        at = np.flatnonzero(hit[inverse])
        _copy_columns(result, at, held, columns[pos[inverse[at]]])
        todo &= ~hit
    # the new distinct pairs in order of first position, each computed once
    # and written there, _PAIR_CHUNK at a time
    new = np.flatnonzero(todo)
    new = new[np.argsort(first[new])]
    # what the table keeps is allocated before the kernels' temporaries, so
    # that it does not pin them in the heap once they are freed
    computed = (keys[todo], first[todo], result)
    empty = value_ids.get("", -1)
    for lo in range(0, len(new), _PAIR_CHUNK):
        chunk = new[lo : lo + _PAIR_CHUNK]
        left, right = np.divmod(keys[chunk], n_values)
        _write_rows(result, first[chunk], functions, table, left, right)
        # a pair of two missing values is maximally distant
        missing = first[chunk[(left == empty) & (right == empty)]]
        result[:, missing] = 1.0
    if len(keys) < n:
        # the other positions of a new pair read its first
        repeat = np.flatnonzero(todo[inverse] & (first[inverse] != np.arange(n)))
        _copy_columns(result, repeat, result, first[inverse[repeat]])
    result.flags.writeable = False
    if len(new):
        table._held.setdefault(signature, []).append(computed)
    return result

"""Distance kinds, all normalized to [0, 1].

Character-based kinds (ED, JW) compare preprocessed strings directly;
set-based kinds (JD, CD, DD, ID, MD) compare weighted token multisets; the
containment hybrids (CJD, CCD, CDD) fall back to the matching standard kind
when the right bag is a sub-multiset of the left bag and return 1 otherwise.
Callers can register extra distance functions on raw strings under the
PLUGIN kind.

`distance_matrix` is the batch path used by the solver.  It interns each
distinct raw value, preprocesses it once per option into one table of
distinct preprocessed strings, and computes every (preprocess, tokenizer,
weights) combination once per distinct pair, shared across all distance
kinds that use it.  The character kinds share one cache across preprocess
options, so a preprocessed pair that several options produce is computed
once, and run as batch kernels over all pairs at once: Myers's bit-parallel
edit distance (Hyyrö's Levenshtein formulation) and a bit-parallel
Jaro-Winkler, one 64-bit word per string.  Pairs with a string longer than
64 characters fall back to the scalar `char_distance`, which also serves as
the kernels' test oracle.  The set kinds run batched over per-string
tokenizations: each distinct preprocessed string is tokenized once per
tokenizer into token ids and counts, a pair's intersection is found by a
sorted-key lookup, and numpy sums each pair's terms in the order of a loop
over its token bags, so the results equal the scalar `set_distance` /
`contain_distance` bit for bit.  Count statistics are shared across
preprocess options like the character cache; only the IDF weights differ.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Mapping, Sequence

import numpy as np

from .functions import CHAR_DISTANCES, JoinFunction, PLUGIN
from .text import IdfIndex, TokenBag, apply_preprocess, tokenize

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


def _weight_fn(scheme: str, idf: IdfIndex | None) -> Callable[[str], float]:
    if scheme == "EW":
        return lambda t: 1.0
    if scheme == "IDFW":
        if idf is None:
            raise ValueError("IDFW weighting requires a built IdfIndex")
        return idf.weight
    raise ValueError(f"unknown weight scheme {scheme!r}")


def _pair_weights(
    A: Counter, B: Counter, weight: Callable[[str], float]
) -> tuple[float, float, float]:
    """(intersection, weight of A, weight of B); intersection takes min
    multiplicities."""
    inter = 0.0
    for t, mb in B.items():
        ma = A.get(t, 0)
        if ma:
            inter += (ma if ma < mb else mb) * weight(t)
    w_a = sum(m * weight(t) for t, m in A.items())
    w_b = sum(m * weight(t) for t, m in B.items())
    return inter, w_a, w_b


def _set_distance_from_weights(inter: float, w_a: float, w_b: float, kind: str) -> float:
    if w_a <= 0.0 or w_b <= 0.0:
        return 0.0 if (w_a <= 0.0 and w_b <= 0.0) else 1.0
    if kind == "JD":
        d = 1.0 - inter / (w_a + w_b - inter)
    elif kind == "CD":
        d = 1.0 - inter / math.sqrt(w_a * w_b)
    elif kind == "DD":
        d = 1.0 - 2.0 * inter / (w_a + w_b)
    elif kind == "ID":
        d = 1.0 - inter / min(w_a, w_b)
    elif kind == "MD":
        d = 1.0 - inter / max(w_a, w_b)
    else:
        raise ValueError(f"unknown set distance {kind!r}")
    return min(1.0, max(0.0, d))


def set_distance(
    A: TokenBag,
    B: TokenBag,
    kind: str,
    weights: str = "EW",
    idf: IdfIndex | None = None,
) -> float:
    """Weighted multiset distance between two token bags.

    Both bags empty (zero total weight) gives 0; exactly one empty gives 1.
    """
    inter, w_a, w_b = _pair_weights(A.tokens, B.tokens, _weight_fn(weights, idf))
    return _set_distance_from_weights(inter, w_a, w_b, kind)


_CONTAIN_BASE = {"CJD": "JD", "CCD": "CD", "CDD": "DD"}


def multiset_contains(A: Counter, B: Counter) -> bool:
    """True when B is a sub-multiset of A."""
    return all(A.get(t, 0) >= m for t, m in B.items())


def contain_distance(
    A: TokenBag,
    B: TokenBag,
    kind: str,
    weights: str = "EW",
    idf: IdfIndex | None = None,
) -> float:
    """Containment hybrid: the standard distance when B is contained in A
    (unweighted multiset inclusion), otherwise exactly 1.

    A is the reference-side bag, B the query-side bag.
    """
    base = _CONTAIN_BASE.get(kind)
    if base is None:
        raise ValueError(f"unknown containment distance {kind!r}")
    if not multiset_contains(A.tokens, B.tokens):
        return 1.0
    return set_distance(A, B, base, weights, idf)


# --- plugin registry --------------------------------------------------------

_plugins: dict[str, Callable[[str, str], float]] = {}


def register_plugin(name: str, fn: Callable[[str, str], float]) -> None:
    """Register a caller-supplied distance on raw strings under a name."""
    _plugins[name] = fn


def get_plugin(name: str) -> Callable[[str, str], float]:
    try:
        return _plugins[name]
    except KeyError:
        raise ValueError(f"no distance plugin registered under {name!r}") from None


# --- full evaluation --------------------------------------------------------


def evaluate(
    f: JoinFunction,
    l_value: str,
    r_value: str,
    idf: IdfIndex | None = None,
) -> float:
    """Distance between two raw cell values under one join function.

    Composes preprocess, tokenize, weight, and distance.  Two missing
    values (both raw cells empty) are maximally distant by definition.
    """
    if l_value == "" and r_value == "":
        return 1.0
    if f.distance == PLUGIN:
        return get_plugin(f.plugin)(l_value, r_value)
    a = apply_preprocess(l_value, f.preprocess)
    b = apply_preprocess(r_value, f.preprocess)
    if f.distance in CHAR_DISTANCES:
        return char_distance(a, b, f.distance)
    bag_a = tokenize(a, f.tokenizer)
    bag_b = tokenize(b, f.tokenizer)
    if f.distance in _CONTAIN_BASE:
        return contain_distance(bag_a, bag_b, f.distance, f.weights, idf)
    return set_distance(bag_a, bag_b, f.distance, f.weights, idf)


# --- batch evaluation over pair lists ---------------------------------------

# Incremented once per distance_matrix call; lets tests assert that the
# greedy search phase triggers no pair-distance recomputation.
_matrix_calls = 0


def matrix_call_count() -> int:
    return _matrix_calls


# Strings up to one machine word long run through the bit-parallel kernels;
# bit k of a mask stands for character k of a string.
_WORD = 64
# pairs per kernel call, which bounds the (pairs x 64) temporaries
_CHUNK = 4096
# _LOW[k] has bits 0..k-1 set
_LOW = np.array([(1 << k) - 1 for k in range(_WORD + 1)], dtype=np.uint64)
# padding codes for the two sides of a pair: never a code point, never equal
_PAD_X, _PAD_Y = 0xFFFFFFFF, 0xFFFFFFFE


def _codes(strings: Sequence[str], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """(n x 64) code-point matrix padded with ``pad``, and the lengths."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    flat = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    )
    out = np.full((len(strings), _WORD), pad, dtype=np.uint32)
    rows = np.repeat(np.arange(len(strings)), lengths)
    starts = np.cumsum(lengths) - lengths
    out[rows, np.arange(len(flat)) - starts[rows]] = flat
    return out, lengths


def _match_masks(pattern: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """Per row, the bit mask of the pattern positions equal to that row's
    character."""
    hits = pattern == chars[:, None]
    return np.packbits(hits, axis=1, bitorder="little").view("<u8").ravel()


def _steps(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row order by length, longest first, and for each step j the
    number of rows longer than j: in that order, the rows a loop over
    character positions still runs at step j are a prefix."""
    order = np.argsort(-lengths, kind="stable")
    active = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))
    return order, active


def _levenshtein_batch(pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Edit distances of pairs of strings of at most 64 characters: Myers's
    bit-parallel algorithm in Hyyrö's formulation for Levenshtein distance,
    one uint64 word per pair, all pairs advancing one text character per
    step.  The pattern is the longer string, the text the shorter one."""
    longer = [a if len(a) >= len(b) else b for a, b in pairs]
    shorter = [b if len(a) >= len(b) else a for a, b in pairs]
    p, lp = _codes(longer, _PAD_X)
    t, lt = _codes(shorter, _PAD_Y)
    order, active = _steps(lt)
    p, t, lp = p[order], t[order], lp[order]
    top = _LOW[lp] & ~_LOW[lp - 1]  # bit lp-1, the last pattern character
    pv = np.full(len(pairs), ~np.uint64(0))
    mv = np.zeros(len(pairs), dtype=np.uint64)
    score = lp.copy()
    for j, k in enumerate(active):
        eq = _match_masks(p[:k], t[:k, j])
        vp, vm = pv[:k], mv[:k]
        xv = eq | vm
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vm | ~(xh | vp)
        mh = vp & xh
        score[:k] += (ph & top[:k]) != 0
        score[:k] -= (mh & top[:k]) != 0
        ph = (ph << 1) | 1
        mh = mh << 1
        pv[:k] = mh | ~(xv | ph)
        mv[:k] = ph & xv
    out = np.empty(len(pairs), dtype=np.int64)
    out[order] = score
    return out


def _jaro_winkler_batch(pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """``jaro_winkler_similarity`` of pairs of strings of at most 64
    characters, bit for bit.  Each character of the first string takes the
    lowest unmatched matching position of the second within the window;
    transpositions compare the matched characters of both in order."""
    n = len(pairs)
    a, la = _codes([x for x, _ in pairs], _PAD_X)
    b, lb = _codes([y for _, y in pairs], _PAD_Y)
    order, active = _steps(la)
    a, la, b, lb = a[order], la[order], b[order], lb[order]
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    taken_b = np.zeros(n, dtype=np.uint64)
    taken_a = np.zeros((n, _WORD), dtype=bool)
    for i, k in enumerate(active):
        lo = np.maximum(i - window[:k], 0)
        hi = np.minimum(i + window[:k] + 1, lb[:k])
        free = _LOW[hi] & ~_LOW[lo] & ~taken_b[:k]
        cand = _match_masks(b[:k], a[:k, i]) & free
        taken_b[:k] |= cand & (~cand + np.uint64(1))
        taken_a[:k, i] = cand != 0
    m = taken_a.sum(axis=1)
    bits_b = np.unpackbits(
        taken_b.astype("<u8").view(np.uint8).reshape(n, 8), axis=1, bitorder="little"
    ).astype(bool)
    differ = a[taken_a] != b[bits_b]
    t = np.bincount(np.repeat(np.arange(n), m)[differ], minlength=n) // 2
    prefix = np.cumprod(a[:, :4] == b[:, :4], axis=1).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (m / la + m / lb + (m - t) / m) / 3.0
    sim = np.where(jaro > 0.7, jaro + prefix * 0.1 * (1.0 - jaro), jaro)
    # no match gives 0, except between two empty strings, which are equal;
    # equal non-empty strings give exactly 1 above
    sim = np.where(m > 0, sim, np.where(la + lb == 0, 1.0, 0.0))
    out = np.empty(n)
    out[order] = sim
    return out


def _char_distances(pairs: Sequence[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """ED and JW distances of preprocessed pairs, equal to ``char_distance``:
    batch kernels, in chunks, for pairs of strings up to 64 characters, the
    scalar code for the rest."""
    ed = np.empty(len(pairs))
    jw = np.empty(len(pairs))
    fits = np.array([len(a) <= _WORD and len(b) <= _WORD for a, b in pairs], dtype=bool)
    short = np.flatnonzero(fits)
    for start in range(0, len(short), _CHUNK):
        rows = short[start : start + _CHUNK]
        chunk = [pairs[i] for i in rows]
        longest = np.array([max(len(a), len(b)) for a, b in chunk], dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            ed[rows] = np.where(longest == 0, 0.0, _levenshtein_batch(chunk) / longest)
        jw[rows] = 1.0 - _jaro_winkler_batch(chunk)
    for i in np.flatnonzero(~fits):
        ed[i] = char_distance(*pairs[i], "ED")
        jw[i] = char_distance(*pairs[i], "JW")
    return ed, jw


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
    strings: Sequence[str],
    pairs_by_option: Mapping[str, tuple[np.ndarray, np.ndarray]],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """ED and JW rows per preprocess option.  The options share one cache:
    each distinct preprocessed pair is computed once, whichever options
    produce it."""
    a, b, gather = _distinct_pairs(pairs_by_option, len(strings))
    ed, jw = _char_distances([(strings[x], strings[y]) for x, y in zip(a.tolist(), b.tolist())])
    return {option: (ed[g], jw[g]) for option, g in gather.items()}


# B-side token entries per set-kernel step, which bounds the per-entry
# temporaries
_SET_ENTRIES = 1 << 14


def _tokenized(
    strings: Sequence[str], used: np.ndarray, tokenizer: str
) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """Each used string tokenized once: the token vocabulary, and a CSR over
    all string ids (unused strings have no entries) of token ids and counts
    in ``Counter`` order."""
    vocab: dict[str, int] = {}
    sizes = np.zeros(len(strings), dtype=np.int64)
    tokens: list[int] = []
    counts: list[int] = []
    lengths: list[int] = []
    for s in used.tolist():
        bag = tokenize(strings[s], tokenizer).tokens
        lengths.append(len(bag))
        tokens.extend([vocab.setdefault(t, len(vocab)) for t in bag])
        counts.extend(bag.values())
    sizes[used] = lengths
    return vocab, sizes, np.array(tokens, dtype=np.int32), np.array(counts, dtype=np.int32)


def _set_stats(
    strings: Sequence[str],
    pairs_by_option: Mapping[str, tuple[np.ndarray, np.ndarray]],
    tokenizer: str,
    idf_by_option: Mapping[str, IdfIndex],
) -> dict[str, dict[str, np.ndarray]]:
    """Per preprocess option, the per-pair intersection and size statistics
    of one tokenizer under both weight schemes (the IDF ones zero for an
    option without an IdfIndex), and whether the right bag is a
    sub-multiset of the left one.

    Each distinct string is tokenized once, and the count statistics of a
    distinct string pair are computed once, whichever options produce it;
    only the IDF weights differ between options.  A pair's intersection
    comes from its B-side entries, each looked up among the A string's
    entries; ``np.bincount`` then adds each pair's terms in B's token order
    starting from 0.0, the order of a loop over the bags, and a token
    missing from A adds ``0 * w``, which changes no sum.
    """
    a, b, gather = _distinct_pairs(pairs_by_option, len(strings))
    n_strings = len(strings)
    used = np.zeros(n_strings, dtype=bool)
    used[a] = used[b] = True
    vocab, sizes, tokens, counts = _tokenized(strings, np.flatnonzero(used), tokenizer)
    n_vocab = len(vocab)
    # per entry, its string; per string, its first entry, total count and,
    # per option, total IDF weight (summed in token order)
    owner = np.repeat(np.arange(n_strings), sizes)
    starts = np.cumsum(sizes) - sizes
    size = np.bincount(owner, weights=counts, minlength=n_strings)
    token_w = {
        option: np.array([idf.weight(t) for t in vocab], dtype=np.float64)
        for option, idf in idf_by_option.items()
    }
    weight = {
        option: np.bincount(owner, weights=counts * w[tokens], minlength=n_strings)
        for option, w in token_w.items()
    }
    # the A side: (string, token) keys sorted, then a sentinel no query hits
    keys = owner * n_vocab + tokens
    order = np.argsort(keys)
    keys = np.append(keys[order], np.iinfo(np.int64).max)
    key_counts = np.append(counts[order], 0)
    del owner, order

    n = len(a)
    cnt_i = np.empty(n)
    contained = np.empty(n, dtype=bool)
    idf_i = {option: np.empty(n) for option in token_w}
    ends = np.cumsum(sizes[b])
    # steps of whole pairs; step k ends with the last pair that ends within
    # the first (k + 1) * _SET_ENTRIES entries, so it holds at most
    # _SET_ENTRIES entries plus those of its first pair (a repeated cut makes
    # an empty step)
    cuts = np.searchsorted(ends, np.arange(_SET_ENTRIES, ends[-1], _SET_ENTRIES), side="right")
    bounds = np.concatenate([[0], cuts, [n]])
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        lengths = sizes[b[lo:hi]]
        pair = np.repeat(np.arange(hi - lo, dtype=np.int32), lengths)
        first = np.cumsum(lengths) - lengths
        entry = np.arange(len(pair)) + np.repeat(starts[b[lo:hi]] - first, lengths)
        tok = tokens[entry]
        mb = counts[entry]
        query = a[lo:hi][pair] * n_vocab + tok
        pos = np.searchsorted(keys, query)
        ma = np.where(keys[pos] == query, key_counts[pos], 0)
        m = np.minimum(ma, mb)
        cnt_i[lo:hi] = np.bincount(pair, weights=m, minlength=hi - lo)
        contained[lo:hi] = np.bincount(pair[mb > ma], minlength=hi - lo) == 0
        for option, w in token_w.items():
            idf_i[option][lo:hi] = np.bincount(pair, weights=m * w[tok], minlength=hi - lo)

    out = {}
    for option, (pa, pb) in pairs_by_option.items():
        g = gather[option]
        out[option] = {"cnt_i": cnt_i[g], "cnt_a": size[pa], "cnt_b": size[pb]}
        if option in token_w:
            out[option] |= {
                "idf_i": idf_i[option][g], "idf_a": weight[option][pa], "idf_b": weight[option][pb]
            }
        else:
            out[option] |= {name: np.zeros(len(g)) for name in ("idf_i", "idf_a", "idf_b")}
        out[option]["contained"] = contained[g]
    return out


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


def distance_matrix(
    functions: Sequence[JoinFunction],
    pairs: Sequence[tuple[str, str]],
    idf_by_pt: Mapping[tuple[str, str], IdfIndex] | None = None,
    threads: int = 1,  # ignored; kept only for perfbench's tracer, which passes it
) -> np.ndarray:
    """Distances for every join function over a list of (left, right) raw
    value pairs; returns an array of shape (len(functions), len(pairs)).

    ``idf_by_pt`` maps (preprocess, tokenizer) to the IdfIndex for that
    combination; required whenever an IDFW function is present.
    """
    global _matrix_calls
    _matrix_calls += 1
    idf_by_pt = idf_by_pt or {}
    for f in functions:
        if (
            f.is_set_based
            and f.weights == "IDFW"
            and (f.preprocess, f.tokenizer) not in idf_by_pt
        ):
            raise ValueError(
                f"no IdfIndex supplied for {(f.preprocess, f.tokenizer)}"
            )

    n = len(pairs)
    result = np.empty((len(functions), n))
    if n == 0:
        return result

    # intern each distinct raw value; compute once per distinct raw pair,
    # then scatter
    value_ids: dict[str, int] = {}
    ids = np.fromiter(
        (value_ids.setdefault(v, len(value_ids)) for pair in pairs for v in pair),
        dtype=np.int64,
        count=2 * n,
    )
    n_values = len(value_ids)
    distinct, inverse = np.unique(ids[0::2] * n_values + ids[1::2], return_inverse=True)
    left, right = np.divmod(distinct, n_values)
    values = list(value_ids)
    empty = value_ids.get("", -1)
    missing = (left == empty) & (right == empty)

    # each distinct value preprocessed once per option, into one table of
    # the distinct preprocessed strings of all options
    string_ids: dict[str, int] = {}
    pre_pairs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for option in dict.fromkeys(f.preprocess for f in functions if f.distance != PLUGIN):
        of_value = np.array(
            [string_ids.setdefault(apply_preprocess(v, option), len(string_ids)) for v in values],
            dtype=np.int64,
        )
        pre_pairs[option] = (of_value[left], of_value[right])
    strings = list(string_ids)

    char_pairs = {
        f.preprocess: pre_pairs[f.preprocess] for f in functions if f.distance in CHAR_DISTANCES
    }
    char_rows = _char_rows(strings, char_pairs) if char_pairs else {}
    set_fns = [f for f in functions if f.is_set_based]
    set_stats: dict[str, dict[str, dict[str, np.ndarray]]] = {}
    for tokenizer in dict.fromkeys(f.tokenizer for f in set_fns):
        fns = [f for f in set_fns if f.tokenizer == tokenizer]
        set_stats[tokenizer] = _set_stats(
            strings,
            {f.preprocess: pre_pairs[f.preprocess] for f in fns},
            tokenizer,
            {
                f.preprocess: idf_by_pt[(f.preprocess, tokenizer)]
                for f in fns
                if f.weights == "IDFW"
            },
        )
    # rows memo by (option, tokenizer, weights), filled on first use
    set_rows: dict[tuple[str, str, str], dict[str, np.ndarray]] = {}
    for fi, f in enumerate(functions):
        if f.distance == PLUGIN:
            fn = get_plugin(f.plugin)
            row = np.array([fn(values[a], values[b]) for a, b in zip(left, right)], dtype=float)
            if not np.all((row >= 0.0) & (row <= 1.0)):
                raise ValueError(
                    f"distance plugin {f.plugin!r} returned a value that is NaN "
                    "or outside [0, 1]"
                )
        else:
            option = f.preprocess
            if f.distance in CHAR_DISTANCES:
                ed, jw = char_rows[option]
                row = ed if f.distance == "ED" else jw
            else:
                key = (option, f.tokenizer, f.weights)
                if key not in set_rows:
                    stats = set_stats[f.tokenizer][option]
                    if f.weights == "EW":
                        inter, w_a, w_b = stats["cnt_i"], stats["cnt_a"], stats["cnt_b"]
                    else:
                        inter, w_a, w_b = stats["idf_i"], stats["idf_a"], stats["idf_b"]
                    set_rows[key] = _set_rows(inter, w_a, w_b, stats["contained"])
                row = set_rows[key][f.distance]
        row = np.where(missing, 1.0, row)
        result[fi] = row[inverse]
    return result

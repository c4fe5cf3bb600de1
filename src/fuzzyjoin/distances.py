"""Distance kinds, all normalized to [0, 1].

Character-based kinds (ED, JW) compare preprocessed strings directly;
set-based kinds (JD, CD, DD, ID, MD) compare weighted token multisets; the
containment hybrids (CJD, CCD, CDD) fall back to the matching standard kind
when the right bag is a sub-multiset of the left bag and return 1 otherwise.
Callers can register extra distance functions on raw strings under the
PLUGIN kind.

`distance_matrix` is the batch path used by the solver: every
(preprocess, tokenizer, weights) combination is computed once per record
pair and shared across all distance kinds that use it.
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


def _char_unit(pre_pairs: list[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    cache: dict[tuple[str, str], tuple[float, float]] = {}
    ed = np.empty(len(pre_pairs))
    jw = np.empty(len(pre_pairs))
    for i, key in enumerate(pre_pairs):
        hit = cache.get(key)
        if hit is None:
            hit = (char_distance(*key, "ED"), char_distance(*key, "JW"))
            cache[key] = hit
        ed[i], jw[i] = hit
    return ed, jw


def _set_unit(
    pre_pairs: list[tuple[str, str]],
    tokenizer: str,
    idf: IdfIndex | None,
) -> dict[str, np.ndarray]:
    """Per-pair intersection/size statistics for one (preprocess, tokenizer)
    combination, under both weight schemes at once."""
    n = len(pre_pairs)
    out = {
        name: np.zeros(n)
        for name in ("cnt_i", "cnt_a", "cnt_b", "idf_i", "idf_a", "idf_b")
    }
    contained = np.zeros(n, dtype=bool)
    bags: dict[str, tuple[Counter, float, float]] = {}

    def bag(s: str) -> tuple[Counter, float, float]:
        # (tokens, count, IDF weight), once per distinct string
        hit = bags.get(s)
        if hit is None:
            tokens = tokenize(s, tokenizer).tokens
            idf_w = (
                sum(m * idf.weight(t) for t, m in tokens.items()) if idf else 0.0
            )
            hit = (tokens, float(sum(tokens.values())), idf_w)
            bags[s] = hit
        return hit

    for i, (a, b) in enumerate(pre_pairs):
        A, out["cnt_a"][i], out["idf_a"][i] = bag(a)
        B, out["cnt_b"][i], out["idf_b"][i] = bag(b)
        cnt_i = 0
        idf_i = 0.0
        is_contained = True
        for t, mb in B.items():
            ma = A.get(t, 0)
            if mb > ma:
                is_contained = False
            m = ma if ma < mb else mb
            if m:
                cnt_i += m
                if idf:
                    idf_i += m * idf.weight(t)
        out["cnt_i"][i] = cnt_i
        out["idf_i"][i] = idf_i
        contained[i] = is_contained
    out["contained"] = contained
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

    # compute once per distinct raw pair, then scatter
    unique_index: dict[tuple[str, str], int] = {}
    inverse = np.empty(n, dtype=np.intp)
    for i, pair in enumerate(pairs):
        idx = unique_index.setdefault(pair, len(unique_index))
        inverse[i] = idx
    unique_pairs = list(unique_index)
    missing = np.array([a == "" and b == "" for a, b in unique_pairs])

    # memos by preprocess option, (option, tokenizer) and
    # (option, tokenizer, weights), filled on first use
    pre_pairs: dict[str, list[tuple[str, str]]] = {}
    char_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    set_stats: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    set_rows: dict[tuple[str, str, str], dict[str, np.ndarray]] = {}
    for fi, f in enumerate(functions):
        if f.distance == PLUGIN:
            fn = get_plugin(f.plugin)
            row = np.array([fn(a, b) for a, b in unique_pairs], dtype=float)
            if not np.all((row >= 0.0) & (row <= 1.0)):
                raise ValueError(
                    f"distance plugin {f.plugin!r} returned a value that is NaN "
                    "or outside [0, 1]"
                )
        else:
            option = f.preprocess
            if option not in pre_pairs:
                pre_pairs[option] = [
                    (apply_preprocess(a, option), apply_preprocess(b, option))
                    for a, b in unique_pairs
                ]
            if f.distance in CHAR_DISTANCES:
                if option not in char_rows:
                    char_rows[option] = _char_unit(pre_pairs[option])
                ed, jw = char_rows[option]
                row = ed if f.distance == "ED" else jw
            else:
                pt = (option, f.tokenizer)
                if pt not in set_stats:
                    set_stats[pt] = _set_unit(
                        pre_pairs[option], f.tokenizer, idf_by_pt.get(pt)
                    )
                key = (option, f.tokenizer, f.weights)
                if key not in set_rows:
                    stats = set_stats[pt]
                    if f.weights == "EW":
                        inter, w_a, w_b = stats["cnt_i"], stats["cnt_a"], stats["cnt_b"]
                    else:
                        inter, w_a, w_b = stats["idf_i"], stats["idf_a"], stats["idf_b"]
                    set_rows[key] = _set_rows(inter, w_a, w_b, stats["contained"])
                row = set_rows[key][f.distance]
        row = np.where(missing, 1.0, row)
        result[fi] = row[inverse]
    return result

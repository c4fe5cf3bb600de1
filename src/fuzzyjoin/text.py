"""String preprocessing, tokenization, and token weighting.

These are the P, T, and W axes of a join function.  All operations are pure.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from functools import lru_cache
from typing import Sequence

import numpy as np

from .stem import stem


@lru_cache(maxsize=65536)
def _preprocess_cached(s: str, option: str) -> str:
    out = s.lower()
    if "RP" in option.split("+"):
        # drop every character in a Unicode punctuation category (P*)
        out = "".join(c for c in out if not unicodedata.category(c).startswith("P"))
    if "S" in option.split("+"):
        out = " ".join(stem(w) for w in out.split())
    return out


def apply_preprocess(s: str, option: str) -> str:
    """Apply a preprocessing option: L (lowercase), optional RP (strip all
    Unicode punctuation), optional S (stem each whitespace word).

    Steps compose in the order L, then RP, then S.
    """
    if option not in ("L", "L+S", "L+RP", "L+S+RP"):
        raise ValueError(f"unknown preprocess option {option!r}")
    return _preprocess_cached(s, option)


def tokenize(s: str, scheme: str) -> Counter:
    """Tokenize a preprocessed string into a multiset of tokens.

    SP splits on whitespace runs; 3G emits all character trigrams after
    collapsing whitespace runs to single spaces (a collapsed string shorter
    than 3 yields itself as a single token).  The empty string yields an
    empty bag under both schemes.
    """
    if scheme == "SP":
        return Counter(s.split())
    if scheme == "3G":
        collapsed = " ".join(s.split())
        if not collapsed:
            return Counter()
        if len(collapsed) < 3:
            return Counter([collapsed])
        return Counter(collapsed[i : i + 3] for i in range(len(collapsed) - 2))
    raise ValueError(f"unknown tokenizer {scheme!r}")


def tokenize_strings(
    strings: Sequence[str], tokenizer: str
) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """Each string tokenized once: the token vocabulary, and a CSR over the
    strings of token ids and counts in ``Counter`` order.  The set kernel
    reads its tokens and, with ``idf_weights``, its IDF weights from one
    such pass per tokenizer over the strings of a column's
    ``distances.ColumnStrings``; ``blocking.build_index`` reads its trigrams
    from another."""
    vocab: dict[str, int] = {}
    tokens: list[int] = []
    counts: list[int] = []
    lengths: list[int] = []
    for s in strings:
        bag = tokenize(s, tokenizer)
        lengths.append(len(bag))
        tokens.extend([vocab.setdefault(t, len(vocab)) for t in bag])
        counts.extend(bag.values())
    sizes = np.array(lengths, dtype=np.int64)
    return vocab, sizes, np.array(tokens, dtype=np.int32), np.array(counts, dtype=np.int32)


def idf_weights(
    sizes: np.ndarray, tokens: np.ndarray, n_vocab: int, copies: np.ndarray, n_docs: int
) -> np.ndarray:
    """The IDF weight ``log(n_docs / df)`` of each vocab id of a
    ``tokenize_strings`` CSR, where string s stands for ``copies[s]``
    documents and a token's df is the number of documents holding it.  A
    token no document holds weighs as if one did."""
    doc_freq = np.bincount(tokens, weights=np.repeat(copies, sizes), minlength=n_vocab)
    return np.array([math.log(n_docs / (df or 1)) for df in doc_freq.tolist()])

"""String preprocessing, tokenization, and token weighting.

These are the P, T, and W axes of a join function.  All operations are pure
and an IdfIndex is read-only after construction.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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


@dataclass(frozen=True)
class TokenBag:
    """A multiset of tokens."""

    tokens: Counter

    def __len__(self) -> int:
        return sum(self.tokens.values())

    def is_empty(self) -> bool:
        return not self.tokens


def tokenize(s: str, scheme: str) -> TokenBag:
    """Tokenize a preprocessed string.

    SP splits on whitespace runs; 3G emits all character trigrams after
    collapsing whitespace runs to single spaces (a collapsed string shorter
    than 3 yields itself as a single token).  The empty string yields an
    empty bag under both schemes.
    """
    if scheme == "SP":
        return TokenBag(Counter(s.split()))
    if scheme == "3G":
        collapsed = " ".join(s.split())
        if not collapsed:
            return TokenBag(Counter())
        if len(collapsed) < 3:
            return TokenBag(Counter([collapsed]))
        return TokenBag(
            Counter(collapsed[i : i + 3] for i in range(len(collapsed) - 2))
        )
    raise ValueError(f"unknown tokenizer {scheme!r}")


@dataclass(frozen=True)
class IdfIndex:
    """Document frequencies over a record corpus.

    ``doc_freq[t]`` is the number of records (rows, over both input tables)
    containing token t at least once; ``corpus_size`` is the total row
    count.  Unseen tokens are smoothed to document frequency 1.
    """

    doc_freq: dict[str, int]
    corpus_size: int

    def weight(self, token: str) -> float:
        df = self.doc_freq.get(token, 1)
        return math.log(self.corpus_size / df)


def build_idf_from_values(
    values: Iterable[str], preprocess: str, tokenizer: str
) -> IdfIndex:
    """IDF statistics from raw cell values, one document per value.  Each
    distinct value is tokenized once and counts as often as it occurs."""
    copies = Counter(values)
    doc_freq: Counter = Counter()
    for v, k in copies.items():
        for t in tokenize(apply_preprocess(v, preprocess), tokenizer).tokens:
            doc_freq[t] += k
    return IdfIndex(dict(doc_freq), copies.total())

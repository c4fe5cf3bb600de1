"""Negative rules: word swaps that forbid a join.

Two reference records that differ by exactly one word on each side (say
"... baseball team" vs "... football team") are distinct entities by the
reference-table assumption, so the word pair they differ by marks a
distinction that matters.  Candidate cross-table pairs differing by exactly
such a learned word pair are discarded before any distance is computed.

``word_delta``, ``learn_rules`` and ``pair_blocked`` define the rules over
preprocessed strings; they are the test oracle.  The solver runs them over
token ids instead (``word_delta_codes``, ``learn_rule_codes``,
``pairs_blocked``): the words of a rule-preprocessed string are its SP
tokens in the column's string table (``distances.ColumnStrings``), which
splits on whitespace as ``word_delta`` does, and an unordered word pair is
one integer code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .text import apply_preprocess

RULE_PREPROCESS = "L+S+RP"


@dataclass(frozen=True, order=True)
class NegativeRule:
    """An unordered pair of distinguishing words, stored sorted."""

    word_a: str
    word_b: str

    @classmethod
    def of(cls, w1: str, w2: str) -> "NegativeRule":
        return cls(w1, w2) if w1 <= w2 else cls(w2, w1)


def preprocess_for_rules(value: str) -> str:
    """Lowercase, stem, and strip punctuation; the fixed normalization used
    on both the learning and the filtering side."""
    return apply_preprocess(value, RULE_PREPROCESS)


def word_delta(a: str, b: str) -> tuple[str, str] | None:
    """The single-word difference of two preprocessed values, if both sides
    differ by exactly one word; None otherwise."""
    w1 = set(a.split())
    w2 = set(b.split())
    d12 = w1 - w2
    d21 = w2 - w1
    if len(d12) == 1 and len(d21) == 1:
        return next(iter(d12)), next(iter(d21))
    return None


def learn_rules(pairs: Iterable[tuple[str, str]]) -> set[NegativeRule]:
    """Learn rules from preprocessed self-join pair values."""
    rules: set[NegativeRule] = set()
    for a, b in pairs:
        delta = word_delta(a, b)
        if delta is not None and delta[0] != delta[1]:
            rules.add(NegativeRule.of(*delta))
    return rules


def pair_blocked(a: str, b: str, rules: set[NegativeRule]) -> bool:
    """True when a preprocessed pair differs exactly by a learned rule."""
    if not rules:
        return False
    delta = word_delta(a, b)
    return delta is not None and NegativeRule.of(*delta) in rules


def word_delta_codes(words, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``word_delta`` of the string pairs (a[i], b[i]) of an SP tokenization
    ``words`` (a ``distances._Tokens``, whose entries per string are its
    distinct words): per pair, with x and y the ids of the one word each side
    holds and the other lacks, the code ``min(x, y) * n_vocab + max(x, y)``;
    -1 where ``word_delta`` is None.

    Each side lacks exactly one word of the other only when both hold equally
    many words, all but one of them shared.  So only such pairs are read:
    each A word is looked up among B's in the sorted (string, word) keys,
    and each side's missing word is the sum of its word ids less the shared
    ones'.
    """
    out = np.full(len(a), -1, dtype=np.int64)
    sizes, n_vocab = words.sizes, words.n_vocab
    cand = np.flatnonzero((sizes[a] == sizes[b]) & (sizes[a] > 0))
    if len(cand) == 0:
        return out
    a, b = a[cand], b[cand]
    keys = np.sort(np.repeat(np.arange(len(sizes)) * n_vocab, sizes) + words.tokens)
    running = np.concatenate([[0], np.cumsum(words.tokens, dtype=np.int64)])
    id_sum = running[words.starts + sizes] - running[words.starts]
    lengths = sizes[a]
    t = words.tokens[words.entries(a)].astype(np.int64)
    query = np.repeat(b * n_vocab, lengths) + t
    shared = keys[np.minimum(np.searchsorted(keys, query), len(keys) - 1)] == query
    starts = np.cumsum(lengths) - lengths
    one = np.add.reduceat(shared.astype(np.int64), starts) == lengths - 1
    shared_sum = np.add.reduceat(t * shared, starts)
    x, y = id_sum[a] - shared_sum, id_sum[b] - shared_sum
    out[cand[one]] = (np.minimum(x, y) * n_vocab + np.maximum(x, y))[one]
    return out


def learn_rule_codes(words, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``learn_rules`` over the self-join string pairs (a[i], b[i]) of
    ``words``: the sorted distinct codes of its rules (``word_delta_codes``).
    Two different words always differ, so every code is a rule."""
    codes = np.sort(word_delta_codes(words, a, b))
    codes = codes[codes >= 0]
    return codes[np.diff(codes, prepend=-1) != 0]


def pairs_blocked(words, codes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``pair_blocked`` of the string pairs (a[i], b[i]) of ``words`` under
    the rules of ``learn_rule_codes``."""
    if len(codes) == 0:
        return np.zeros(len(a), dtype=bool)
    delta = word_delta_codes(words, a, b)
    return codes[np.minimum(np.searchsorted(codes, delta), len(codes) - 1)] == delta


def rules_of_codes(words, codes: np.ndarray) -> set[NegativeRule]:
    """The rules of ``learn_rule_codes``, as words."""
    x, y = np.divmod(codes, words.n_vocab)
    return {NegativeRule.of(words.vocab[i], words.vocab[j]) for i, j in zip(x.tolist(), y.tolist())}


def dump_rules(rules: set[NegativeRule], path: str | Path) -> None:
    """One rule per line, tab-separated, sorted."""
    lines = [f"{r.word_a}\t{r.word_b}" for r in sorted(rules)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

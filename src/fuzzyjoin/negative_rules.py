"""Negative rules: word swaps that forbid a join.

Two reference records that differ by exactly one word on each side (say
"... baseball team" vs "... football team") are distinct entities by the
reference-table assumption, so the word pair they differ by marks a
distinction that matters.  Candidate cross-table pairs differing by exactly
such a learned word pair are discarded before any distance is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

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


def dump_rules(rules: set[NegativeRule], path: str | Path) -> None:
    """One rule per line, tab-separated, sorted."""
    lines = [f"{r.word_a}\t{r.word_b}" for r in sorted(rules)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

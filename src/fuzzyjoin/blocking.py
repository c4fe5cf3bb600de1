"""Candidate pair generation by weighted token overlap.

Every downstream computation is restricted to the candidate pairs produced
here.  Records are tokenized into character trigrams of their lowercased
values, tokens are IDF-weighted over both tables, and each query record
keeps its top ceil(beta * sqrt(|L|)) reference records by summed weight of
shared tokens.  The same procedure links each reference record to its
nearest other reference records (the self-join side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tables import Table
from .text import apply_preprocess, build_idf_from_values, tokenize


@dataclass
class CandidateIndex:
    """Blocked candidate lists, sorted by descending blocking score.

    ``lr`` maps each right id to its candidate (left id, score) list;
    ``ll`` maps each left id to its candidate list over the other left
    records (self excluded).  Pairs with zero score (no shared token, or
    only universally-shared tokens) are never stored.
    """

    left_ids: list[str]
    right_ids: list[str]
    lr: dict[str, list[tuple[str, float]]]
    ll: dict[str, list[tuple[str, float]]]
    beta: float
    k: int


def _blocking_tokens(value: str) -> list[str]:
    # distinct trigrams of the lowercased value, sorted so that score
    # accumulation order (and hence float sums) is reproducible
    return sorted(tokenize(apply_preprocess(value, "L"), "3G").tokens.keys())


def blocking_cutoff(n_left: int, beta: float) -> int:
    return math.ceil(beta * math.sqrt(n_left))


def build_index(
    L: Table,
    R: Table,
    column: str | Sequence[str],
    beta: float = 1.0,
) -> CandidateIndex:
    """Build blocked L-L and L-R candidate lists for one join column (or a
    sequence of columns, compared on their space-joined concatenation)."""
    if beta <= 0:
        raise ValueError(f"blocking factor must be positive, got {beta}")
    if isinstance(column, str):
        left_values = L.column_values(column)
        right_values = R.column_values(column)
    else:
        left_values = L.joined_values(column)
        right_values = R.joined_values(column)
    left_ids = L.ids()
    right_ids = R.ids()

    idf = build_idf_from_values(left_values + right_values, "L", "3G")
    k = blocking_cutoff(len(left_ids), beta)

    left_tokens = [_blocking_tokens(v) for v in left_values]
    postings: dict[str, list[int]] = {}
    for pos, tokens in enumerate(left_tokens):
        for t in tokens:
            postings.setdefault(t, []).append(pos)
    posting_arrays = {t: np.array(lids, dtype=np.intp) for t, lids in postings.items()}

    n_left = len(left_ids)

    def top_candidates(tokens: list[str], skip: int = -1) -> list[tuple[str, float]]:
        scores = np.zeros(n_left)
        for t in tokens:
            arr = posting_arrays.get(t)
            if arr is not None:
                scores[arr] += idf.weight(t)
        if skip >= 0:
            scores[skip] = 0.0
        hits = np.nonzero(scores > 0.0)[0]
        ranked = sorted(
            ((float(scores[p]), left_ids[p]) for p in hits),
            key=lambda sc: (-sc[0], sc[1]),
        )
        return [(lid, score) for score, lid in ranked[:k]]

    lr = {
        rid: top_candidates(_blocking_tokens(value))
        for rid, value in zip(right_ids, right_values)
    }
    ll = {
        lid: top_candidates(tokens, skip=pos)
        for pos, (lid, tokens) in enumerate(zip(left_ids, left_tokens))
    }
    return CandidateIndex(left_ids, right_ids, lr, ll, beta, k)


"""Candidate pair generation by weighted token overlap.

Every downstream computation is restricted to the candidate pairs produced
here.  Records are tokenized into character trigrams of their lowercased
values, tokens are IDF-weighted over both tables, and each query record
keeps its top ceil(beta * sqrt(|L|)) reference records by summed weight of
shared tokens, ties going to the smaller reference id.  The same procedure
links each reference record to its nearest other reference records (the
self-join side).

Scoring is batched over distinct values: the distinct lowercased strings of
the compared values' ``distances.ColumnStrings`` (a single column's own),
with their trigram ids from its one 3G pass, which the set kernel also
reads, reordered to sorted-token order.  Each distinct value is scored once,
whichever table and however many rows it occurs in, and keeps its top k + 1
reference records; a query row takes its value's first k, and a reference
row the first k after dropping itself.  Values are scored in chunks: the
posting lists of a chunk's tokens are concatenated into (value, reference
row) keys weighted by IDF and summed with ``np.bincount``.  bincount adds in
input order starting from 0.0, so each score is summed in sorted-token
order, the order of a per-row loop over the tokens, and is bit-identical to
it.  Per value, an ``np.partition`` floor drops the hits that cannot make
its top k + 1, and one ``np.lexsort`` per chunk ranks the rest.  Chunks are
cut by their dense score cells plus posting entries, so the temporaries stay
at a few MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distances import ColumnStrings, _ranges
from .tables import Table

# score cells plus posting entries per scoring chunk, which bounds the
# chunk's temporaries
_BLOCK_WORK = 1 << 17


class RankedPairs(NamedTuple):
    """Candidate pairs grouped by ascending query position, each group by
    descending score, then ascending reference id."""

    query: np.ndarray  # (n,) int64 query-record positions
    left: np.ndarray  # (n,) int64 reference-record positions
    score: np.ndarray  # (n,) float64 blocking scores, all > 0


@dataclass
class CandidateIndex:
    """Blocked candidate pairs, ranked within each query record.

    ``lr_pairs`` ranks reference records for each right record;
    ``ll_pairs`` ranks, for each left record, the other left records (self
    excluded).  Both hold record positions, which ``left_ids`` and
    ``right_ids`` map to ids.  Pairs with zero score (no shared token, or
    only universally-shared tokens) are never stored.
    """

    left_ids: list[str]
    right_ids: list[str]
    lr_pairs: RankedPairs
    ll_pairs: RankedPairs
    beta: float
    k: int


def blocking_cutoff(n_left: int, beta: float) -> int:
    return math.ceil(beta * math.sqrt(n_left))


def _group_rank(group: np.ndarray, n_groups: int) -> np.ndarray:
    """Each entry's position within its group; ``group`` is ascending."""
    counts = np.bincount(group, minlength=n_groups)
    return np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)


def _rank_values(
    bounds: np.ndarray,
    tokens: np.ndarray,
    weight: np.ndarray,
    post_start: np.ndarray,
    post_count: np.ndarray,
    post_left: np.ndarray,
    id_rank: np.ndarray,
    top: int,
) -> RankedPairs:
    """Each value's top reference rows by summed weight of shared tokens.

    Value v's tokens are ``tokens[bounds[v]:bounds[v + 1]]``, and token t's
    posting list, the ascending reference rows containing it, is
    ``post_left[post_start[t]:post_start[t] + post_count[t]]``.
    """
    n_left = len(id_rank)
    entries_before = np.concatenate([[0], np.cumsum(post_count[tokens])])
    work = np.cumsum(n_left + np.diff(entries_before[bounds]))
    # chunk c ends with the last value whose work ends within the first
    # (c + 1) * _BLOCK_WORK, so a chunk holds at most _BLOCK_WORK plus its
    # first value's work
    n_values = len(bounds) - 1
    total = int(work[-1]) if n_values else 0
    cuts = np.searchsorted(work, np.arange(_BLOCK_WORK, total, _BLOCK_WORK), side="right")
    cuts = np.concatenate([[0], cuts, [n_values]])
    cuts = cuts[np.diff(cuts, prepend=-1) > 0].tolist()  # no empty chunk
    if n_left == 0:  # no reference row to score
        cuts = []
    # only a score at or above its value's top-th largest can rank
    kth = max(n_left - top, 0)

    query = [np.empty(0, dtype=np.int64)]
    left = [np.empty(0, dtype=np.int64)]
    score = [np.empty(0)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tok = tokens[bounds[lo] : bounds[hi]]
        lengths = post_count[tok]
        owner = np.repeat(np.arange(hi - lo), np.diff(bounds[lo : hi + 1]))
        keys = np.repeat(owner * n_left, lengths) + post_left[_ranges(post_start[tok], lengths)]
        scores = np.bincount(keys, weights=np.repeat(weight[tok], lengths), minlength=(hi - lo) * n_left)
        scores = scores.reshape(hi - lo, n_left)
        floor = np.partition(scores, kth, axis=1)[:, kth, None]
        hit = np.flatnonzero((scores > 0.0) & (scores >= floor))
        q, l = np.divmod(hit, n_left)
        s = scores.ravel()[hit]
        order = np.lexsort((id_rank[l], -s, q))
        q, l, s = q[order], l[order], s[order]
        keep = _group_rank(q, hi - lo) < top
        query.append(q[keep] + lo)
        left.append(l[keep])
        score.append(s[keep])
    return RankedPairs(np.concatenate(query), np.concatenate(left), np.concatenate(score))


def _expand(
    ranked: RankedPairs, n_values: int, codes: np.ndarray, k: int, skip_self: bool
) -> RankedPairs:
    """Row i's candidates: the ranked pairs of its value ``codes[i]``, cut
    to k, after dropping reference row i itself when ``skip_self``."""
    counts = np.bincount(ranked.query, minlength=n_values)
    first = np.cumsum(counts) - counts
    entry = _ranges(first[codes], counts[codes])
    row = np.repeat(np.arange(len(codes)), counts[codes])
    if skip_self:
        other = ranked.left[entry] != row
        entry, row = entry[other], row[other]
    keep = _group_rank(row, len(codes)) < k
    entry = entry[keep]
    return RankedPairs(row[keep], ranked.left[entry], ranked.score[entry])


def build_index(
    L: Table,
    R: Table,
    column: str | Sequence[str],
    beta: float = 1.0,
    table: ColumnStrings | None = None,
) -> CandidateIndex:
    """Build blocked L-L and L-R candidate lists for one join column (or a
    sequence of columns, compared on their space-joined concatenation), read
    from ``table``, their string table with option L, by default their own."""
    if not math.isfinite(beta) or beta <= 0:
        raise ValueError(f"blocking factor must be positive and finite, got {beta}")
    if isinstance(column, str):
        left_values = L.column_values(column)
        right_values = R.column_values(column)
    else:
        left_values = L.joined_values(column)
        right_values = R.joined_values(column)
    if table is None:
        table = ColumnStrings((), left_values + right_values, options=("L",))
    left_ids = L.ids()
    right_ids = R.ids()
    n_left = len(left_ids)
    k = blocking_cutoff(n_left, beta)

    # the distinct lowercased values of both tables, each with its trigram
    # ids from the table's one 3G pass, reordered in sorted-token order
    held, codes = np.unique(table.string_ids(left_values + right_values, "L"), return_inverse=True)
    tok = table.tokens("3G")
    sizes = tok.sizes[held]
    tokens = tok.tokens[tok.entries(held)]
    # packed trigram codes sort as their token strings do
    rank = np.empty(tok.n_vocab, dtype=np.int64)
    rank[np.argsort(tok.vocab)] = np.arange(tok.n_vocab)
    tokens = tokens[np.lexsort((rank[tokens], np.repeat(np.arange(len(held)), sizes)))]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # IDF over the rows of both tables: log(rows / rows holding the token)
    weight = table.idf("3G", "L")[0]

    # posting lists: per token, the ascending left rows holding it
    left_codes = codes[:n_left]
    left_tokens = tokens[_ranges(bounds[left_codes], sizes[left_codes])]
    post_left = np.repeat(np.arange(n_left), sizes[left_codes])[np.argsort(left_tokens, kind="stable")]
    post_count = np.bincount(left_tokens, minlength=tok.n_vocab)
    post_start = np.cumsum(post_count) - post_count
    id_rank = np.empty(n_left, dtype=np.int64)
    id_rank[sorted(range(n_left), key=left_ids.__getitem__)] = np.arange(n_left)

    # k + 1 per value, so that a left row keeps k after dropping itself
    ranked = _rank_values(bounds, tokens, weight, post_start, post_count, post_left, id_rank, k + 1)
    return CandidateIndex(
        left_ids,
        right_ids,
        _expand(ranked, len(held), codes[n_left:], k, skip_self=False),
        _expand(ranked, len(held), left_codes, k, skip_self=True),
        beta,
        k,
    )

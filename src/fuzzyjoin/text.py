"""String preprocessing, tokenization, and token weighting.

These are the P, T, and W axes of a join function.  All operations are pure.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from typing import Sequence

import numpy as np

from .stem import stem


# the ASCII characters in a Unicode punctuation category (P*), as a
# ``str.translate`` table that drops them
_ASCII_PUNCTUATION = {c: None for c in range(128) if unicodedata.category(chr(c)).startswith("P")}


def apply_preprocess(s: str, option: str) -> str:
    """Apply a preprocessing option: L (lowercase), optional RP (strip all
    Unicode punctuation), optional S (stem each whitespace word).

    Steps compose in the order L, then RP, then S.
    """
    if option not in ("L", "L+S", "L+RP", "L+S+RP"):
        raise ValueError(f"unknown preprocess option {option!r}")
    out = s.lower()
    if "RP" in option:
        # drop every character in a Unicode punctuation category (P*)
        if out.isascii():
            out = out.translate(_ASCII_PUNCTUATION)
        else:
            out = "".join(c for c in out if not unicodedata.category(c).startswith("P"))
    if "S" in option:
        out = " ".join(stem(w) for w in out.split())
    return out


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


# bits per character of a packed trigram: a code point (at most 0x10FFFF)
# is stored plus 1, so that 0 stands for no character
_CHAR_BITS = 21


def tokenize_strings(
    strings: Sequence[str], tokenizer: str
) -> tuple[Sequence, np.ndarray, np.ndarray, np.ndarray]:
    """Each string tokenized once: the token vocabulary, numbered by first
    appearance, and a CSR over the strings of token ids and counts in
    ``Counter`` order, as a loop over ``tokenize`` gives them.  The set
    kernel, the negative rules (SP) and blocking (3G) read one such pass per
    tokenizer over the strings of a column's ``distances.ColumnStrings``.

    Both tokenizers code each token occurrence as an int64, in position
    order, and share one CSR construction over the codes.  SP's codes are
    its words interned by first appearance, and its vocabulary is the list
    of words.  3G builds no token string: each string's whitespace runs
    collapsed as ``tokenize`` does, its UTF-32 code points are packed three
    to an int64 trigram code, 21 bits each (a string shorter than 3 leaves
    the missing ones 0), so codes sort as their token strings do, and the
    vocabulary is the array of codes.  One stable sort of the codes groups
    each token's occurrences in position order: the first is the token's
    first appearance, and each string's first occurrence and run length give
    its entry and count, which read back in position order are in
    ``Counter`` order.
    """
    n = len(strings)
    if tokenizer == "SP":
        words = [s.split() for s in strings]
        grams = np.fromiter(map(len, words), dtype=np.int64, count=n)
        interned: dict[str, int] = {}
        ids = [interned.setdefault(w, len(interned)) for ws in words for w in ws]
        codes = np.array(ids, dtype=np.int64)
    elif tokenizer == "3G":
        collapsed = [" ".join(s.split()) for s in strings]
        lengths = np.fromiter(map(len, collapsed), dtype=np.int64, count=n)
        # code points plus 1, and the positions of each trigram's first, as
        # int32 while they fit: the per-trigram int64 arrays are the codes alone
        chars = np.zeros(int(lengths.sum()) + 2, dtype=np.int32)
        chars[:-2] = np.frombuffer("".join(collapsed).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        chars[:-2] += 1
        index = np.int32 if len(chars) < 2**31 else np.int64
        # k >= 3 characters give k - 2 trigrams, and 1 or 2 one token of them all
        grams = np.maximum(lengths - 2, lengths > 0)
        first = np.cumsum(grams) - grams
        start = np.repeat((np.cumsum(lengths) - lengths - first).astype(index), grams)
        start += np.arange(len(start), dtype=index)
        codes = chars[start].astype(np.int64)
        codes <<= 2 * _CHAR_BITS
        part = chars[1:][start].astype(np.int64)
        part <<= _CHAR_BITS
        codes |= part
        codes |= chars[2:][start]
        del chars, start, part
        # a short string's token reads the next string's characters: zero them
        short = np.flatnonzero((lengths > 0) & (lengths < 3))
        codes[first[short]] &= -1 << _CHAR_BITS * (3 - lengths[short])
    else:
        raise ValueError(f"unknown tokenizer {tokenizer!r}")

    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    by_appearance = np.argsort(order[heads])
    vocab = list(interned) if tokenizer == "SP" else codes[heads[by_appearance]]
    del codes
    token_id = np.empty(len(heads), dtype=np.int32)
    token_id[by_appearance] = np.arange(len(heads), dtype=np.int32)
    token_of = np.empty(len(order), dtype=np.int32)
    token_of[order] = token_id[np.cumsum(new, dtype=np.int32) - 1]
    # an entry starts where the token or, within one token, the string changes
    owner = np.repeat(np.arange(n, dtype=np.int32), grams)[order]
    new[1:] |= owner[1:] != owner[:-1]
    entry = np.flatnonzero(new)
    # each entry's count, at its first position: read in position order, a
    # string's entries are in Counter order
    count_of = np.zeros(len(order), dtype=np.int32)
    count_of[order[entry]] = np.diff(entry, append=len(order))
    entry = np.flatnonzero(count_of)
    sizes = np.bincount(np.searchsorted(np.cumsum(grams), entry, side="right"), minlength=n)
    return vocab, sizes, token_of[entry], count_of[entry]


def idf_weights(
    sizes: np.ndarray, tokens: np.ndarray, n_vocab: int, copies: np.ndarray, n_docs: int
) -> np.ndarray:
    """The IDF weight ``log(n_docs / df)`` of each vocab id of a
    ``tokenize_strings`` CSR, where string s stands for ``copies[s]``
    documents and a token's df is the number of documents holding it.  A
    token no document holds weighs as if one did.  Tokens share few distinct
    document frequencies, so ``math.log`` runs once per distinct one."""
    doc_freq = np.bincount(tokens, weights=np.repeat(copies, sizes), minlength=n_vocab)
    distinct, inverse = np.unique(doc_freq, return_inverse=True)
    return np.array([math.log(n_docs / (df or 1)) for df in distinct.tolist()])[inverse]

"""Tokenization and string-similarity helpers shared by the linkers."""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import Iterable

_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)?")  # unicode word, optional 's


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; possessive 's is stripped, hyphens split.

    A token is a run of word characters, optionally followed by one
    apostrophe and another run. It is lowercased as one string, and then
    a trailing ``'s`` is cut off. No code point lowercases to a string
    that holds an apostrophe, and only ``S`` and ``s`` lowercase to one
    that ends in ``s`` (a capital sigma, which lowercases by its place in
    the token, becomes neither). So a lowercased token ends in ``'s``
    exactly when its apostrophe is followed by one ``S`` or ``s``, never
    ends in a bare apostrophe, and is never empty.
    """
    tokens = []
    for tok in _TOKEN_RE.findall(text):
        tok = tok.lower()
        tokens.append(tok[:-2] if tok.endswith("'s") else tok)
    return tokens


_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_CHUNK_RE = re.compile(r"\d+|[^\d_\-]+")


def tokenize_name(name: str) -> tuple[str, ...]:
    """Split a local name on camelCase, '_', '-', and digit boundaries;
    lowercase each token.

    The chunks are the maximal runs of digits and of other characters
    that are neither '_' nor '-'. A camelCase boundary lies before an
    ASCII capital that is not a chunk's first character, and ``lower``
    changes every such capital, so a chunk whose characters after the
    first ``lower`` leaves as they are is one token.
    """
    parts = []
    for chunk in _CHUNK_RE.findall(name):
        lowered = chunk.lower()
        if chunk[1:] == lowered[1:]:
            parts.append(lowered)
        else:
            parts += [p.lower() for p in _CAMEL_RE.split(chunk) if p]
    return tuple(parts)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    data = resources.files("relink.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in data.splitlines() if w.strip())


def levenshtein(a: str, b: str) -> int:
    """Edit distance (unit-cost insert, delete, substitute) of ``a`` and ``b``.

    Bit-parallel: bit ``i`` of ``pv``/``mv`` holds whether the DP table's
    vertical delta at the row of ``a[i]`` is +1/-1 in the current
    column, so one column of the table costs a fixed handful of
    int operations, whatever ``len(a)``. A column step is Myers' recurrence
    (G. Myers, "A fast bit-vector algorithm for approximate string matching
    based on dynamic programming", JACM 46(3), 1999) in Hyyrö's form for
    global distance (H. Hyyrö, "Explaining and extending the bit-parallel
    approximate string matching algorithm of Myers", 2001): the horizontal
    delta shifted in at row 0 is +1, not Myers' 0 for search. Cost is
    O(len(a) + len(b) * ceil(len(a) / w)) for machine word size ``w``;
    Python ints are unbounded, so any length works.
    """
    if not a:
        return len(b)
    peq: dict[str, int] = {}  # character -> bitmask of its positions in a
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1  # row len(a): the cell that holds the distance
    pv, mv, dist = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def edit_similarity(a: str, b: str) -> float:
    """1 - dist/maxlen, in [0, 1]."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)

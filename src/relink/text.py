"""Tokenization and string-similarity helpers shared by the linkers."""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import Iterable

_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)?")  # unicode word, optional 's
_POSSESSIVE_RE = re.compile(r"'s?$")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; possessive 's is stripped, hyphens split."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = _POSSESSIVE_RE.sub("", m.group(0).lower())
        if tok:
            tokens.append(tok)
    return tokens


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    data = resources.files("relink.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in data.splitlines() if w.strip())


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance, O(len(a) * len(b))."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


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

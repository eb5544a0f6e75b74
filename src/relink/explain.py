"""Phrase explanations from pluggable external-knowledge providers.

A phrase like "mother-in-law" is resolved to a short defining sentence.
Providers are consulted in priority order and the first answer wins.
The default provider reads a JSON fixture file so everything works
offline; an HTTP provider can be configured for live dictionary APIs.
Answers and misses are cached, with single-flight lookups per phrase.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Protocol, Sequence, Union

from .kg import read_json

log = logging.getLogger(__name__)

# cached phrases (answers and misses); past this the oldest entry goes
MAX_CACHED = 4096


def normalize_phrase(phrase: str) -> str:
    """Lowercase and trim; internal hyphens are part of dictionary keys."""
    return " ".join(phrase.lower().split())


@dataclass(frozen=True)
class Explanation:
    phrase: str
    sentence: str
    source: str


class ExplanationProvider(Protocol):
    id: str

    def lookup(self, phrase: str) -> Optional[Explanation]: ...


class FixtureProvider:
    """Deterministic provider backed by a JSON map of phrase -> sentence."""

    def __init__(self, source: Union[str, Path, Mapping[str, str]], id: str = "fixture"):
        self.id = id
        if isinstance(source, (str, Path)):
            raw = read_json(source, "explanation fixture")
            where = f"{source}: "
        else:
            raw, where = dict(source), ""
        keys: dict[str, str] = {}  # normalized phrase -> its key in ``raw``
        self._entries: dict[str, str] = {}
        for k, v in raw.items():
            if not isinstance(v, str):
                raise ValueError(
                    f"{where}explanation for {k!r} must be a string, got {type(v).__name__}"
                )
            phrase = normalize_phrase(k)
            if phrase in keys:
                raise ValueError(
                    f"{where}explanation keys {keys[phrase]!r} and {k!r}"
                    f" both normalize to {phrase!r}"
                )
            keys[phrase] = k
            if v.strip():
                self._entries[phrase] = v

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, phrase: str) -> Optional[Explanation]:
        key = normalize_phrase(phrase)
        sentence = self._entries.get(key)
        if sentence is None:
            return None
        return Explanation(key, sentence, self.id)


class HttpProvider:
    """Generic GET provider: URL template plus a dotted path into the JSON reply.

    Disabled unless explicitly constructed; replies are cached on disk, one
    file per normalised phrase named by its SHA-256, so a phrase is fetched
    at most once per cache directory.
    """

    def __init__(
        self,
        url_template: str,
        json_path: str,
        id: str = "http",
        api_key_header: Optional[tuple[str, str]] = None,
        timeout: float = 5.0,
        cache_dir: Optional[Union[str, Path]] = None,
    ):
        self.id = id
        self.url_template = url_template
        self.json_path = json_path.split(".")
        self.api_key_header = api_key_header
        self.timeout = timeout
        self.cache_dir = Path(cache_dir) if cache_dir else None

    def _cache_file(self, phrase: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = hashlib.sha256(normalize_phrase(phrase).encode("utf-8")).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def _extract(self, payload) -> Optional[str]:
        """The string at ``json_path`` in ``payload``; None when the path is
        missing or leads to any other value (a number, a boolean, null, an
        array or an object), since an explanation is a sentence."""
        node = payload
        for step in self.json_path:
            if isinstance(node, list):
                try:
                    node = node[int(step)]
                except (ValueError, IndexError):
                    return None
            elif isinstance(node, dict):
                if step not in node:
                    return None
                node = node[step]
            else:
                return None
        return node if isinstance(node, str) else None

    def lookup(self, phrase: str) -> Optional[Explanation]:
        from urllib.parse import quote
        from urllib.request import Request, urlopen

        phrase = normalize_phrase(phrase)
        cache_file = self._cache_file(phrase)
        cached = cache_file is not None and cache_file.exists()
        if cached:
            try:
                payload = json.loads(cache_file.read_text("utf-8"))
            except ValueError as exc:  # truncated or corrupt: a miss, replaced below
                log.warning("unreadable explanation cache file %s: %s", cache_file, exc)
                cached = False
        if not cached:
            url = self.url_template.format(phrase=quote(phrase))
            req = Request(url)
            if self.api_key_header:
                req.add_header(*self.api_key_header)
            with urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
            if cache_file is not None:
                # write-then-rename: a reader never sees a partial file
                cache_file.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=cache_file.parent, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(json.dumps(payload))
                    os.replace(tmp, cache_file)
                except BaseException:
                    # the caller logs the failure; the half-written file goes
                    with contextlib.suppress(OSError):
                        os.unlink(tmp)
                    raise
        sentence = self._extract(payload)
        if sentence is None or not sentence.strip():  # as FixtureProvider drops it
            return None
        return Explanation(phrase, sentence, self.id)


@dataclass(frozen=True)
class CacheStats:
    hits: int
    misses: int
    entries: int


class ExplanationService:
    """Front door for explanations: provider chain plus an in-memory cache.

    Answers and misses (every provider answered ``None``) are cached; past
    ``MAX_CACHED`` phrases the oldest entry goes. A lookup in which a
    provider failed is not cached, so the next call asks again. Lookups
    for the same phrase never run concurrently (single-flight); distinct
    phrases may. Provider failures are logged and skipped.
    """

    def __init__(self, providers: Sequence[ExplanationProvider]):
        self.providers = list(providers)
        self._lock = threading.Lock()
        self._cache: dict[str, Optional[Explanation]] = {}
        self._pending: dict[str, threading.Event] = {}  # lookups in flight
        self._hits = 0
        self._misses = 0

    def explain(self, phrase: str) -> Optional[Explanation]:
        if not phrase or not phrase.strip():
            raise ValueError("phrase must be non-empty")
        key = normalize_phrase(phrase)
        while True:
            with self._lock:
                if key in self._cache:
                    self._hits += 1
                    return self._cache[key]
                done = self._pending.get(key)
                if done is None:
                    done = self._pending[key] = threading.Event()
                    self._misses += 1
                    break
            done.wait()  # then read the cache, or take over if that lookup failed
        result, cacheable = None, False
        try:
            failed = False
            for provider in self.providers:
                try:
                    result = provider.lookup(key)
                except Exception as exc:  # noqa: BLE001 - provider I/O must not abort linking
                    log.warning("explanation provider %s failed for %r: %s",
                                getattr(provider, "id", "?"), key, exc)
                    failed = True
                    continue
                if result is not None:
                    break
            cacheable = not failed
        finally:
            with self._lock:
                if cacheable:
                    self._cache[key] = result
                    if len(self._cache) > MAX_CACHED:
                        del self._cache[next(iter(self._cache))]
                del self._pending[key]
            done.set()
        return result

    def cache_stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, len(self._cache))

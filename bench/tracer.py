"""In-memory spans and counters recorded around relink's public functions.

The benchmark patches the functions at the names their callers look up
(``relink.assemble`` imports ``detect_elements``, ``direct_match`` and
``has_instance`` by name, so those are patched there) and restores them
afterwards. Nothing inside ``src/`` changes. Spans are kept in a list
and written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    request: int  # shared by every span under one top-level call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._requests = 0

    @contextmanager
    def span(self, name: str):
        if self._stack:
            parent = self._stack[-1]
            request = self.spans[parent].request
        else:
            parent = None
            self._requests += 1
            request = self._requests
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=perf_counter())

    def wrap(
        self,
        fn: Callable,
        name: str,
        spanned: bool = True,
        observe: Optional[Callable[[object], Optional[str]]] = None,
    ) -> Callable:
        """``fn`` counted under ``name.calls``; ``observe(result)`` may name
        one more counter to bump. ``spanned=False`` counts without a span,
        so the caller's self time keeps the cost."""

        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if spanned:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if observe is not None:
                extra = observe(result)
                if extra:
                    self.counts[f"{name}.{extra}"] += 1
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, name, spanned, observe)``."""
        saved = []
        try:
            for owner, attr, name, spanned, observe in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, spanned, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: its durations and the sum of its self times.

        Self time is a span's duration minus the time its direct children
        cover. The benchmark is single-threaded, so children of one span
        never overlap and their durations can be summed.
        """
        spans = self.spans
        selfs = [s.duration for s in spans]
        for s in spans:
            if s.parent is not None:
                selfs[s.parent] -= s.duration
        out: dict[str, dict] = {}
        for s, self_time in zip(spans, selfs):
            entry = out.setdefault(s.name, {"durations": [], "self": 0.0})
            entry["durations"].append(s.duration)
            entry["self"] += self_time
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")

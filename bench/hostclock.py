"""Host-adjusted timing.

On a shared host the speed of one core changes with what other tenants
run: on a shared 2-vCPU VM, a fixed pure-Python loop took 130 ms in one
second and 240 ms in the next, in stretches from seconds to a minute
long. A run-to-run spread that large would hide any regression smaller
than it.

So every timed operation is scaled by the host's speed at that moment:
a fixed reference computation, which uses no relink code, is timed
between blocks of operations, and each operation's duration is
multiplied by ``REFERENCE_SECONDS / (mean reference time around its
block)``. The result reads as seconds on a host where the reference
takes ``REFERENCE_SECONDS``. Raw durations are kept beside the adjusted
ones so the report can show both.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_SECONDS = 0.001  # nominal duration of one reference computation
BLOCK_SECONDS = 0.03  # operations timed between two reference measurements
_WORDS = ("parent", "mother", "spouse", "relative", "country", "birthplace", "gender", "sibling")


def _reference_work() -> int:
    """Fixed interpreter-bound work like relink's: edit distances over
    short words, then tuple keys hashed into a dict and sorted."""
    distances = {}
    for i in range(24):
        a, b = _WORDS[i % 8], _WORDS[(i * 3 + 1) % 8]
        prev = list(range(len(b) + 1))
        for j, ca in enumerate(a, start=1):
            cur = [j]
            for k, cb in enumerate(b, start=1):
                cur.append(min(prev[k] + 1, cur[k - 1] + 1, prev[k - 1] + (ca != cb)))
            prev = cur
        distances[(a, b, i)] = prev[-1]
    groups: dict[tuple[str, int], list[str]] = {}
    for i in range(600):
        groups.setdefault((f"n{(i * 7919) % 1009}", i % 13), []).append(str(i))
    return sum(distances.values()) + len(sorted(groups.items()))


def reference_seconds() -> float:
    """The fastest of three reference runs, so one interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """Collects raw operation durations and their host-adjusted values."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.adjusted: list[float] = []
        self.scales: list[float] = []
        self._pending: list[float] = []
        self._pending_total = 0.0
        self._before = reference_seconds()

    def record(self, seconds: float) -> None:
        self._pending.append(seconds)
        self._pending_total += seconds
        if self._pending_total >= BLOCK_SECONDS:
            self.flush()

    def flush(self) -> None:
        """Close the open block: time the reference and scale the block."""
        if not self._pending:
            return
        after = reference_seconds()
        scale = REFERENCE_SECONDS / ((self._before + after) / 2)
        self.raw.extend(self._pending)
        self.adjusted.extend(s * scale for s in self._pending)
        self.scales.append(scale)
        self._pending = []
        self._pending_total = 0.0
        self._before = after

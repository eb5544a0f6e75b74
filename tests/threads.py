"""Run a test's work in plain threads that start together."""

from __future__ import annotations

import threading
from typing import Callable, Sequence


def run_together(works: Sequence[Callable[[], object]], timeout: float = 120.0) -> list:
    """Run each of ``works`` in its own ``threading.Thread``, all released
    at once by a ``threading.Barrier``, and return their results in order.

    Threads that start together interleave far more than work handed to a
    pool, so a race shows in more runs. A worker's exception is raised
    here, the first worker's first; a worker still running after
    ``timeout`` seconds fails the test.
    """
    barrier = threading.Barrier(len(works))
    results: list = [None] * len(works)
    errors: list = [None] * len(works)

    def run(i: int, work: Callable[[], object]) -> None:
        try:
            barrier.wait(timeout)
            results[i] = work()
        except BaseException as exc:  # noqa: BLE001 - raised in the caller
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i, work)) for i, work in enumerate(works)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "a worker did not finish in time"
    for exc in errors:
        if exc is not None:
            raise exc
    return results

"""The legacy binary-heap event list, preserved as the kernel oracle.

This is the original ``Simulator`` event list -- a single global
``heapq`` of ``(time, seq, callback)`` tuples, one closure allocated
per scheduled event -- factored out verbatim so the calendar-queue
fast path (:mod:`repro.simkernel.engine_calendar`) can be property-
tested against it.  Select it with ``Simulator(scheduler="heap")`` or
``REPRO_SCHEDULER=heap``; the engine then runs the exact PR-3 dispatch
chain (closure -> ``_step`` -> ``_dispatch``) on top of it.

It is kept in the package, unlike the row-loop oracle of the columnar
``NetworkLog`` (which lives under ``tests/``), because it is a runtime
choice: CI runs the whole test suite on it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple


class HeapScheduler:
    """Binary heap of ``(time, seq, callback)`` entries (the original
    event list; deterministic FIFO among simultaneous events via the
    monotone ``seq`` tie-break)."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def push(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        heappush(self._queue, (time, seq, callback))

    def pop(self) -> Tuple[float, int, Callable[[], None]]:
        return heappop(self._queue)

    def peek_time(self) -> Optional[float]:
        queue = self._queue
        return queue[0][0] if queue else None

    def clear(self) -> None:
        del self._queue[:]

"""Deterministic discrete-event kernel.

A single priority queue keyed on ``(time, seq)``: ties break in schedule
order, so simulations are exactly reproducible.  Callbacks are invoked
as ``callback(*args)``; passing the context positionally instead of
closing over it keeps the hot path free of per-event function-object
allocations (the same events fire in the same order either way — plain
zero-argument callables still work).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

_heappush = heapq.heappush


class EventQueue:
    """Min-heap of ``(time, seq, callback, args)`` events."""

    __slots__ = ("_heap", "_seq", "now", "events_run")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.now: float = 0.0
        self.events_run = 0

    def at(self, time: float, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq += 1
        _heappush(self._heap, (time, self._seq, callback, args))

    def after(self, delay: float, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # `at` inlined: now + nonnegative delay can never be in the past.
        self._seq += 1
        _heappush(self._heap, (self.now + delay, self._seq, callback, args))

    def run(self, *, max_events: int | None = None) -> None:
        """Drain the queue (optionally capped), advancing ``now``."""
        # The simulation spends its life in this loop: bind the heap and
        # the pop primitive once and keep `now` current on `self` each
        # iteration (callbacks read it).  The event count accumulates in
        # a local and is flushed on exit — nothing reads `events_run`
        # while the loop is live.
        heap = self._heap
        pop = heapq.heappop
        ran = 0
        try:
            if max_events is None:
                while heap:
                    time, _seq, callback, args = pop(heap)
                    self.now = time
                    ran += 1
                    callback(*args)
                return
            remaining = max_events
            while heap:
                if remaining == 0:
                    return
                remaining -= 1
                time, _seq, callback, args = pop(heap)
                self.now = time
                ran += 1
                callback(*args)
        finally:
            self.events_run += ran

    def to_state(self, codec) -> dict:
        """Every slot, the heap's continuations encoded by ``codec``."""
        return codec.fields(self, self.__slots__)

    def load_state(self, state: dict, codec) -> None:
        """Restore :meth:`to_state`.  The saved heap list is a valid heap
        (``seq`` is unique, so tuple comparison never reaches the
        callbacks) and is taken as is."""
        codec.load_fields(self, self.__slots__, state)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

"""A minimal discrete-event simulation engine: the reference flow emulator's clock.

:mod:`tests.oracles.flows_reference` replays flows with one event per flow
start and completion on this engine, as the library's emulator did before it
moved to a coalesced time-stepping loop.

Events are ``(time, sequence, callback)`` triples in a binary heap; the
sequence number breaks ties FIFO so simultaneous events run in scheduling
order, which keeps runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.exceptions import EmulationError

Callback = Callable[[], None]


class EventQueue:
    """A deterministic time-ordered event queue."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callback]] = []
        self._counter = itertools.count()
        self._cancelled: set = set()

    def push(self, time: float, callback: Callback) -> int:
        """Schedule ``callback`` at ``time``; returns an id for cancellation."""
        if time < 0:
            raise EmulationError(f"cannot schedule an event at negative time {time}")
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, seq, callback))
        return seq

    def cancel(self, event_id: int) -> None:
        """Lazily cancel a scheduled event by id."""
        self._cancelled.add(event_id)

    def pop(self) -> Optional[Tuple[float, Callback]]:
        """Next live event as ``(time, callback)``; ``None`` when drained."""
        while self._heap:
            time, seq, callback = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            return time, callback
        return None

    def __len__(self) -> int:
        return len(self._heap)


class Simulator:
    """Runs an :class:`EventQueue` forward, tracking the simulated clock."""

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self._steps = 0

    def schedule(self, delay: float, callback: Callback) -> int:
        """Schedule ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise EmulationError(f"delay must be non-negative, got {delay}")
        return self.queue.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> int:
        if time < self.now:
            raise EmulationError(
                f"cannot schedule in the past ({time} < now {self.now})"
            )
        return self.queue.push(time, callback)

    def cancel(self, event_id: int) -> None:
        self.queue.cancel(event_id)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains (or ``until``/``max_events``).

        Returns the final simulated time. ``max_events`` guards against
        pathological self-rescheduling loops.
        """
        while True:
            item = self.queue.pop()
            if item is None:
                break
            time, callback = item
            if until is not None and time > until:
                # Put it back conceptually: we simply stop; the caller can
                # continue with another run() call since the event was
                # consumed — so re-push it first.
                self.queue.push(time, callback)
                self.now = until
                break
            if time < self.now - 1e-12:
                raise EmulationError(
                    f"event time {time} precedes current time {self.now}"
                )
            self.now = max(self.now, time)
            callback()
            self._steps += 1
            if self._steps > max_events:
                raise EmulationError(f"exceeded {max_events} events; runaway loop?")
        return self.now

    @property
    def processed_events(self) -> int:
        return self._steps


__all__ = ["Callback", "EventQueue", "Simulator"]

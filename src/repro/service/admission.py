"""Admission control for the query service.

The in-query scheduler (:mod:`repro.core.scheduler`) arbitrates hardware
threads inside one accelerated query and is deterministic by construction
(ties broken by event sequence numbers).  The admission controller applies
the same discipline one level up, across *requests*:

* at most ``max_in_flight`` queries execute concurrently; the rest wait in
  per-priority FIFO queues (bounded by ``max_queue_depth``; requests beyond
  that are rejected so an open-loop workload cannot grow the queue without
  bound);
* when a slot frees, the next request is drawn by a **seeded lottery**
  between the non-empty priority classes, weighted heavily towards higher
  priorities.  The lottery is driven by a
  :class:`~repro.util.rng.DeterministicRNG`, so a given seed always
  reproduces the same dispatch order — reproducible like the core
  scheduler, but starvation-free where strict priority would not be.

Within a class, requests dispatch in submission order (FIFO, sequence
numbers assigned at submit time).

Slot accounting (`submit`/`next_request`/`release`) and the activity
counters are guarded by an internal lock.  The service drives the controller
from its one draining thread, but the class is exported and a caller may
share it between threads, where unguarded read-modify-write sequences
(``self._in_flight += 1``, peak tracking) would lose updates and leak slots;
``tests/test_service_concurrency.py`` hammers it.  Determinism is unaffected
— the seeded lottery is only drawn under the lock, in the event-loop order.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, Generic, Optional, Tuple, TypeVar

from repro.util.rng import DeterministicRNG
from repro.util.validation import check_positive

T = TypeVar("T")

#: Priority classes, highest first, with their default lottery weights.
PRIORITY_WEIGHTS: Dict[str, int] = {"high": 8, "normal": 3, "low": 1}

#: Priority class names, highest first.
PRIORITY_CLASSES: Tuple[str, ...] = tuple(PRIORITY_WEIGHTS)


@dataclass
class AdmissionStats:
    """Activity counters of the admission controller."""

    submitted: int = 0
    admitted_immediately: int = 0
    queued: int = 0
    rejected: int = 0
    dispatched: int = 0
    peak_in_flight: int = 0
    peak_queue_depth: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def check_admission_bounds(max_in_flight: int, max_queue_depth: Optional[int]) -> None:
    """Raise the ``ValueError`` :class:`AdmissionController` would for these bounds."""
    check_positive("max_in_flight", max_in_flight)
    if max_queue_depth is not None:
        check_positive("max_queue_depth", max_queue_depth)


class AdmissionController(Generic[T]):
    """Caps in-flight work and arbitrates queued requests by priority.

    Parameters
    ----------
    max_in_flight:
        Concurrency cap: how many requests may hold an execution slot.
    max_queue_depth:
        Total queued requests across classes before submissions are
        rejected (``None`` = unbounded, for closed-loop drivers that
        self-limit).
    seed:
        Seed of the dispatch lottery; equal seeds reproduce the exact
        dispatch order for the same submission/completion sequence.
    """

    def __init__(
        self,
        max_in_flight: int = 4,
        max_queue_depth: Optional[int] = None,
        seed: int = 2020,
    ):
        check_admission_bounds(max_in_flight, max_queue_depth)
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self.stats = AdmissionStats()
        self._rng = DeterministicRNG(seed)
        self._queues: Dict[str, Deque[T]] = {name: deque() for name in PRIORITY_CLASSES}
        self._queued = 0  # total length of the queues
        self._in_flight = 0
        # Not re-entrant: every method below takes it once and works on the
        # fields directly.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    # ------------------------------------------------------------------ #
    # Submission / dispatch protocol
    # ------------------------------------------------------------------ #
    def submit(self, request: T, priority: str = "normal") -> str:
        """Offer ``request``; returns ``"admitted"``, ``"queued"`` or ``"rejected"``.

        ``"admitted"`` means the request was granted a slot immediately (the
        caller starts it now); ``"queued"`` means it waits for
        :meth:`next_request`.
        """
        if priority not in PRIORITY_WEIGHTS:
            raise KeyError(
                f"unknown priority {priority!r}; use one of {PRIORITY_CLASSES}"
            )
        stats = self.stats
        with self._lock:
            stats.submitted += 1
            if self._queued == 0 and self._in_flight < self.max_in_flight:
                self._occupy_slot()
                stats.admitted_immediately += 1
                return "admitted"
            if self.max_queue_depth is not None and self._queued >= self.max_queue_depth:
                stats.rejected += 1
                return "rejected"
            self._queues[priority].append(request)
            self._queued += 1
            stats.queued += 1
            if self._queued > stats.peak_queue_depth:
                stats.peak_queue_depth = self._queued
            return "queued"

    def next_request(self) -> Optional[T]:
        """Grant a slot to the next queued request (or ``None``).

        The winning class is drawn by the seeded lottery over non-empty
        classes; the class's oldest request dispatches.
        """
        with self._lock:
            if not self._queued or self._in_flight >= self.max_in_flight:
                return None
            winner = self._rng.weighted_choice(
                {
                    name: weight
                    for name, weight in PRIORITY_WEIGHTS.items()
                    if self._queues[name]
                }
            )
            request = self._queues[winner].popleft()
            self._queued -= 1
            self._occupy_slot()
            return request

    def release(self) -> None:
        """A running request completed; its slot becomes free."""
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release() without a matching admission")
            self._in_flight -= 1

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _occupy_slot(self) -> None:
        self._in_flight += 1
        self.stats.dispatched += 1
        if self._in_flight > self.stats.peak_in_flight:
            self.stats.peak_in_flight = self._in_flight

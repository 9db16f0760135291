"""Micro-operations exchanged between the accelerator's work generators and the scheduler.

The TrieJax model executes the join functionally while *narrating* its work
as a stream of :class:`Operation` records: every record names the hardware
component that performs it (LUB, MatchMaker, Midwife, Cupid or the PJR
cache), how many cycles that component is occupied, and which memory
addresses the operation touches.  The scheduler (``repro.core.scheduler``)
consumes the stream, arbitrates component units among hardware threads,
routes the memory accesses through the shared hierarchy and thereby produces
the cycle count and the per-component activity the energy model needs.

A second record type, :class:`SpawnRequest`, implements dynamic
multithreading: the generator asks the scheduler to offload part of its
search space onto another hardware thread and receives back whether the
request was granted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from repro.core.cupid import Task


#: Names of the schedulable components, matching Figure 7.
COMPONENT_NAMES: Tuple[str, ...] = ("cupid", "matchmaker", "midwife", "lub", "pjr")


@dataclass(frozen=True)
class Operation:
    """One unit of work performed by one accelerator component.

    Attributes
    ----------
    component:
        One of :data:`COMPONENT_NAMES`.
    cycles:
        Occupancy of the component's functional unit.  The issuing hardware
        thread is stalled for ``cycles`` plus whatever latency the memory
        accesses add; the unit itself is only held for ``cycles`` (threads
        park their state in the component's thread store while waiting on
        memory, which is what lets multithreading hide latency).
    read_addresses:
        Byte addresses read through the read-only cache hierarchy.
    write_bytes:
        Result bytes streamed out through the write-combining buffer
        (bypassing the private caches when the configuration says so).
    write_address:
        Byte address the streamed result bytes start at (only meaningful when
        ``write_bytes`` is non-zero).
    tag:
        Short label for per-operation-type statistics and debugging
        (``"lub_probe"``, ``"midwife_expand"``, ``"emit"``...).
    """

    component: str
    cycles: int = 1
    read_addresses: Tuple[int, ...] = ()
    write_bytes: int = 0
    write_address: int = 0
    tag: str = ""

    def __post_init__(self) -> None:
        if self.component not in COMPONENT_NAMES:
            raise ValueError(
                f"unknown component {self.component!r}; expected one of {COMPONENT_NAMES}"
            )
        if self.cycles <= 0:
            raise ValueError(f"operation cycles must be positive, got {self.cycles}")
        if self.write_bytes < 0:
            raise ValueError("write_bytes must be non-negative")


@dataclass
class SpawnRequest:
    """Ask the scheduler to run ``task`` on another hardware thread.

    ``force`` marks the static partitioning performed at the first join
    variable (Section 3.4): those tasks are always queued, even when every
    hardware thread is currently busy.  Non-forced (dynamic) requests are
    granted only while there is spare thread capacity, mirroring the
    on-match splitting policy of the paper.  The scheduler answers the
    request by sending ``True``/``False`` back into the generator.
    """

    task: "Task"
    force: bool = False
    cycles: int = 1

"""The multithreaded execution scheduler.

This is the timing engine of the TrieJax model.  It executes the work
generators produced by :class:`~repro.core.cupid.CupidProgram` on a fixed
number of hardware threads, arbitrating the accelerator's functional units
(each component has a small number of replicated units, per Figure 7) and
routing every memory access through the shared
:class:`~repro.memory.hierarchy.MemoryHierarchy`:

* a component unit is occupied only for an operation's compute cycles — the
  issuing thread then waits for the operation's memory latency on its own,
  with its state parked in the component's thread store.  That separation is
  exactly what lets multithreading extract memory-level parallelism and hide
  DRAM latency (Section 3.4);
* DRAM channel occupancy and row-buffer state are shared across threads, so
  concurrent threads contend for bandwidth, which is what ultimately caps
  the multithreading speedup (Figure 14 saturates between 32 and 64
  threads);
* dynamic-multithreading spawn requests are granted while spare thread
  capacity exists (an idle hardware thread, or head-room in the pending-task
  queue); forced requests (the static root partitioning) are always queued.

The scheduler is deterministic: ties are broken by event sequence numbers.
It also keeps the per-hardware-thread accounting (:class:`ThreadStats`) of
the run report.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.core.config import TrieJaxConfig
from repro.core.cupid import Task
from repro.core.operations import Operation, SpawnRequest
from repro.memory.hierarchy import MemoryHierarchy


@dataclass
class ThreadStats:
    """Per-hardware-thread activity accounting (for the run report)."""

    tasks_executed: int = 0
    operations_issued: int = 0
    busy_cycles: int = 0
    results_emitted: int = 0


@dataclass
class ComponentUsage:
    """Occupancy bookkeeping of one replicated functional unit pool."""

    name: str
    units: int
    free_at: List[int] = field(default_factory=list)
    busy_cycles: int = 0
    operations: int = 0

    def __post_init__(self) -> None:
        if not self.free_at:
            self.free_at = [0] * self.units

    def acquire(self, request_time: int, cycles: int) -> int:
        """Reserve the earliest available unit; return the operation start time."""
        unit = min(range(self.units), key=lambda i: self.free_at[i])
        start = max(request_time, self.free_at[unit])
        self.free_at[unit] = start + cycles
        self.busy_cycles += cycles
        self.operations += 1
        return start


@dataclass
class SchedulerReport:
    """Raw timing outcome of one scheduled execution."""

    total_cycles: int = 0
    operations_executed: int = 0
    spawn_requests: int = 0
    spawns_granted: int = 0
    tasks_executed: int = 0
    max_concurrent_threads: int = 0
    component_busy_cycles: Dict[str, int] = field(default_factory=dict)
    component_operations: Dict[str, int] = field(default_factory=dict)
    operations_by_tag: Dict[str, int] = field(default_factory=dict)
    memory_read_latency_cycles: int = 0
    memory_write_latency_cycles: int = 0
    thread_stats: Dict[int, ThreadStats] = field(default_factory=dict)


class Scheduler:
    """Runs Cupid work generators on ``config.num_threads`` hardware threads."""

    def __init__(
        self,
        config: TrieJaxConfig,
        hierarchy: MemoryHierarchy,
    ):
        self.config = config
        self.hierarchy = hierarchy
        self.components: Dict[str, ComponentUsage] = {
            name: ComponentUsage(name, units)
            for name, units in config.component_units().items()
        }
        self.report = SchedulerReport()
        self._task_queue: Deque[Task] = deque()
        self._generators: Dict[int, Optional[Iterator[object]]] = {}
        self._pending_send: Dict[int, Optional[bool]] = {}
        self._event_heap: List = []
        self._sequence = 0
        self._active_threads = 0
        self._latest_time = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, program, initial_task: Task) -> SchedulerReport:
        """Execute ``initial_task`` (and everything it spawns) to completion."""
        for slot in range(self.config.num_threads):
            self._generators[slot] = None
            self._pending_send[slot] = None
            self.report.thread_stats[slot] = ThreadStats()
        self._program = program
        self._start_task_on_slot(0, initial_task, start_time=0)

        # A slot has at most one pending event, and only while it runs a task.
        while self._event_heap:
            time, _seq, slot = heapq.heappop(self._event_heap)
            self._step_thread(slot, self._generators[slot], time)

        self.report.total_cycles = self._finish_time()
        self.report.component_busy_cycles = {
            name: usage.busy_cycles for name, usage in self.components.items()
        }
        self.report.component_operations = {
            name: usage.operations for name, usage in self.components.items()
        }
        return self.report

    # ------------------------------------------------------------------ #
    # Thread stepping
    # ------------------------------------------------------------------ #
    def _step_thread(self, slot: int, generator: Iterator[object], time: int) -> None:
        send_value = self._pending_send[slot]
        self._pending_send[slot] = None
        try:
            if send_value is None:
                item = next(generator)
            else:
                item = generator.send(send_value)
        except StopIteration:
            self._on_thread_finished(slot, time)
            return

        if isinstance(item, SpawnRequest):
            self._handle_spawn(slot, item, time)
        elif isinstance(item, Operation):
            self._handle_operation(slot, item, time)
        else:
            raise TypeError(
                f"thread {slot} yielded unsupported item {type(item).__name__}"
            )

    def _handle_operation(self, slot: int, operation: Operation, time: int) -> None:
        usage = self.components[operation.component]
        start = usage.acquire(time, operation.cycles)

        memory_latency = 0
        for address in operation.read_addresses:
            latency = self.hierarchy.read(address, now_cycle=start)
            memory_latency += latency
            self.report.memory_read_latency_cycles += latency
        if operation.write_bytes:
            latency = self.hierarchy.write(
                operation.write_address, operation.write_bytes, now_cycle=start
            )
            memory_latency += latency
            self.report.memory_write_latency_cycles += latency

        ready = start + operation.cycles + memory_latency
        self.report.operations_executed += 1
        self.report.operations_by_tag[operation.tag] = (
            self.report.operations_by_tag.get(operation.tag, 0) + 1
        )
        thread_stats = self.report.thread_stats[slot]
        thread_stats.operations_issued += 1
        thread_stats.busy_cycles += operation.cycles + memory_latency
        if operation.tag == "emit":
            thread_stats.results_emitted += 1
        self._schedule(slot, ready)

    def _handle_spawn(self, slot: int, request: SpawnRequest, time: int) -> None:
        self.report.spawn_requests += 1
        accepted = self._try_accept_task(request, time)
        if accepted:
            self.report.spawns_granted += 1
        self._pending_send[slot] = accepted
        self._schedule(slot, time + request.cycles)

    def _try_accept_task(self, request: SpawnRequest, time: int) -> bool:
        idle_slot = self._find_idle_slot()
        if idle_slot is not None:
            self._start_task_on_slot(idle_slot, request.task, start_time=time)
            return True
        if request.force or len(self._task_queue) < self.config.num_threads:
            self._task_queue.append(request.task)
            return True
        return False

    def _on_thread_finished(self, slot: int, time: int) -> None:
        self._generators[slot] = None
        self._active_threads -= 1
        if self._task_queue:
            task = self._task_queue.popleft()
            self._start_task_on_slot(slot, task, start_time=time)

    # ------------------------------------------------------------------ #
    # Slot management
    # ------------------------------------------------------------------ #
    def _find_idle_slot(self) -> Optional[int]:
        for slot in range(self.config.num_threads):
            if self._generators[slot] is None:
                return slot
        return None

    def _start_task_on_slot(self, slot: int, task: Task, start_time: int) -> None:
        generator = self._program.task_generator(task)
        self._generators[slot] = generator
        self._pending_send[slot] = None
        self._active_threads += 1
        self.report.tasks_executed += 1
        self.report.thread_stats[slot].tasks_executed += 1
        self.report.max_concurrent_threads = max(
            self.report.max_concurrent_threads, self._active_threads
        )
        self._schedule(slot, start_time)

    def _schedule(self, slot: int, when: int) -> None:
        self._sequence += 1
        self._latest_time = max(self._latest_time, when)
        heapq.heappush(self._event_heap, (when, self._sequence, slot))

    def _finish_time(self) -> int:
        """Completion cycle: the latest any component unit or thread was busy."""
        latest_component = max(
            (max(usage.free_at) for usage in self.components.values()), default=0
        )
        return max(latest_component, self._latest_time)

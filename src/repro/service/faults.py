"""Deterministic fault injection and the retry machinery that survives it.

ROADMAP item 5 asks for "replica-aware routing with node slowdown/failure
injection in virtual time".  This module supplies both halves:

* **Injection** — :class:`FaultPlan` / :class:`FaultInjector`: per-node
  slowdown multipliers, transient task failures, permanent outages and a
  worker-crash trigger, every one scheduled on the *service clock* (modelled
  nanoseconds).  Each primitive is a pure function of ``(node, now)`` plus a
  seeded hash, never of host scheduling or mutable counters, so an identical
  fault plan produces bit-identical behaviour on the virtual and process
  backends — the property the fault-equivalence suite pins.
* **Tolerance** — fixed retry constants (:data:`MAX_ATTEMPTS` attempts
  with capped exponential :func:`backoff_ns` between them, retrying on the
  next replica), :class:`CircuitBreaker` / :class:`NodeBreakers` (per-node
  closed → open → half-open gating on the virtual clock), and
  :func:`schedule_task`, the pure "attempt walk" the scatter executor uses
  to turn one real engine execution into a deterministic timeline of
  failed attempts, backoffs and the eventual success or give-up.

The attempt walk is the trick that keeps the byte-equality contract cheap:
replica fragments are identical by construction, so the engine only ever
runs **once** per shard; retries and backoffs are virtual-cost events
layered on top of that single execution's base cost.  A shard whose
replicas are all unavailable contributes *no* execution (and therefore no
JoinStats and no cache entries) — exactly the degradation contract
:class:`~repro.service.scatter.ScatterGatherExecutor` enforces.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.service.scatter import ScatterGatherStats

__all__ = [
    "BACKOFF_BASE_NS",
    "BACKOFF_CAP_NS",
    "BREAKER_FAST_FAIL_COST_NS",
    "BREAKER_RESET_NS",
    "BREAKER_THRESHOLD",
    "CircuitBreaker",
    "FaultInjector",
    "FaultPlan",
    "MAX_ATTEMPTS",
    "NodeBreakers",
    "OUTAGE_DETECT_COST_NS",
    "OutageFault",
    "ShardUnavailableError",
    "SlowdownFault",
    "TRANSIENT_FAILURE_COST_NS",
    "TaskAttempt",
    "TaskSchedule",
    "TransientFault",
    "WorkerCrashFault",
    "backoff_ns",
    "check_on_shard_loss",
    "coerce_fault_plan",
    "parse_fault_spec",
    "schedule_task",
]

#: Virtual cost of discovering a node is down (a fast connection refusal).
OUTAGE_DETECT_COST_NS = 50.0
#: Virtual cost of an attempt that dies with a transient failure.
TRANSIENT_FAILURE_COST_NS = 200.0
#: Virtual cost of skipping a node whose circuit breaker is open.
BREAKER_FAST_FAIL_COST_NS = 5.0
#: Attempts one shard task gets before it is lost (attempt ``k`` targets
#: replica ``k % replication``).
MAX_ATTEMPTS = 4
#: Backoff after failed attempt ``k``: ``BACKOFF_BASE_NS * 2**k``, capped.
BACKOFF_BASE_NS = 50.0
BACKOFF_CAP_NS = 800.0
#: Consecutive failures that open a node's breaker, and the virtual time
#: before an open breaker admits its half-open probe.
BREAKER_THRESHOLD = 5
BREAKER_RESET_NS = 10_000.0


def backoff_ns(attempt: int) -> float:
    """Backoff charged after failed attempt ``attempt`` (0-based)."""
    return min(BACKOFF_BASE_NS * (2.0**attempt), BACKOFF_CAP_NS)


class ShardUnavailableError(RuntimeError):
    """A shard's fragment could not be computed on any replica.

    Raised by the scatter executor when ``on_shard_loss="fail"`` (the
    default).  Carries enough context to build a failed
    :class:`~repro.service.metrics.QueryRecord`: the seed relation, the
    shards that were lost, how many attempts each burned, the total
    virtual cost the query accrued before giving up, and the fan-out's
    :class:`~repro.service.scatter.ScatterGatherStats`.
    """

    def __init__(
        self,
        relation: str,
        shards: Sequence[int],
        attempts: int,
        cost_ns: float,
        scatter: ScatterGatherStats,
    ):
        self.relation = relation
        self.shards = tuple(shards)
        self.attempts = attempts
        self.cost_ns = cost_ns
        #: The failed fan-out's breakdown, so the service can still feed
        #: the breakers and trace it at completion.
        self.scatter = scatter
        plural = "s" if len(self.shards) != 1 else ""
        super().__init__(
            f"shard{plural} {list(self.shards)} of relation {relation!r} "
            f"unavailable after {attempts} attempt(s); "
            f"use on_shard_loss='partial' for a degraded answer"
        )


def check_on_shard_loss(policy: str) -> str:
    """Validate an ``on_shard_loss`` policy name; returns it for chaining."""
    if policy not in ("fail", "partial"):
        raise ValueError(f"on_shard_loss must be 'fail' or 'partial', got {policy!r}")
    return policy


# --------------------------------------------------------------------------- #
# Fault primitives — pure windows on the virtual clock
# --------------------------------------------------------------------------- #
def _check_window(start: float, end: float) -> None:
    """Reject a window that is NaN-bounded or not ``0 <= start < end``."""
    # Written positively so a NaN bound (every comparison False) fails.
    if not 0 <= start < end:
        raise ValueError(f"window [{start!r}, {end!r}) must satisfy 0 <= START < END")


@dataclass(frozen=True)
class SlowdownFault:
    """Node ``node`` runs ``factor``× slower while ``start <= now < end``."""

    node: int
    factor: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise ValueError(
                f"slowdown factor must be finite and positive, got {self.factor!r}"
            )
        _check_window(self.start, self.end)

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class TransientFault:
    """Attempts on ``node`` fail (with ``probability``) inside the window.

    Whether a *specific* attempt fails is decided by a pure seeded hash of
    the attempt's identity (query signature, shard, attempt index), never
    by a mutable counter — see :meth:`FaultInjector.transient_fails`.
    """

    node: int
    start: float
    end: float
    probability: float = 1.0

    def __post_init__(self):
        _check_window(self.start, self.end)
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"flaky probability must be in (0, 1], got {self.probability!r}"
            )

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class OutageFault:
    """Node ``node`` is unreachable while ``start <= now < end``.

    The default window ``[0, inf)`` models a permanently dead node.
    """

    node: int
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self):
        _check_window(self.start, self.end)

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class WorkerCrashFault:
    """Crash the process-pool after ``after_requests`` offloaded requests.

    Consumed by :class:`repro.service.shm.SharedMemoryRunner` (via
    ``crash_after``) to exercise the broken-pool inline fallback
    deterministically.
    """

    after_requests: int


# --------------------------------------------------------------------------- #
# FaultPlan + spec grammar
# --------------------------------------------------------------------------- #
def _parse_window(text: str) -> Tuple[float, float]:
    """``"START-END"`` → window; END may be ``inf``."""
    start_text, sep, end_text = text.partition("-")
    if not sep:
        raise ValueError(f"expected START-END window, got {text!r}")
    start = float(start_text)
    end = math.inf if end_text.strip().lower() == "inf" else float(end_text)
    return start, end


def parse_fault_spec(spec: str, seed: int = 2020) -> "FaultPlan":
    """Parse the CLI fault grammar into a :class:`FaultPlan`.

    Semicolon-separated clauses, times in modelled nanoseconds::

        slow:NODE*FACTOR[@START-END]   # slowdown multiplier over a window
        flaky:NODE@START-END[:PROB]    # transient failures over a window
        down:NODE[@START[-END]]        # outage (END defaults to inf)
        crash:AFTER                    # crash worker pool after N offloads

    Examples: ``"slow:0*8"``, ``"flaky:1@0-2000:0.5; down:2@500"``,
    ``"down:0@0-inf; crash:10"``.
    """
    slowdowns: List[SlowdownFault] = []
    transients: List[TransientFault] = []
    outages: List[OutageFault] = []
    crash: Optional[WorkerCrashFault] = None
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        kind, sep, rest = clause.partition(":")
        if not sep:
            raise ValueError(f"bad fault clause {clause!r}: missing ':'")
        kind = kind.strip().lower()
        rest = rest.strip()
        try:
            if kind == "slow":
                target, _, window = rest.partition("@")
                node_text, sep2, factor_text = target.partition("*")
                if not sep2:
                    raise ValueError("slow clause needs NODE*FACTOR")
                factor = float(factor_text)
                start, end = _parse_window(window) if window else (0.0, math.inf)
                slowdowns.append(
                    SlowdownFault(int(node_text), factor, start, end)
                )
            elif kind == "flaky":
                target, sep2, window = rest.partition("@")
                if not sep2:
                    raise ValueError("flaky clause needs NODE@START-END")
                window, _, prob_text = window.partition(":")
                start, end = _parse_window(window)
                probability = float(prob_text) if prob_text else 1.0
                transients.append(
                    TransientFault(int(target), start, end, probability)
                )
            elif kind == "down":
                target, _, window = rest.partition("@")
                if window and "-" in window:
                    start, end = _parse_window(window)
                elif window:
                    start, end = float(window), math.inf
                else:
                    start, end = 0.0, math.inf
                outages.append(OutageFault(int(target), start, end))
            elif kind == "crash":
                after = int(rest)
                if after < 0:
                    raise ValueError("crash count must be >= 0")
                crash = WorkerCrashFault(after)
            else:
                raise ValueError(
                    f"unknown fault kind {kind!r}; "
                    "expected slow, flaky, down or crash"
                )
        except ValueError as error:
            raise ValueError(f"bad fault clause {clause!r}: {error}") from None
    return FaultPlan(
        slowdowns=tuple(slowdowns),
        transients=tuple(transients),
        outages=tuple(outages),
        crash=crash,
        seed=seed,
    )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule on the virtual clock."""

    slowdowns: Tuple[SlowdownFault, ...] = ()
    transients: Tuple[TransientFault, ...] = ()
    outages: Tuple[OutageFault, ...] = ()
    crash: Optional[WorkerCrashFault] = None
    seed: int = 2020

    parse = staticmethod(parse_fault_spec)

    @property
    def empty(self) -> bool:
        return not (self.slowdowns or self.transients or self.outages or self.crash)

    def describe(self) -> str:
        parts = []
        for f in self.slowdowns:
            parts.append(f"slow:{f.node}*{f.factor:g}@{f.start:g}-{f.end:g}")
        for f in self.transients:
            parts.append(
                f"flaky:{f.node}@{f.start:g}-{f.end:g}:{f.probability:g}"
            )
        for f in self.outages:
            parts.append(f"down:{f.node}@{f.start:g}-{f.end:g}")
        if self.crash is not None:
            parts.append(f"crash:{self.crash.after_requests}")
        return "; ".join(parts) if parts else "(no faults)"


def coerce_fault_plan(faults: object, seed: int = 2020) -> FaultPlan:
    """Accept a :class:`FaultPlan` or a spec string."""
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return parse_fault_spec(faults, seed=seed)
    raise TypeError(
        f"faults must be a FaultPlan or a spec string, got {type(faults).__name__}"
    )


class FaultInjector:
    """Answers "what does the fault plan do to node N at virtual time T?".

    Stateless by design: every query is a pure function of the plan, the
    node, the virtual clock and (for probabilistic transients) a seeded
    hash of the attempt identity, so concurrent backends cannot observe
    different fault behaviour for the same schedule.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def slowdown(self, node: int, now: float) -> float:
        """Combined slowdown multiplier for ``node`` at ``now`` (>= 1.0)."""
        factor = 1.0
        for fault in self.plan.slowdowns:
            if fault.node == node and fault.active(now):
                factor *= fault.factor
        return factor

    def is_down(self, node: int, now: float) -> bool:
        return any(
            fault.node == node and fault.active(now)
            for fault in self.plan.outages
        )

    def transient_fails(
        self, node: int, now: float, signature: str, shard: int, attempt: int
    ) -> bool:
        """Does this specific attempt die with a transient failure?

        Probability < 1 is resolved by a pure CRC32 coin over
        ``(seed, node, signature, shard, attempt)`` — the same attempt
        always gets the same verdict, on every backend.
        """
        for fault in self.plan.transients:
            if fault.node != node or not fault.active(now):
                continue
            if fault.probability >= 1.0:
                return True
            key = f"{self.plan.seed}:{node}:{signature}:{shard}:{attempt}"
            coin = zlib.crc32(key.encode("utf-8")) / 2**32
            if coin < fault.probability:
                return True
        return False

    @property
    def crash_after(self) -> Optional[int]:
        return (
            self.plan.crash.after_requests if self.plan.crash is not None else None
        )


# --------------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------------- #
class CircuitBreaker:
    """Closed → open → half-open breaker on the virtual clock.

    State machine: :data:`BREAKER_THRESHOLD` consecutive failures open the
    breaker; after :data:`BREAKER_RESET_NS` of virtual time the next
    :meth:`allow` admits a single half-open probe; the probe's success
    closes the breaker, its failure re-opens it for a fresh reset window.
    """

    def __init__(self):
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if now >= self.opened_at + BREAKER_RESET_NS:
                self.state = "half_open"
                return True  # the single half-open probe
            return False
        return False  # half_open: probe already in flight

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= BREAKER_THRESHOLD:
            self.state = "open"
            self.opened_at = now
            self.failures = 0

    def record_success(self, now: float) -> None:
        self.state = "closed"
        self.failures = 0


class NodeBreakers:
    """Per-node circuit breakers, mutated only at deterministic points.

    The scatter path *reads* breakers at dispatch (to build a gate) and
    *writes* them at completion — both in virtual-time order — so every
    execution backend observes the same admission decisions as the
    virtual-time oracle.
    """

    def __init__(self):
        self._breakers: Dict[int, CircuitBreaker] = {}

    def _breaker(self, node: int) -> CircuitBreaker:
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = self._breakers[node] = CircuitBreaker()
        return breaker

    def gate(self, nodes: Iterable[int], now: float) -> Dict[int, bool]:
        """Admission verdict per node at virtual ``now``."""
        return {node: self._breaker(node).allow(now) for node in nodes}

    def observe(self, outcomes: Iterable[Tuple[int, bool]], now: float) -> None:
        """Record ``(node, ok)`` attempt outcomes at virtual ``now``."""
        for node, ok in outcomes:
            breaker = self._breaker(node)
            if ok:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)

    def state(self, node: int) -> str:
        breaker = self._breakers.get(node)
        return breaker.state if breaker is not None else "closed"


# --------------------------------------------------------------------------- #
# The attempt walk
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TaskAttempt:
    """One attempt in a task's virtual timeline."""

    node: int
    replica: int
    outcome: str  # "ok" | "transient" | "outage" | "breaker_open"
    cost_ns: float
    backoff_ns: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


@dataclass(frozen=True)
class TaskSchedule:
    """The deterministic retry timeline of one shard task."""

    shard: int
    attempts: Tuple[TaskAttempt, ...]
    ok: bool
    cost_ns: float  # total virtual time from dispatch to success / give-up

    @property
    def replica(self) -> Optional[int]:
        """Replica index that finally served the task (None if lost)."""
        return self.attempts[-1].replica if self.ok else None

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def outcomes(self) -> Tuple[Tuple[int, bool], ...]:
        """``(node, ok)`` per attempt, for breaker observation."""
        return tuple((a.node, a.ok) for a in self.attempts)


def schedule_task(
    shard: int,
    nodes: Sequence[int],
    base_cost_ns: float,
    start_ns: float,
    signature: str,
    injector: Optional[FaultInjector],
    gate: Optional[Mapping[int, bool]] = None,
) -> TaskSchedule:
    """Walk one shard task's attempts through the fault plan, in pure math.

    ``nodes[r]`` is the node hosting replica ``r``; attempt ``k`` targets
    replica ``k % len(nodes)``, for at most :data:`MAX_ATTEMPTS` attempts.
    Every quantity is a pure function of the inputs, so the walk is
    bit-identical on every backend.  Rules:

    * an open breaker gate fails the attempt fast — except on the *last*
      attempt, which always runs for real (last-resort rule: a recoverable
      schedule must never be lost purely to breaker state);
    * an outage is detected for :data:`OUTAGE_DETECT_COST_NS`;
    * a transient failure burns :data:`TRANSIENT_FAILURE_COST_NS`;
    * otherwise the attempt succeeds at ``base_cost_ns`` × the node's
      slowdown;
    * failed attempts are followed by :func:`backoff_ns` (none after the
      last).
    """
    if not nodes:
        raise ValueError("schedule_task needs at least one replica node")
    attempts: List[TaskAttempt] = []
    now = start_ns
    last = MAX_ATTEMPTS - 1
    for k in range(MAX_ATTEMPTS):
        replica = k % len(nodes)
        node = nodes[replica]
        allowed = True if gate is None else gate.get(node, True)
        if not allowed and k < last:
            outcome, cost = "breaker_open", BREAKER_FAST_FAIL_COST_NS
        elif injector is not None and injector.is_down(node, now):
            outcome, cost = "outage", OUTAGE_DETECT_COST_NS
        elif injector is not None and injector.transient_fails(
            node, now, signature, shard, k
        ):
            outcome, cost = "transient", TRANSIENT_FAILURE_COST_NS
        else:
            cost = base_cost_ns * (
                injector.slowdown(node, now) if injector is not None else 1.0
            )
            attempts.append(TaskAttempt(node, replica, "ok", cost))
            return TaskSchedule(shard, tuple(attempts), True, now + cost - start_ns)
        backoff = backoff_ns(k) if k < last else 0.0
        attempts.append(TaskAttempt(node, replica, outcome, cost, backoff))
        now += cost + backoff
    return TaskSchedule(shard, tuple(attempts), False, now - start_ns)

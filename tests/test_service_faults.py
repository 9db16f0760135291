"""Fault injection and the retry machinery that keeps answers identical.

Four layers of pinning, mirroring the concurrency/process suites:

* **unit** — the fault-spec grammar and fault validation, the pure
  determinism of :class:`FaultInjector` (CRC32 transient coin, window
  edges), the capped backoff of :func:`backoff_ns`, the circuit-breaker
  state machine, and replica placement/validation on
  :class:`ShardedDatabase` — all in pure virtual time, independent of the
  scatter path;
* **attempt walk** — :func:`schedule_task` timelines: capped backoff,
  replica failover, breaker fast-fails and the last-resort rule;
* **equivalence** — the byte-equality contract: a recoverable fault plan
  (transient windows, stragglers, outages covered by replicas) must leave
  results, JoinStats, records and every cache observable identical to the
  fault-free run, on the sync Session path and across the virtual and
  process execution backends; unrecoverable loss must degrade
  to *exactly* the surviving union (``on_shard_loss="partial"``) or raise
  a typed error (``"fail"``), and a degraded answer must never enter the
  result cache;
* **observability** — the worker-crash trigger (one
  :class:`ProcessPoolBrokenWarning`, counted inline fallbacks, the report
  line), the service report's fault-tolerance line, the
  ``fault_events_total`` counter family and the ``repro trace summarize``
  fault section.

``REPRO_CONCURRENCY_REPEATS`` (CI's chaos job sets it > 1) re-runs the
seeded equivalence cases, matching the other backend suites.
"""

import dataclasses
import math
import os
import warnings

import pytest

from repro.api import Session, create_engine
from repro.graphs import pattern_query
from repro.relational.sharding import ShardedDatabase, shard_database
from repro.service import (
    QueryService,
    WorkloadSpec,
    generate_requests,
    run_workload,
    workload_database,
)
from repro.service.caches import ResultCache
from repro.service.faults import (
    BACKOFF_BASE_NS,
    BACKOFF_CAP_NS,
    BREAKER_FAST_FAIL_COST_NS,
    BREAKER_RESET_NS,
    BREAKER_THRESHOLD,
    MAX_ATTEMPTS,
    OUTAGE_DETECT_COST_NS,
    TRANSIENT_FAILURE_COST_NS,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    NodeBreakers,
    OutageFault,
    ShardUnavailableError,
    SlowdownFault,
    TransientFault,
    WorkerCrashFault,
    backoff_ns,
    coerce_fault_plan,
    parse_fault_spec,
    schedule_task,
)
from repro.service.scatter import ScatterGatherExecutor
from repro.service.shm import ProcessPoolBrokenWarning

#: Seeded repeats of the equivalence cases (CI sets this higher).
REPEATS = max(1, int(os.environ.get("REPRO_CONCURRENCY_REPEATS", "1")))

#: A transient window every retry escapes: attempt 0 at t=0 burns the
#: 200 ns failure cost plus 50 ns backoff, so attempt 1 lands at t=250,
#: outside [0, 220) — exactly one retry, guaranteed recovery.
TRANSIENT = "flaky:1@0-220"

#: Shard 3 runs 8x slow for the whole stream.
STRAGGLER = "slow:3*8"


# --------------------------------------------------------------------------- #
# Fault-spec grammar
# --------------------------------------------------------------------------- #
class TestFaultSpecGrammar:
    def test_full_grammar_parses(self):
        plan = parse_fault_spec(
            "slow:0*8@100-2000; flaky:1@0-500:0.5; down:2@300; "
            "down:3@10-20; crash:7",
            seed=99,
        )
        assert plan.slowdowns == (SlowdownFault(0, 8.0, 100.0, 2000.0),)
        assert plan.transients == (TransientFault(1, 0.0, 500.0, 0.5),)
        assert plan.outages == (
            OutageFault(2, 300.0, math.inf),
            OutageFault(3, 10.0, 20.0),
        )
        assert plan.crash == WorkerCrashFault(7)
        assert plan.seed == 99

    def test_window_and_probability_defaults(self):
        plan = parse_fault_spec("slow:1*2; down:0; flaky:2@5-9; down:1@0-inf")
        assert plan.slowdowns[0].start == 0.0
        assert plan.slowdowns[0].end == math.inf
        assert plan.outages[0] == OutageFault(0, 0.0, math.inf)
        assert plan.transients[0].probability == 1.0
        assert plan.outages[1].end == math.inf

    def test_blank_clauses_are_skipped(self):
        plan = parse_fault_spec("slow:0*2; ;  ")
        assert len(plan.slowdowns) == 1
        assert not plan.transients and not plan.outages

    @pytest.mark.parametrize(
        "spec",
        [
            "nonsense",  # no ':'
            "boom:1",  # unknown kind
            "slow:0",  # missing *FACTOR
            "slow:0*0",  # factor must be positive
            "slow:0*2@20-10",  # inverted window
            "flaky:1",  # missing window
            "flaky:1@5-5",  # empty window
            "flaky:1@0-10:0",  # probability out of (0, 1]
            "flaky:1@0-10:1.5",
            "down:1@-5",  # negative start
            "crash:-1",
            "crash:soon",
            "slow:0*nan",  # non-finite factors
            "slow:0*inf",
            "down:1@nan",  # NaN window bounds
            "flaky:1@nan-nan",
            "flaky:1@5",  # a window with no END
        ],
    )
    def test_bad_clauses_raise(self, spec):
        with pytest.raises(ValueError, match="bad fault clause"):
            parse_fault_spec(spec)

    def test_hand_built_plans_are_validated_too(self):
        with pytest.raises(ValueError, match="finite and positive"):
            FaultPlan(slowdowns=(SlowdownFault(0, math.inf),))
        with pytest.raises(ValueError, match="0 <= START < END"):
            FaultPlan(outages=(OutageFault(1, math.nan),))
        with pytest.raises(ValueError, match="0 <= START < END"):
            FaultPlan(transients=(TransientFault(1, 0.0, math.nan),))
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(transients=(TransientFault(1, 0.0, 10.0, math.nan),))

    @pytest.mark.parametrize(
        ("build", "match"),
        [
            pytest.param(
                lambda: SlowdownFault(0, 0.0), "finite and positive", id="slow-zero"
            ),
            pytest.param(
                lambda: SlowdownFault(0, -2.0), "finite and positive", id="slow-negative"
            ),
            pytest.param(
                lambda: SlowdownFault(0, math.nan), "finite and positive", id="slow-nan"
            ),
            pytest.param(
                lambda: SlowdownFault(0, -math.inf),
                "finite and positive",
                id="slow-minus-inf",
            ),
            pytest.param(
                lambda: SlowdownFault(0, 2.0, 10.0, 10.0),
                "0 <= START < END",
                id="slow-empty-window",
            ),
            pytest.param(
                lambda: OutageFault(1, -1.0), "0 <= START < END", id="down-negative-start"
            ),
            pytest.param(
                lambda: OutageFault(1, 0.0, math.nan),
                "0 <= START < END",
                id="down-nan-end",
            ),
            pytest.param(
                lambda: OutageFault(1, 20.0, 10.0),
                "0 <= START < END",
                id="down-inverted",
            ),
            pytest.param(
                lambda: TransientFault(1, math.nan, 10.0),
                "0 <= START < END",
                id="flaky-nan-start",
            ),
            pytest.param(
                lambda: TransientFault(1, 0.0, 10.0, 0.0), "probability", id="flaky-p0"
            ),
            pytest.param(
                lambda: TransientFault(1, 0.0, 10.0, 1.5), "probability", id="flaky-p>1"
            ),
        ],
    )
    def test_each_primitive_validates_itself(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize(
        ("field", "fault"),
        [
            pytest.param("slowdowns", SlowdownFault(0, 1e-9), id="slow-tiny-factor"),
            pytest.param("outages", OutageFault(1, 0.0, math.inf), id="down-forever"),
            pytest.param(
                "transients", TransientFault(1, 0.0, 1e-9, 1.0), id="flaky-certain"
            ),
        ],
    )
    def test_edge_values_inside_the_rules_are_accepted(self, field, fault):
        plan = FaultPlan(**{field: (fault,)})
        assert not plan.empty
        assert FaultPlan.parse(plan.describe()) == plan  # the spec round-trips

    def test_describe_and_empty(self):
        assert FaultPlan().empty
        assert FaultPlan().describe() == "(no faults)"
        plan = FaultPlan.parse("slow:0*8; flaky:1@0-220; down:2; crash:3")
        assert not plan.empty
        described = plan.describe()
        for clause in ("slow:0*8", "flaky:1@0-220:1", "down:2@0-inf", "crash:3"):
            assert clause in described

    def test_coerce_fault_plan(self):
        plan = FaultPlan(outages=(OutageFault(1),))
        assert coerce_fault_plan(plan) is plan
        parsed = coerce_fault_plan("down:1", seed=7)
        assert parsed.outages == (OutageFault(1, 0.0, math.inf),)
        assert parsed.seed == 7
        with pytest.raises(TypeError, match="FaultPlan or a spec string"):
            coerce_fault_plan(42)


# --------------------------------------------------------------------------- #
# Injector determinism
# --------------------------------------------------------------------------- #
class TestFaultInjector:
    def test_slowdown_windows_multiply(self):
        injector = FaultInjector(
            FaultPlan(
                slowdowns=(
                    SlowdownFault(0, 4.0, 0.0, 100.0),
                    SlowdownFault(0, 2.0, 50.0, 200.0),
                )
            )
        )
        assert injector.slowdown(0, 0.0) == 4.0  # first window only
        assert injector.slowdown(0, 50.0) == 8.0  # overlap multiplies
        assert injector.slowdown(0, 100.0) == 2.0  # end is exclusive
        assert injector.slowdown(0, 200.0) == 1.0
        assert injector.slowdown(1, 50.0) == 1.0  # other nodes untouched

    def test_outage_window_edges(self):
        injector = FaultInjector(FaultPlan(outages=(OutageFault(3, 10.0, 20.0),)))
        assert not injector.is_down(3, 9.999)
        assert injector.is_down(3, 10.0)  # start inclusive
        assert not injector.is_down(3, 20.0)  # end exclusive
        assert not injector.is_down(2, 15.0)

    def test_transient_coin_is_a_pure_function(self):
        plan = FaultPlan(transients=(TransientFault(1, 0.0, 1000.0, 0.5),))
        first, second = FaultInjector(plan), FaultInjector(plan)
        verdicts = [
            first.transient_fails(1, 0.0, "sig", shard, attempt)
            for shard in range(4)
            for attempt in range(4)
        ]
        replayed = [
            second.transient_fails(1, 0.0, "sig", shard, attempt)
            for shard in range(4)
            for attempt in range(4)
        ]
        assert verdicts == replayed  # no mutable state, ever
        assert any(verdicts) and not all(verdicts)  # the coin actually flips

    def test_certain_transients_respect_the_window(self):
        injector = FaultInjector(
            FaultPlan(transients=(TransientFault(1, 0.0, 220.0),))
        )
        assert injector.transient_fails(1, 0.0, "sig", 0, 0)
        assert not injector.transient_fails(1, 250.0, "sig", 0, 1)
        assert not injector.transient_fails(0, 0.0, "sig", 0, 0)

    def test_crash_after(self):
        assert FaultInjector(FaultPlan()).crash_after is None
        assert FaultInjector(FaultPlan(crash=WorkerCrashFault(5))).crash_after == 5


# --------------------------------------------------------------------------- #
# Retry constants
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_doubles_until_the_cap(self):
        assert (BACKOFF_BASE_NS, BACKOFF_CAP_NS) == (50.0, 800.0)
        assert [backoff_ns(k) for k in range(6)] == [
            50.0,
            100.0,
            200.0,
            400.0,
            800.0,
            800.0,
        ]


# --------------------------------------------------------------------------- #
# Circuit breaker state machine
# --------------------------------------------------------------------------- #
def _open(breaker: CircuitBreaker, at: float) -> CircuitBreaker:
    """Record :data:`BREAKER_THRESHOLD` consecutive failures at ``at``."""
    for _ in range(BREAKER_THRESHOLD):
        breaker.record_failure(at)
    return breaker


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker()
        for now in range(BREAKER_THRESHOLD - 1):
            breaker.record_failure(float(now))
            assert breaker.state == "closed"
        breaker.record_failure(10.0)
        assert breaker.state == "open"
        assert not breaker.allow(10.0)
        assert not breaker.allow(10.0 + BREAKER_RESET_NS - 0.1)  # window not elapsed

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker()
        for now in range(BREAKER_THRESHOLD - 1):
            breaker.record_failure(float(now))
        breaker.record_success(10.0)
        for now in range(BREAKER_THRESHOLD - 1):
            breaker.record_failure(11.0 + now)
        assert breaker.state == "closed"  # streak restarted after success

    def test_half_open_probe_closes_on_success(self):
        breaker = _open(CircuitBreaker(), 0.0)
        assert breaker.state == "open"
        assert breaker.allow(BREAKER_RESET_NS)  # the single half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow(BREAKER_RESET_NS)  # probe already in flight
        breaker.record_success(BREAKER_RESET_NS + 50.0)
        assert breaker.state == "closed"
        assert breaker.allow(BREAKER_RESET_NS + 50.0)

    def test_half_open_probe_failure_reopens_with_a_fresh_window(self):
        breaker = _open(CircuitBreaker(), 0.0)
        assert breaker.allow(BREAKER_RESET_NS)
        probe_failed = BREAKER_RESET_NS + 20.0
        breaker.record_failure(probe_failed)  # one failure re-opens it
        assert breaker.state == "open"
        assert not breaker.allow(probe_failed + BREAKER_RESET_NS - 0.1)
        assert breaker.allow(probe_failed + BREAKER_RESET_NS)  # restarted at the probe

    def test_node_breakers_gate_and_observe(self):
        breakers = NodeBreakers()
        assert breakers.gate([0, 1], 0.0) == {0: True, 1: True}
        assert breakers.state(7) == "closed"  # untouched nodes default closed
        breakers.observe([(1, False)] * BREAKER_THRESHOLD + [(0, True)], 10.0)
        assert breakers.state(1) == "open"
        assert breakers.gate([0, 1], 10.0) == {0: True, 1: False}
        assert breakers.gate([1], 10.0 + BREAKER_RESET_NS) == {1: True}  # half-open probe
        breakers.observe([(1, True)], 11.0 + BREAKER_RESET_NS)
        assert breakers.state(1) == "closed"


# --------------------------------------------------------------------------- #
# The attempt walk
# --------------------------------------------------------------------------- #
class TestScheduleTask:
    def test_fault_free_single_attempt(self):
        schedule = schedule_task(0, (0,), 1000.0, 0.0, "q", None)
        assert schedule.ok
        assert schedule.cost_ns == 1000.0
        assert schedule.retries == 0
        assert schedule.replica == 0
        assert schedule.outcomes == ((0, True),)

    def test_a_straggler_is_charged_its_slowdown(self):
        injector = FaultInjector(FaultPlan(slowdowns=(SlowdownFault(0, 8.0),)))
        schedule = schedule_task(0, (0, 1), 1000.0, 0.0, "q", injector)
        assert schedule.ok and schedule.retries == 0 and schedule.replica == 0
        assert schedule.cost_ns == 8000.0

    def test_transient_retry_timeline(self):
        injector = FaultInjector(
            FaultPlan(transients=(TransientFault(0, 0.0, 220.0),))
        )
        schedule = schedule_task(0, (0,), 100.0, 0.0, "q", injector)
        assert schedule.ok and schedule.retries == 1
        first, second = schedule.attempts
        assert first.outcome == "transient"
        assert first.cost_ns == TRANSIENT_FAILURE_COST_NS
        assert first.backoff_ns == 50.0
        assert second.ok
        # transient 200 + backoff 50 puts the retry at t=250, past the window.
        assert schedule.cost_ns == 200.0 + 50.0 + 100.0

    def test_transient_window_outlasting_every_attempt_loses_the_task(self):
        injector = FaultInjector(
            FaultPlan(transients=(TransientFault(0, 0.0, 100_000.0),))
        )
        schedule = schedule_task(0, (0,), 100.0, 0.0, "q", injector)
        assert not schedule.ok and schedule.replica is None
        assert schedule.outcomes == ((0, False),) * MAX_ATTEMPTS
        # Every attempt fails, with backoff 50/100/200 (none after the last).
        assert schedule.cost_ns == MAX_ATTEMPTS * 200.0 + (50.0 + 100.0 + 200.0)

    def test_outage_fails_over_to_the_replica(self):
        injector = FaultInjector(FaultPlan(outages=(OutageFault(2),)))
        schedule = schedule_task(2, (2, 3), 100.0, 0.0, "q", injector)
        assert schedule.ok and schedule.replica == 1
        first, second = schedule.attempts
        assert first.outcome == "outage"
        assert first.cost_ns == OUTAGE_DETECT_COST_NS
        assert second.node == 3
        assert schedule.cost_ns == 50.0 + 50.0 + 100.0

    def test_open_breaker_fast_fails_to_the_next_replica(self):
        schedule = schedule_task(
            0,
            (0, 1),
            100.0,
            0.0,
            "q",
            FaultInjector(FaultPlan()),
            gate={0: False, 1: True},
        )
        assert schedule.ok
        first, second = schedule.attempts
        assert first.outcome == "breaker_open"
        assert first.cost_ns == BREAKER_FAST_FAIL_COST_NS
        assert second.node == 1

    def test_last_attempt_runs_despite_an_open_breaker(self):
        schedule = schedule_task(
            0, (0,), 100.0, 0.0, "q", FaultInjector(FaultPlan()), gate={0: False}
        )
        # Last-resort rule: every attempt before the last fails fast on the
        # open breaker, and the final one always runs.
        assert schedule.ok and len(schedule.attempts) == MAX_ATTEMPTS
        assert [a.outcome for a in schedule.attempts] == (
            ["breaker_open"] * (MAX_ATTEMPTS - 1) + ["ok"]
        )

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ValueError, match="at least one replica"):
            schedule_task(0, (), 100.0, 0.0, "q", None)


# --------------------------------------------------------------------------- #
# Replication on the sharded catalog
# --------------------------------------------------------------------------- #
class TestReplication:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"replication_factor": 0}, "replication_factor"),
            ({"replication_factor": -1}, "replication_factor"),
            ({"replication_factor": 1.5}, "replication_factor"),
            ({"replication_factor": "2"}, "replication_factor"),
            ({"replication_factor": 5}, "exceeds num_shards"),
        ],
    )
    def test_invalid_replication_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ShardedDatabase(num_shards=4, **kwargs)

    def test_replica_placement_rotates_across_nodes(self):
        database = shard_database(
            workload_database(num_vertices=30, num_edges=120, seed=3),
            4,
            replication_factor=2,
        )
        assert database.replica_nodes("E", 1) == (1, 2)
        assert database.replica_nodes("E", 3) == (3, 0)  # wraps around
        assert "replication x2" in database.describe()

    def test_replica_holds_the_primary_fragment_bytes(self):
        database = shard_database(
            workload_database(num_vertices=30, num_edges=120, seed=3),
            4,
            replication_factor=2,
        )
        for shard in range(4):
            primary = database.shard_relation("E", shard)
            replica = database.shard_replica_database("E", shard, 1).relation("E")
            assert list(replica) == list(primary)

    def test_inserts_propagate_to_replicas(self):
        database = shard_database(
            workload_database(num_vertices=30, num_edges=120, seed=3),
            4,
            replication_factor=2,
        )
        database.insert_into("E", [(1001, 1002), (1003, 1004)])
        inserted = 0
        for shard in range(4):
            primary = database.shard_relation("E", shard)
            replica = database.shard_replica_database("E", shard, 1).relation("E")
            rows = list(primary)
            inserted += sum(1 for row in rows if row[0] >= 1001)
            assert list(replica) == rows
        assert inserted == 2  # the new rows actually landed somewhere

    def test_small_relation_fragments_are_replicated_too(self):
        # One row over four shards: three fragments are empty, and each
        # still has a replica that later inserts keep in step.
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema

        database = ShardedDatabase(num_shards=4, replication_factor=2)
        database.add_relation(Relation("S", Schema(("a", "b")), [(1, 2)]))
        assert sum(database.shard_cardinalities("S")) == 1
        assert database.replica_nodes("S", 2) == (2, 3)
        partitioner = database.partitioner_for("S")
        empty = next(s for s in range(4) if database.shard_cardinalities("S")[s] == 0)
        row = next((v, v) for v in range(100, 10_000) if partitioner.shard_of(v) == empty)
        assert database.insert_into("S", [row]) == 1
        for shard in range(4):
            primary = database.shard_relation("S", shard)
            replica = database.shard_replica_database("S", shard, 1).relation("S")
            assert list(replica) == list(primary)
        assert row in database.shard_relation("S", empty)

    def test_unknown_replica_index_rejected(self):
        database = shard_database(
            workload_database(num_vertices=30, num_edges=120, seed=3), 4
        )
        with pytest.raises(ValueError, match="no replica 1"):
            database.shard_replica_database("E", 0, 1)


# --------------------------------------------------------------------------- #
# Sync-session equivalence: faults must not change answers
# --------------------------------------------------------------------------- #
def _session(faults=None, **kwargs) -> Session:
    database = workload_database(num_vertices=40, num_edges=200, seed=5)
    return Session(
        database, engines=("lftj",), shards=4, faults=faults, **kwargs
    )


class TestSessionFaultEquivalence:
    def test_transient_faults_are_invisible_in_every_observable(self):
        query = pattern_query("cycle3", "E")
        with _session() as clean, _session(faults=TRANSIENT) as faulty:
            baseline = clean.execute(query)
            recovered = faulty.execute(query)
            assert recovered.tuples == baseline.tuples
            assert recovered.stats == baseline.stats
            assert not recovered.degraded and recovered.missing_shards == ()
            assert recovered.shard_stats.retries > 0  # the fault actually bit
            # The repeat is a cache hit in both sessions: identical counters.
            clean.execute(query), faulty.execute(query)
            assert (
                faulty.result_cache.stats.as_dict()
                == clean.result_cache.stats.as_dict()
            )

    def test_replicas_cover_a_permanent_outage(self):
        query = pattern_query("cycle3", "E")
        with _session() as clean, _session(
            faults="down:2", replication_factor=2, on_shard_loss="partial"
        ) as faulty:
            baseline = clean.execute(query)
            survived = faulty.execute(query)
            assert survived.tuples == baseline.tuples
            assert not survived.degraded
            assert survived.shard_stats.retries > 0

    def test_partial_mode_degrades_and_never_caches(self):
        query = pattern_query("cycle3", "E")
        with _session() as clean, _session(
            faults="down:2", on_shard_loss="partial"
        ) as faulty:
            baseline = clean.execute(query)
            degraded = faulty.execute(query)
            assert degraded.degraded and degraded.missing_shards == (2,)
            assert set(degraded.tuples) <= set(baseline.tuples)
            # Never cached as a complete answer: the repeat recomputes and
            # degrades identically.
            assert faulty.result_cache.stats.as_dict()["insertions"] == 0
            repeat = faulty.execute(query)
            assert repeat.degraded and repeat.tuples == degraded.tuples

    def test_fail_mode_raises_a_typed_error(self):
        query = pattern_query("cycle3", "E")
        with _session(faults="down:2") as faulty:
            with pytest.raises(ShardUnavailableError) as excinfo:
                # ResultSet is lazy; forcing the tuples runs the fan-out.
                faulty.execute(query).tuples
        assert excinfo.value.shards == (2,)
        assert "on_shard_loss='partial'" in str(excinfo.value)

    def test_partial_answer_is_exactly_the_surviving_union(self):
        """The degraded result is the union of surviving fragments, nothing
        else — pinned against per-shard partials collected fault-free."""
        database = shard_database(
            workload_database(num_vertices=40, num_edges=200, seed=5), 4
        )
        engine = create_engine("lftj")
        query = pattern_query("path3", "E")

        collected = []
        clean = ScatterGatherExecutor(database, partial_cache=ResultCache(16))
        clean.execute(query, engine, collect_partials=collected)
        assert len(collected) == 4  # one partial per shard, in shard order

        lossy = ScatterGatherExecutor(
            database,
            injector=FaultInjector(FaultPlan(outages=(OutageFault(2),))),
            on_shard_loss="partial",
        )
        degraded = lossy.execute(query, engine)
        expected = [
            row
            for shard, (_key, tuples, _deps, _query) in enumerate(collected)
            if shard != 2
            for row in tuples
        ]
        assert sorted(degraded.tuples) == sorted(expected)
        assert degraded.missing_shards == (2,)
        assert not degraded.cacheable


# --------------------------------------------------------------------------- #
# Backend equivalence under faults
# --------------------------------------------------------------------------- #
def _fault_snapshot(
    backend,
    workers,
    faults,
    replication: int = 1,
    on_shard_loss: str = "fail",
) -> dict:
    database = shard_database(
        workload_database(num_vertices=50, num_edges=240, seed=5),
        4,
        replication_factor=replication,
    )
    service = QueryService(
        database,
        backends=("lftj", "ctj"),
        max_in_flight=4,
        seed=11,
        backend=backend,
        workers=workers,
        faults=faults,
        on_shard_loss=on_shard_loss,
    )
    spec = WorkloadSpec(num_queries=40, mode="mixed", rename_fraction=0.5)
    try:
        outcomes = run_workload(service, generate_requests(spec, seed=7))
        snapshot = {
            "tuples": {rid: outcome.tuples for rid, outcome in outcomes.items()},
            # Records minus the wall-clock span (the one legitimate delta).
            "records": [
                dataclasses.replace(record, wall_elapsed=None)
                for record in service.metrics.records
            ],
            "plan_stats": service.plan_cache.stats.as_dict(),
            "result_stats": service.result_cache.stats.as_dict(),
            "result_keys": service.result_cache.keys(),
            "admission": service.admission.stats.as_dict(),
            "retries": service.metrics.total().retries,
            "degraded": service.metrics.total().degraded,
        }
        if service.scatter is not None and service.scatter.partial_cache is not None:
            snapshot["partial_stats"] = service.scatter.partial_cache.stats.as_dict()
        return snapshot
    finally:
        service.close()


#: (fault spec, session knobs) sweeps of the backend-equivalence contract.
FAULT_SWEEPS = [
    (TRANSIENT, {}),
    (STRAGGLER, {"replication": 2}),
    ("down:2", {"replication": 2, "on_shard_loss": "partial"}),
    ("down:2", {"on_shard_loss": "partial"}),
]


class TestBackendEquivalenceUnderFaults:
    @pytest.mark.parametrize("repeat", range(REPEATS))
    @pytest.mark.parametrize(
        ("faults", "knobs"),
        FAULT_SWEEPS,
        ids=["flaky", "straggler", "replica", "partial"],
    )
    def test_process_matches_virtual(self, faults, knobs, repeat):
        baseline = _fault_snapshot("virtual", None, faults, **knobs)
        pooled = _fault_snapshot("process", 2, faults, **knobs)
        assert pooled == baseline

    def test_recoverable_faults_leave_observables_byte_identical(self):
        clean = _fault_snapshot("virtual", None, None)
        flaky = _fault_snapshot("virtual", None, TRANSIENT)
        assert flaky["retries"] > 0 and flaky["degraded"] == 0
        assert flaky["tuples"] == clean["tuples"]
        assert flaky["result_keys"] == clean["result_keys"]
        assert flaky["result_stats"] == clean["result_stats"]
        replicated = _fault_snapshot(
            "virtual", None, "down:2", replication=2, on_shard_loss="partial"
        )
        assert replicated["tuples"] == clean["tuples"]
        assert replicated["degraded"] == 0


# --------------------------------------------------------------------------- #
# Service surface: fail mode, records, crash trigger, observability
# --------------------------------------------------------------------------- #
def _service(faults=None, tracer=None, backend=None, workers=None, **kwargs):
    database = shard_database(
        workload_database(num_vertices=40, num_edges=200, seed=5), 4
    )
    return QueryService(
        database,
        backends=("lftj",),
        max_in_flight=4,
        seed=11,
        faults=faults,
        tracer=tracer,
        backend=backend,
        workers=workers,
        **kwargs,
    )


class TestServiceFaultSurface:
    def test_serve_reraises_and_records_the_failure(self):
        service = _service(faults="down:2")
        try:
            with pytest.raises(ShardUnavailableError):
                service.serve(pattern_query("cycle3", "E"))
            assert service.metrics.total().failed == 1
            (record,) = service.metrics.records
            assert record.failed and not record.degraded
            assert "fault tolerance" in service.report()
        finally:
            service.close()

    def test_degraded_requests_flagged_on_records(self):
        service = _service(faults="down:2", on_shard_loss="partial")
        try:
            service.serve(pattern_query("cycle3", "E"))
            (record,) = service.metrics.records
            assert record.degraded and not record.failed
            assert service.metrics.total().degraded == 1
        finally:
            service.close()

    def test_fault_free_report_has_no_fault_lines(self):
        service = _service()
        try:
            service.serve(pattern_query("cycle3", "E"))
            report = service.report()
            assert "fault tolerance" not in report
            assert "inline fallbacks" not in report
        finally:
            service.close()

    def test_fault_events_metrics_family(self):
        service = _service(faults=TRANSIENT)
        try:
            outcomes = run_workload(
                service,
                generate_requests(
                    WorkloadSpec(num_queries=12, mode="mixed"), seed=7
                ),
            )
            assert outcomes
            rendered = service.exposition()
            assert 'fault_events_total{kind="retry"}' in rendered
        finally:
            service.close()

    def test_worker_crash_trigger_falls_back_inline_once_warned(self):
        clean = _service()
        try:
            expected = run_workload(
                clean,
                generate_requests(
                    WorkloadSpec(num_queries=16, mode="mixed"), seed=7
                ),
            )
        finally:
            clean.close()

        service = _service(faults="crash:3", backend="process", workers=2)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes = run_workload(
                    service,
                    generate_requests(
                        WorkloadSpec(num_queries=16, mode="mixed"), seed=7
                    ),
                )
            broken = [
                w for w in caught if issubclass(w.category, ProcessPoolBrokenWarning)
            ]
            assert len(broken) == 1  # warned exactly once per runner
            # Results are unchanged; only the offload is lost — and counted.
            assert {rid: o.tuples for rid, o in outcomes.items()} == {
                rid: o.tuples for rid, o in expected.items()
            }
            assert service.execution_backend.inline_fallbacks > 0
            assert (
                service.metrics.inline_fallbacks
                == service.execution_backend.inline_fallbacks
            )
            assert "inline fallbacks" in service.report()
        finally:
            service.close()


class TestTraceSummarizeFaults:
    def _trace(self, tmp_path, faults):
        from repro.obs.export import write_jsonl
        from repro.obs.summarize import summarize_trace

        service = _service(faults=faults, tracer=True)
        try:
            run_workload(
                service,
                generate_requests(
                    WorkloadSpec(num_queries=12, mode="mixed"), seed=7
                ),
            )
            path = tmp_path / "trace.jsonl"
            write_jsonl(service.tracer, str(path))
        finally:
            service.close()
        return summarize_trace(str(path))

    def test_fault_section_lists_recovered_queries(self, tmp_path):
        summary = self._trace(tmp_path, TRANSIENT)
        assert "fault tolerance" in summary
        assert "recovered" in summary

    def test_fault_free_trace_has_no_fault_section(self, tmp_path):
        summary = self._trace(tmp_path, None)
        assert "fault tolerance" not in summary

"""Concurrency tests: backend resolution, cache/admission thread safety.

Three layers of pinning:

* **backend resolution**: ``workers > 1`` with no backend named gives the
  process backend (its equivalence with the virtual-time oracle lives in
  ``tests/test_service_process_backend.py``);
* **hammer tests** drive the LRU caches and the admission controller from
  many threads and assert the invariants their locks protect (no corrupted
  ``OrderedDict``, no lost counter updates, no leaked admission slots),
  and eight threads submit to one service while one thread drains it;
* **regression tests** pin the arrival-order contract: equal-time requests
  drain in ``(arrival_time, request_id)`` order, and explicitly back-dated
  arrivals warn (or raise) instead of being silently clamped.

``REPRO_CONCURRENCY_REPEATS`` (CI's concurrency-stress job sets it > 1)
re-runs the seeded hammer cases, so scheduling-dependent races get multiple
chances to surface while the default local run stays fast.
"""

import os
import sys
import threading

import pytest

from repro.api import coerce_statement
from repro.graphs import pattern_query
from repro.service import (
    AdmissionController,
    BackdatedArrivalWarning,
    LRUCache,
    ProcessPoolBackend,
    QueryService,
    ResultCache,
    ServiceMetrics,
    VirtualTimeBackend,
    alpha_rename,
    create_execution_backend,
    workload_database,
)
from repro.service.metrics import QueryRecord

#: Seeded repeats of the stress cases (CI sets this higher).
REPEATS = max(1, int(os.environ.get("REPRO_CONCURRENCY_REPEATS", "1")))


# --------------------------------------------------------------------------- #
# Execution-backend resolution
# --------------------------------------------------------------------------- #
class TestBackendResolution:
    def test_default_is_virtual(self):
        assert isinstance(create_execution_backend(None), VirtualTimeBackend)

    def test_workers_above_one_select_process(self):
        backend = create_execution_backend(None, workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3
        backend.close()

    def test_single_worker_defaults_to_virtual(self):
        assert isinstance(create_execution_backend(None, workers=1), VirtualTimeBackend)

    def test_names_resolve(self):
        assert isinstance(create_execution_backend("virtual"), VirtualTimeBackend)
        backend = create_execution_backend("process", workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        backend.close()

    def test_instances_pass_through(self):
        backend = VirtualTimeBackend()
        assert create_execution_backend(backend) is backend

    @pytest.mark.parametrize("name", ["fibers", "threads"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(KeyError, match="unknown execution backend"):
            create_execution_backend(name)

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)


def _build_database():
    return workload_database(num_vertices=50, num_edges=240, seed=5)


# --------------------------------------------------------------------------- #
# Cache hammer: concurrent get/put/discard must not corrupt the LRU
# --------------------------------------------------------------------------- #
class TestCacheHammer:
    @pytest.mark.parametrize("repeat", range(REPEATS))
    def test_lru_cache_survives_concurrent_mixed_ops(self, repeat):
        cache: LRUCache[int] = LRUCache(capacity=32)
        threads, ops = 8, 400
        errors = []
        barrier = threading.Barrier(threads)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for i in range(ops):
                    key = f"k{(worker_id * 13 + i * 7) % 48}"
                    op = (worker_id + i) % 4
                    if op == 0:
                        cache.put(key, worker_id * ops + i)
                    elif op == 1:
                        cache.get(key)
                    elif op == 2:
                        cache.discard(key)
                    elif key in cache:
                        cache.peek(key)
            except Exception as exc:  # RuntimeError under the old racy dict
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert errors == []
        assert len(cache) <= cache.capacity
        stats = cache.stats
        # No lost updates: every departure is accounted exactly once, so
        # live entries reconcile with the counters.
        assert stats.insertions - (
            stats.evictions + stats.invalidations + stats.clears
        ) == len(cache)
        assert stats.hits <= stats.lookups
        # Lookup counting is atomic: exactly one per get() issued.
        expected_lookups = sum(
            1 for t in range(threads) for i in range(ops) if (t + i) % 4 == 1
        )
        assert stats.lookups == expected_lookups

    @pytest.mark.parametrize("repeat", range(REPEATS))
    def test_result_cache_concurrent_put_and_invalidate(self, repeat):
        from repro.relational.catalog import MutationEvent

        cache = ResultCache(capacity=64)
        threads = 6
        errors = []
        barrier = threading.Barrier(threads)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for i in range(200):
                    key = f"sig{(worker_id + i) % 40}"
                    relation = "EF"[worker_id % 2]
                    if i % 3 == 0:
                        cache.put_result(key, [(i,)], [relation])
                    elif i % 3 == 1:
                        cache.get(key)
                    else:
                        cache.invalidate(MutationEvent(relation, kind="define"))
            except Exception as exc:
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert errors == []
        # The dependency index stays consistent with the entries: every
        # surviving key still resolves its dependencies, every dropped key
        # resolves none.
        for key in cache.keys():
            assert cache.dependencies_of(key) != ()
        assert len(cache) <= cache.capacity

    @pytest.mark.parametrize("repeat", range(REPEATS))
    def test_result_cache_concurrent_patch_and_read(self, repeat):
        # Patches merge into a new stored list: a lost update there drops
        # rows, and a merge racing a read could change a list already
        # handed out.
        cache = ResultCache(capacity=8)
        keys = ("a", "b", "c")
        for key in keys:
            cache.put_result(key, [(-1, -1)], ["E"])
        threads, rounds = 6, 150
        errors, handed_out = [], []
        barrier = threading.Barrier(threads)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for i in range(rounds):
                    key = keys[(worker_id + i) % len(keys)]
                    if worker_id % 2:
                        rows = cache.get(key)
                        handed_out.append((rows, list(rows)))
                    else:
                        cache.patch_result(key, [(worker_id, i), (i, worker_id)])
            except Exception as exc:
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        patchers = [t for t in range(threads) if t % 2 == 0]
        assert cache.stats.patches == len(patchers) * rounds
        for index, key in enumerate(keys):
            expected = {(-1, -1)} | {
                row
                for t in patchers
                for i in range(rounds)
                if (t + i) % len(keys) == index
                for row in ((t, i), (i, t))
            }
            assert cache.peek(key) == sorted(expected)  # no patch was lost
        for rows, snapshot in handed_out:
            assert rows == snapshot == sorted(set(rows))


# --------------------------------------------------------------------------- #
# Admission hammer: slot accounting under concurrent submit/release
# --------------------------------------------------------------------------- #
class TestAdmissionHammer:
    @pytest.mark.parametrize("repeat", range(REPEATS))
    def test_no_slot_leak_under_concurrent_churn(self, repeat):
        admission: AdmissionController[int] = AdmissionController(
            max_in_flight=4, seed=3
        )
        threads = 8
        errors = []
        barrier = threading.Barrier(threads)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for i in range(300):
                    status = admission.submit(worker_id * 1000 + i, "normal")
                    if status == "admitted":
                        admission.release()
                    else:
                        dispatched = admission.next_request()
                        if dispatched is not None:
                            admission.release()
            except Exception as exc:
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert errors == []
        # Drain whatever is still queued; afterwards nothing may be in
        # flight and the counters must reconcile (lost updates under the
        # old unguarded `+=` broke both).
        while admission.next_request() is not None:
            admission.release()
        assert admission.in_flight == 0
        assert admission.queue_depth == 0
        stats = admission.stats
        assert stats.submitted == threads * 300
        assert stats.admitted_immediately + stats.queued + stats.rejected == stats.submitted
        assert stats.dispatched == stats.admitted_immediately + stats.queued
        assert stats.peak_in_flight <= admission.max_in_flight

    @pytest.mark.parametrize("repeat", range(REPEATS))
    def test_shared_statements_under_concurrent_submit_and_drain(self, repeat):
        """Eight submitters share interned statements while one thread drains."""
        database = _build_database()
        service = QueryService(database, backends=("lftj", "ctj"))
        texts = ["path3", "cycle3", "path4", "cycle4"]
        for tag in range(30):
            query = alpha_rename(pattern_query(texts[tag % 4]), tag)
            texts.append(query.to_datalog())
            aliases = [f"e{tag}_{hop}" for hop in range(2 + tag % 2)]  # a path
            texts.append(
                f"SELECT * FROM {', '.join(f'E AS {a}' for a in aliases)} WHERE "
                + " AND ".join(f"{a}.dst = {b}.src" for a, b in zip(aliases, aliases[1:]))
            )
        assert len(set(texts)) == 64
        # The serial run: expected row counts, and a warm statement memo.
        warm = {text: coerce_statement(text) for text in texts}
        expected = {
            text: service.serve(warm[text].resolve(database)).record.result_count
            for text in texts
        }
        submitters, rounds = 8, 50
        submitted, outcomes, errors = {}, {}, []
        done = threading.Event()
        barrier = threading.Barrier(submitters + 1)

        def submitter() -> None:
            try:
                barrier.wait()
                for _round in range(rounds):
                    for text in texts:
                        statement = coerce_statement(text)
                        if statement is not warm[text]:
                            errors.append(f"{text!r} was re-parsed")
                        submitted[service.submit(statement.resolve(database))] = text
            except Exception as exc:
                errors.append(exc)

        def drainer() -> None:
            try:
                barrier.wait()
                while True:
                    last = done.is_set()  # read first: one drain after the end
                    outcomes.update(service.drain())
                    if last:
                        return
            except Exception as exc:
                errors.append(exc)

        pool = [threading.Thread(target=submitter) for _ in range(submitters)]
        draining = threading.Thread(target=drainer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in pool + [draining]:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
            done.set()
            draining.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in pool + [draining])
        assert errors == []
        assert len(submitted) == submitters * rounds * len(texts)
        assert set(outcomes) == set(submitted)
        assert all(
            outcome.record.result_count == expected[submitted[request_id]]
            for request_id, outcome in outcomes.items()
        )
        assert service.metrics.completed == len(texts) + len(submitted)
        assert service.admission.in_flight == 0

    def test_process_drain_leaves_no_slots_held(self):
        """Six requests through two slots on a process pool: none stay held."""
        service = QueryService(
            _build_database(),
            backends=("lftj",),
            max_in_flight=2,
            backend="process",
            workers=3,
        )
        try:
            for index in range(6):
                service.submit(pattern_query("cycle3" if index % 2 else "path3"))
            outcomes = service.drain()
            assert len(outcomes) == 6
            assert service.admission.in_flight == 0
            assert service.admission.queue_depth == 0
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# Arrival-order contract: tie-break and back-dated arrivals
# --------------------------------------------------------------------------- #
class TestArrivalContract:
    def test_equal_time_requests_dispatch_in_request_id_order(self):
        service = QueryService(
            _build_database(), backends=("lftj",), max_in_flight=1
        )
        ids = [
            service.submit(pattern_query("cycle3"), arrival_time=5.0)
            for _ in range(4)
        ]
        service.drain()
        started = sorted(service.metrics.records, key=lambda r: r.start_time)
        assert [r.request_id for r in started] == ids

    def test_backdated_explicit_arrival_warns_and_clamps(self):
        service = QueryService(_build_database(), backends=("lftj",))
        service.serve(pattern_query("cycle3"))  # advances the clock
        assert service.clock > 0.0
        with pytest.warns(BackdatedArrivalWarning, match="never moves backwards"):
            request_id = service.submit(pattern_query("path3"), arrival_time=0.0)
        outcomes = service.drain()
        # Clamped to the persisted clock: virtual time never runs backwards.
        assert outcomes[request_id].record.arrival_time == pytest.approx(
            outcomes[request_id].record.start_time
        )
        assert outcomes[request_id].record.arrival_time >= service.metrics.records[0].finish_time

    def test_service_dated_arrivals_never_warn(self, recwarn):
        """Omitted arrival times mean "now"; clamping them is not an error."""
        service = QueryService(_build_database(), backends=("lftj",))
        service.serve(pattern_query("cycle3"))
        service.submit(pattern_query("path3"))  # service-dated
        service.drain()
        assert not [
            w for w in recwarn.list if issubclass(w.category, BackdatedArrivalWarning)
        ]


# --------------------------------------------------------------------------- #
# Mixed virtual/wall-clock metrics reports
# --------------------------------------------------------------------------- #
def _record(request_id: int, wall_elapsed=None) -> QueryRecord:
    return QueryRecord(
        request_id=request_id,
        query_name="q",
        signature="sig",
        backend="lftj",
        priority="normal",
        arrival_time=0.0,
        start_time=0.0,
        finish_time=10.0,
        service_time=10.0,
        result_count=1,
        result_cache_hit=False,
        plan_cache_hit=False,
        compiled=False,
        wall_elapsed=wall_elapsed,
    )


class TestWallClockMetrics:
    def test_wall_summary_counts_only_measured_records(self):
        metrics = ServiceMetrics()
        metrics.record(_record(0))
        metrics.record(_record(1, wall_elapsed=0.25))
        metrics.record(_record(2, wall_elapsed=0.75))
        summary = metrics.wall_execution_summary()
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(0.5)

    def test_summary_reports_wall_lines_only_when_measured(self):
        virtual_only = ServiceMetrics()
        virtual_only.record(_record(0))
        assert "host execution" not in virtual_only.summary()
        assert "host drain time" not in virtual_only.summary()

        mixed = ServiceMetrics(wall_drain_seconds=2.0)
        mixed.record(_record(0))
        mixed.record(_record(1, wall_elapsed=0.5))
        report = mixed.summary()
        assert "host drain time" in report
        assert "host execution" in report
        # Virtual latency lines are still present alongside.
        assert "latency" in report and "(modelled)" in report

    def test_wall_throughput(self):
        metrics = ServiceMetrics(wall_drain_seconds=4.0)
        for request_id in range(8):
            metrics.record(_record(request_id))
        assert metrics.wall_throughput() == pytest.approx(2.0)
        assert ServiceMetrics().wall_throughput() == 0.0

    def test_wall_summary_empty_contract(self):
        """No records at all -> the documented all-zero summary, no raise."""
        empty = ServiceMetrics().wall_execution_summary()
        assert empty == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_wall_summary_all_unmeasured_is_zero(self):
        """Virtual-only records (wall_elapsed=None) count as unmeasured."""
        metrics = ServiceMetrics()
        for request_id in range(3):
            metrics.record(_record(request_id))
        summary = metrics.wall_execution_summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0 and summary["max"] == 0.0

    def test_measured_executions_total(self):
        metrics = ServiceMetrics()
        assert metrics.total().measured == 0
        metrics.record(_record(0))
        metrics.record(_record(1, wall_elapsed=0.1))
        metrics.record(_record(2, wall_elapsed=0.0))  # zero is still measured
        assert metrics.total().measured == 2

    def test_wall_throughput_degenerate_denominators(self):
        # Records but no wall drain time (pure virtual run): no rate claim.
        virtual_only = ServiceMetrics()
        virtual_only.record(_record(0))
        assert virtual_only.wall_throughput() == 0.0
        # Wall drain time but nothing completed: zero, not a division.
        idle = ServiceMetrics(wall_drain_seconds=3.0)
        assert idle.wall_throughput() == 0.0


class TestBackdatedWarningExport:
    def test_exported_from_service_package(self):
        """The warning is importable from the package root (stable surface)."""
        import repro.service
        from repro.service.service import BackdatedArrivalWarning as defining

        assert repro.service.BackdatedArrivalWarning is defining
        assert BackdatedArrivalWarning is defining
        assert "BackdatedArrivalWarning" in repro.service.__all__

    def test_docstring_states_arrival_order_contract(self):
        assert issubclass(BackdatedArrivalWarning, UserWarning)
        doc = BackdatedArrivalWarning.__doc__
        assert "(arrival_time, request_id)" in doc
        assert "repro.service" in doc  # names its re-export home

"""Tests for the baseline system models (CTJ, EmptyHeaded, Graphicionado, Q100)."""

import json
from pathlib import Path

import pytest
from helpers import edges_database

from repro.baselines import (
    BaselineResult,
    CPUConfig,
    CPUCostModel,
    CTJSoftware,
    EmptyHeadedModel,
    GraphicionadoModel,
    Q100Model,
    VertexProgramEngine,
    WorkloadProfile,
    default_baselines,
)
from repro.eval.harness import DEFAULT_EVAL_SCALE, ExperimentContext
from repro.graphs import PATTERN_NAMES, pattern_query
from repro.joins import NaiveJoin

#: EmptyHeadedModel's estimates for the five Table 1 patterns on the two
#: cheapest datasets of ``ExperimentContext()`` at ``DEFAULT_EVAL_SCALE``, as
#: produced by Generic Join's own recursive walk before it became the plan
#: kernel's ``materialise`` mode.
EMPTYHEADED_GOLDENS = Path(__file__).parent / "data" / "emptyheaded_goldens.json"


class TestCPUCostModel:
    def test_more_work_takes_longer_and_more_energy(self):
        model = CPUCostModel()
        profile = WorkloadProfile()
        small = model.estimate(1_000, 0, 100, profile)
        large = model.estimate(100_000, 0, 100, profile)
        assert large.runtime_ns > small.runtime_ns
        assert large.energy_nj > small.energy_nj
        assert large.dram_accesses >= small.dram_accesses

    def test_higher_miss_fraction_means_more_dram(self):
        model = CPUCostModel()
        cached = model.estimate(100_000, 0, 0, WorkloadProfile(dram_miss_fraction=0.05))
        streaming = model.estimate(100_000, 0, 0, WorkloadProfile(dram_miss_fraction=0.6))
        assert streaming.dram_accesses > cached.dram_accesses
        assert streaming.runtime_ns > cached.runtime_ns

    def test_parallel_efficiency_speeds_things_up(self):
        model = CPUCostModel()
        serial = model.estimate(100_000, 0, 0, WorkloadProfile(parallel_efficiency=1 / 16))
        parallel = model.estimate(100_000, 0, 0, WorkloadProfile(parallel_efficiency=1.0))
        assert serial.runtime_ns > parallel.runtime_ns

    def test_profile_power_overrides_platform_default(self):
        model = CPUCostModel(CPUConfig(active_package_power_w=200.0))
        default_power = model.estimate(10_000, 0, 0, WorkloadProfile())
        low_power = model.estimate(10_000, 0, 0, WorkloadProfile(active_power_w=10.0))
        assert low_power.energy_nj < default_power.energy_nj

    def test_estimate_details_present(self):
        estimate = CPUCostModel().estimate(1000, 500, 30, WorkloadProfile())
        for key in ("touched_elements", "compute_cycles", "runtime_cycles"):
            assert key in estimate.details

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(cycles_per_element=0)
        with pytest.raises(ValueError):
            WorkloadProfile(dram_miss_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadProfile(active_power_w=0.0)
        with pytest.raises(ValueError):
            CPUConfig(num_cores=0)


class TestVertexProgramEngine:
    @pytest.mark.parametrize("query_name", PATTERN_NAMES)
    def test_matches_oracle(self, small_community_db, query_name):
        query = pattern_query(query_name)
        expected = set(NaiveJoin().execute(query, small_community_db).tuples)
        tuples, stats = VertexProgramEngine().run(query, small_community_db)
        assert set(tuples) == expected
        assert stats.supersteps == query.num_atoms

    def test_message_counts_reflect_partial_embeddings(self, small_community_db):
        query = pattern_query("cycle4")
        _tuples, stats = VertexProgramEngine().run(query, small_community_db)
        assert stats.messages_sent > 0
        assert stats.intermediate_results == stats.messages_sent
        assert stats.element_reads > 0
        assert len(stats.frontier_sizes) == query.num_atoms

    def test_closure_edges_become_filters(self, small_community_db):
        """Cyclic queries perform filter supersteps (both endpoints bound)."""
        _tuples, stats = VertexProgramEngine().run(
            pattern_query("cycle3"), small_community_db
        )
        assert stats.filter_checks > 0

    def test_path_queries_have_no_filters(self, small_community_db):
        _tuples, stats = VertexProgramEngine().run(
            pattern_query("path3"), small_community_db
        )
        assert stats.filter_checks == 0

    def test_empty_graph(self):
        database = edges_database([])
        tuples, stats = VertexProgramEngine().run(pattern_query("cycle3"), database)
        assert tuples == []

    def test_non_binary_atom_rejected(self):
        from repro.relational import Atom, ConjunctiveQuery, Database, Relation, Schema

        database = Database("db")
        database.add_relation(Relation("T", Schema(("a", "b", "c")), [(1, 2, 3)]))
        query = ConjunctiveQuery("q", ("a", "b", "c"), [Atom("T", ("a", "b", "c"))])
        with pytest.raises(ValueError):
            VertexProgramEngine().run(query, database)


class TestBaselineSystems:
    @pytest.mark.parametrize(
        "system_cls", [CTJSoftware, EmptyHeadedModel, GraphicionadoModel, Q100Model]
    )
    @pytest.mark.parametrize("query_name", ["path3", "cycle3", "cycle4"])
    def test_result_tuples_match_oracle(self, small_community_db, system_cls, query_name):
        query = pattern_query(query_name)
        expected = set(NaiveJoin().execute(query, small_community_db).tuples)
        result = system_cls().evaluate(query, small_community_db, dataset_name="community")
        assert set(result.tuples) == expected
        assert result.output_tuples == len(expected)
        assert result.dataset_name == "community"

    @pytest.mark.parametrize(
        "system_cls", [CTJSoftware, EmptyHeadedModel, GraphicionadoModel, Q100Model]
    )
    def test_estimates_are_positive_and_consistent(self, small_community_db, system_cls):
        result = system_cls().evaluate(pattern_query("cycle4"), small_community_db)
        assert result.runtime_ns > 0
        assert result.energy_nj > 0
        assert result.dram_accesses > 0
        assert result.runtime_seconds == pytest.approx(result.runtime_ns * 1e-9)
        assert result.energy_joules == pytest.approx(result.energy_nj * 1e-9)
        payload = result.as_dict()
        assert payload["system"] == system_cls.name

    def test_default_baselines_order_and_names(self):
        systems = default_baselines()
        assert [s.name for s in systems] == ["q100", "graphicionado", "emptyheaded", "ctj"]

    def test_scaling_factor_validation(self):
        with pytest.raises(ValueError):
            Q100Model(best_speedup=0)
        with pytest.raises(ValueError):
            Q100Model(best_energy_improvement=0)
        with pytest.raises(ValueError):
            GraphicionadoModel(best_speedup=-1)
        with pytest.raises(ValueError):
            GraphicionadoModel(best_energy_improvement=0)

    def test_accelerator_estimates_scale_from_software_baselines(self, small_community_db):
        query = pattern_query("cycle4")
        q100 = Q100Model().evaluate(query, small_community_db)
        assert q100.details["monetdb_runtime_ns"] == pytest.approx(
            q100.runtime_ns * Q100Model().best_speedup
        )
        graphicionado = GraphicionadoModel().evaluate(query, small_community_db)
        assert graphicionado.details["graphmat_runtime_ns"] == pytest.approx(
            graphicionado.runtime_ns * GraphicionadoModel().best_speedup
        )

    def test_pairwise_systems_report_intermediate_explosion(self, small_community_db):
        """Q100 and Graphicionado carry the intermediate results of their engines."""
        query = pattern_query("clique4")
        ctj = CTJSoftware().evaluate(query, small_community_db)
        q100 = Q100Model().evaluate(query, small_community_db)
        graphicionado = GraphicionadoModel().evaluate(query, small_community_db)
        assert ctj.intermediate_results == 0  # clique4 caches nothing
        assert q100.intermediate_results > 0
        assert graphicionado.intermediate_results > 0

    def test_wcoj_systems_issue_fewer_dram_accesses(self, small_powerlaw_db):
        """The Figure 17 ordering: CTJ <= EmptyHeaded <= Graphicionado/Q100."""
        query = pattern_query("cycle4")
        ctj = CTJSoftware().evaluate(query, small_powerlaw_db)
        emptyheaded = EmptyHeadedModel().evaluate(query, small_powerlaw_db)
        graphicionado = GraphicionadoModel().evaluate(query, small_powerlaw_db)
        q100 = Q100Model().evaluate(query, small_powerlaw_db)
        assert ctj.dram_accesses <= emptyheaded.dram_accesses
        assert emptyheaded.dram_accesses <= q100.dram_accesses
        assert ctj.dram_accesses <= graphicionado.dram_accesses

    def test_emptyheaded_faster_than_ctj(self, small_community_db):
        """The paper reports EmptyHeaded at roughly twice CTJ's speed."""
        query = pattern_query("cycle4")
        ctj = CTJSoftware().evaluate(query, small_community_db)
        emptyheaded = EmptyHeadedModel().evaluate(query, small_community_db)
        assert emptyheaded.runtime_ns < ctj.runtime_ns

    def test_baseline_result_dataclass(self):
        result = BaselineResult(
            system="x",
            query_name="q",
            dataset_name=None,
            runtime_ns=10.0,
            energy_nj=20.0,
            dram_accesses=3,
            intermediate_results=4,
            output_tuples=5,
        )
        assert result.as_dict()["dataset"] is None


class TestEmptyHeadedGolden:
    def test_estimates_match_the_golden(self):
        golden = json.loads(EMPTYHEADED_GOLDENS.read_text())
        assert golden["scale"] == DEFAULT_EVAL_SCALE
        assert golden["queries"] == list(PATTERN_NAMES)
        context = ExperimentContext(datasets=golden["datasets"])
        observed = {}
        for query, dataset in context.workload_grid():
            result = context.run_baseline("emptyheaded", query, dataset)
            observed[f"{query}/{dataset}"] = {
                "runtime_ns": result.runtime_ns,
                "energy_nj": result.energy_nj,
                "dram_accesses": result.dram_accesses,
                "output_tuples": result.output_tuples,
                "details": result.details,
            }
        assert observed == golden["cases"]

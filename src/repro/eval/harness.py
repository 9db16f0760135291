"""Experiment execution context.

The evaluation sweeps (Figures 13-18) repeatedly need the same ingredients:
the synthetic stand-in for each Table 2 dataset at the chosen scale, the
TrieJax run for a (query, dataset) pair, and each baseline's estimate for the
same pair.  :class:`ExperimentContext` builds and memoises all of them so a
whole figure costs each simulation only once, and records the scale/seed so
every reported number is reproducible.

The default scale is deliberately small (1% of the Table 2 node/edge counts)
so that regenerating every figure finishes in seconds on a laptop; pass a
larger ``scale`` for higher-fidelity runs (the paper's own simulations ran
for up to five days per point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines import (
    BaselineResult,
    BaselineSystem,
    CTJSoftware,
    EmptyHeadedModel,
    GraphicionadoModel,
    Q100Model,
)
from repro.core import TrieJaxAccelerator, TrieJaxConfig
from repro.engines import create_engine
from repro.graphs import DATASET_NAMES, PATTERN_NAMES, load_dataset, pattern_query
from repro.joins.base import EngineExecution
from repro.relational.catalog import Database
from repro.util.validation import check_in_range

#: Default evaluation scale: fraction of each Table 2 dataset generated.
DEFAULT_EVAL_SCALE = 0.01

#: Baseline system names in the order the paper's figures list them.
BASELINE_ORDER: Tuple[str, ...] = ("q100", "graphicionado", "emptyheaded", "ctj")


@dataclass
class ExperimentContext:
    """Shared state for one evaluation session.

    Parameters
    ----------
    scale:
        Fraction of the Table 2 dataset sizes to generate (1.0 = full size).
    datasets / queries:
        Subsets of the Table 2 datasets and Table 1 queries to sweep.
    triejax_config:
        Accelerator configuration used for the main comparisons.
    edge_relation:
        Name of the edge relation every pattern query binds.
    """

    scale: float = DEFAULT_EVAL_SCALE
    datasets: Sequence[str] = DATASET_NAMES
    queries: Sequence[str] = PATTERN_NAMES
    triejax_config: TrieJaxConfig = field(default_factory=TrieJaxConfig)
    edge_relation: str = "E"

    def __post_init__(self) -> None:
        check_in_range("scale", self.scale, 1e-6, 1.0)
        self._databases: Dict[str, Database] = {}
        self._triejax_runs: Dict[Tuple[str, str], EngineExecution] = {}
        self._engines: Dict[str, object] = {}
        self._engine_runs: Dict[Tuple[str, str, str], EngineExecution] = {}
        self._baseline_runs: Dict[Tuple[str, str, str], BaselineResult] = {}
        self._baselines: Dict[str, BaselineSystem] = {
            "q100": Q100Model(),
            "graphicionado": GraphicionadoModel(),
            "emptyheaded": EmptyHeadedModel(),
            "ctj": CTJSoftware(),
        }

    # ------------------------------------------------------------------ #
    # Workload construction
    # ------------------------------------------------------------------ #
    def database(self, dataset_name: str) -> Database:
        """The (cached) database holding the dataset's edge relation."""
        if dataset_name not in self._databases:
            graph = load_dataset(dataset_name, scale=self.scale)
            database = Database(dataset_name)
            database.add_relation(graph.to_relation(self.edge_relation))
            self._databases[dataset_name] = database
        return self._databases[dataset_name]

    def query(self, query_name: str):
        """The Table 1 pattern query bound to this context's edge relation."""
        return pattern_query(query_name, self.edge_relation)

    # ------------------------------------------------------------------ #
    # System runs (memoised)
    # ------------------------------------------------------------------ #
    def run_triejax(
        self,
        query_name: str,
        dataset_name: str,
        config: Optional[TrieJaxConfig] = None,
    ) -> EngineExecution:
        """Run TrieJax on (query, dataset); memoised for the default config."""
        if config is None or config is self.triejax_config:
            key = (query_name, dataset_name)
            if key not in self._triejax_runs:
                accelerator = TrieJaxAccelerator(self.triejax_config, dataset_name=dataset_name)
                self._triejax_runs[key] = accelerator.execute(
                    self.query(query_name), self.database(dataset_name)
                )
            return self._triejax_runs[key]
        accelerator = TrieJaxAccelerator(config, dataset_name=dataset_name)
        return accelerator.execute(self.query(query_name), self.database(dataset_name))

    def run_engine(
        self, engine_name: str, query_name: str, dataset_name: str
    ) -> EngineExecution:
        """Run one registry engine on (query, dataset); memoised.

        Engines resolve through the shared registry in
        :mod:`repro.engines`, so the harness exercises exactly the same
        execution paths the CLI and the serving layer expose.
        """
        key = (engine_name, query_name, dataset_name)
        if key not in self._engine_runs:
            if engine_name not in self._engines:
                self._engines[engine_name] = create_engine(engine_name)
            engine = self._engines[engine_name]
            self._engine_runs[key] = engine.execute(
                self.query(query_name), self.database(dataset_name)
            )
        return self._engine_runs[key]

    def run_baseline(
        self, system_name: str, query_name: str, dataset_name: str
    ) -> BaselineResult:
        """Run one baseline model on (query, dataset); memoised."""
        if system_name not in self._baselines:
            raise KeyError(
                f"unknown baseline {system_name!r}; available: {sorted(self._baselines)}"
            )
        key = (system_name, query_name, dataset_name)
        if key not in self._baseline_runs:
            system = self._baselines[system_name]
            self._baseline_runs[key] = system.evaluate(
                self.query(query_name), self.database(dataset_name), dataset_name
            )
        return self._baseline_runs[key]

    def baseline_names(self) -> Tuple[str, ...]:
        return BASELINE_ORDER

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def workload_grid(self) -> List[Tuple[str, str]]:
        """Every (query, dataset) pair this context sweeps, in figure order."""
        return [(query, dataset) for query in self.queries for dataset in self.datasets]

    def describe(self) -> str:
        """One-line provenance string recorded with every experiment result."""
        return (
            f"scale={self.scale} datasets={','.join(self.datasets)} "
            f"queries={','.join(self.queries)} "
            f"threads={self.triejax_config.num_threads} "
            f"mt={self.triejax_config.mt_scheme}"
        )

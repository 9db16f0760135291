"""Common interface of the four baseline system models.

The paper compares TrieJax against two software systems (CTJ and
EmptyHeaded, measured directly on a 16-core Xeon with RAPL energy meters)
and two hardware accelerators (Q100 and Graphicionado, *estimated* by running
their software baselines — MonetDB and GraphMat — and scaling by the best
speedup/energy improvement each accelerator paper reports).

Every baseline model in this package follows the same two-step recipe:

1. execute a real algorithm from :mod:`repro.joins` (or the vertex-programming
   engine in :mod:`repro.baselines.graphicionado`) against the same database
   the accelerator uses, collecting algorithm-level counters; and
2. convert the counters into runtime, energy and main-memory accesses with an
   explicit cost model (:mod:`repro.baselines.cpu_model`), applying the
   published scaling factor when the system is one of the estimated hardware
   accelerators.

The outcome is a :class:`BaselineResult`, the unit the evaluation harness
compares against TrieJax's :class:`~repro.core.stats.RunReport`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


@dataclass
class BaselineResult:
    """Performance estimate of one baseline system on one workload.

    Attributes
    ----------
    system:
        System name (``"ctj"``, ``"emptyheaded"``, ``"graphicionado"``,
        ``"q100"``).
    query_name / dataset_name:
        Workload identification.
    runtime_ns:
        Estimated end-to-end execution time.
    energy_nj:
        Estimated energy (package + DRAM for software systems; scaled
        estimates for the hardware accelerators).
    dram_accesses:
        Estimated main-memory accesses (the Figure 17 metric).
    intermediate_results:
        Materialised intermediate tuples (the Figure 18 metric).
    output_tuples:
        Final result count (must agree across systems; checked by tests).
    tuples:
        The actual output tuples when the underlying engine produced them
        (kept for correctness checks; may be empty for pure cost estimates).
    details:
        Free-form extra numbers (per-phase work counts and the like).
    """

    system: str
    query_name: str
    dataset_name: Optional[str]
    runtime_ns: float
    energy_nj: float
    dram_accesses: int
    intermediate_results: int
    output_tuples: int
    tuples: List[Tuple[int, ...]] = field(default_factory=list)
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def runtime_seconds(self) -> float:
        return self.runtime_ns * 1e-9

    @property
    def energy_joules(self) -> float:
        return self.energy_nj * 1e-9

    def as_dict(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "query": self.query_name,
            "dataset": self.dataset_name,
            "runtime_ns": self.runtime_ns,
            "energy_nj": self.energy_nj,
            "dram_accesses": self.dram_accesses,
            "intermediate_results": self.intermediate_results,
            "output_tuples": self.output_tuples,
        }


class BaselineSystem(abc.ABC):
    """Abstract baseline system model."""

    #: System name used in figures and reports.
    name: str = "baseline"

    @abc.abstractmethod
    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        dataset_name: Optional[str] = None,
    ) -> BaselineResult:
        """Estimate this system's performance on ``query`` over ``database``."""

"""The TrieJax accelerator model — the paper's primary contribution.

The package models the on-die co-processor of Section 3.  Cupid
(``cupid.py``) is the model's one walk of the join: over the plan kernel's
slot tables it narrates the datapath of Figures 9–12 — Midwife's child
expansion, MatchMaker's leapfrog intersection and LUB's binary searches —
as a stream of component operations, and consults the partial-join-result
cache with its insertion buffer.  A multithreaded scheduler arbitrates the
replicated units and the shared memory hierarchy.  The top-level entry
point is :class:`~repro.core.accelerator.TrieJaxAccelerator`.
"""

from repro.core.config import MT_SCHEMES, TrieJaxConfig
from repro.core.operations import COMPONENT_NAMES, Operation, SpawnRequest
from repro.core.pjr_cache import PJRCache, PJRCacheStats
from repro.core.cupid import CupidProgram, Task
from repro.core.scheduler import ComponentUsage, Scheduler, SchedulerReport, ThreadStats
from repro.core.stats import RunReport
from repro.core.accelerator import TrieJaxAccelerator

__all__ = [
    "MT_SCHEMES",
    "TrieJaxConfig",
    "COMPONENT_NAMES",
    "Operation",
    "SpawnRequest",
    "Task",
    "ThreadStats",
    "PJRCache",
    "PJRCacheStats",
    "CupidProgram",
    "ComponentUsage",
    "Scheduler",
    "SchedulerReport",
    "RunReport",
    "TrieJaxAccelerator",
]

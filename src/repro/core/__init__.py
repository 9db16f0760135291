"""The TrieJax accelerator model — the paper's primary contribution.

The package models the on-die co-processor of Section 3 at the component
level: Cupid (join control), MatchMaker (leapfrog intersection), Midwife
(trie child expansion), LUB (binary search / memory access), the partial-
join-result cache with its insertion buffer, per-component thread stores,
and a multithreaded scheduler that arbitrates the replicated units and the
shared memory hierarchy.  The top-level entry point is
:class:`~repro.core.accelerator.TrieJaxAccelerator`.
"""

from repro.core.config import MT_SCHEMES, TrieJaxConfig
from repro.core.operations import COMPONENT_NAMES, Operation, SpawnRequest
from repro.core.thread_state import Task, ThreadStats
from repro.core.pjr_cache import PJRCache, PJRCacheStats
from repro.core.lub import LUBUnit
from repro.core.midwife import MidwifeUnit
from repro.core.matchmaker import MatchMakerUnit, Participant
from repro.core.cupid import CupidProgram
from repro.core.scheduler import ComponentUsage, Scheduler, SchedulerReport
from repro.core.stats import RunReport
from repro.core.accelerator import AcceleratorOutcome, TrieJaxAccelerator

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
    "LUBUnit",
    "MidwifeUnit",
    "MatchMakerUnit",
    "Participant",
    "CupidProgram",
    "ComponentUsage",
    "Scheduler",
    "SchedulerReport",
    "RunReport",
    "AcceleratorOutcome",
    "TrieJaxAccelerator",
]

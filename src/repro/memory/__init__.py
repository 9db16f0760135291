"""Memory-system models: caches, DRAM timing and energy.

These are the substitutes for the paper's Ramulator (DRAM timing), DRAMPower
(DRAM energy) and Cacti (SRAM energy) tool chain — see DESIGN.md for the
substitution rationale.  The TrieJax accelerator model and the baseline cost
models both build on this package so that every system is charged by the same
memory model.
"""

from repro.memory.cache import CacheStats, SetAssociativeCache
from repro.memory.dram import DRAMConfig, DRAMModel, DRAMStats
from repro.memory.energy import EnergyBreakdown, EnergyConstants, EnergyModel
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy

__all__ = [
    "CacheStats",
    "SetAssociativeCache",
    "DRAMConfig",
    "DRAMModel",
    "DRAMStats",
    "EnergyBreakdown",
    "EnergyConstants",
    "EnergyModel",
    "HierarchyConfig",
    "MemoryHierarchy",
]

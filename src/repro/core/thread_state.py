"""Hardware-thread work descriptors and per-thread bookkeeping.

Each TrieJax hardware thread works on a :class:`Task`: "explore the join
search space from depth ``depth`` given this partial binding and these trie
cursor positions".  Tasks are what the dynamic multithreading scheme passes
between threads — when Cupid finds a match and spare thread capacity exists,
it packages the *remaining* matches of the current level into a new task and
hands it to the scheduler (Section 3.4, Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Task:
    """A unit of join work assignable to a hardware thread.

    Attributes
    ----------
    depth:
        Variable depth at which exploration (re)starts.
    binding:
        Values of the variables bound at depths ``< depth``.
    positions:
        Per-trie cursor positions (node index per level) consistent with
        ``binding``; keyed by trie key.
    pending_matches:
        When not ``None``, the matches of the variable at ``depth`` that this
        task should iterate (each one a ``(value, {trie_key: index})`` pair).
        This is how a thread hands "everything after my current match" to a
        sibling thread without the sibling recomputing the leapfrog.  When
        ``None``, the task computes the matches itself.
    """

    depth: int
    binding: Dict[str, int] = field(default_factory=dict)
    positions: Dict[str, List[int]] = field(default_factory=dict)
    pending_matches: Optional[List[Tuple[int, Dict[str, int]]]] = None

    def clone_context(self) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
        """Deep-copy the binding/positions for a spawned task."""
        return dict(self.binding), {key: list(pos) for key, pos in self.positions.items()}

    @property
    def is_replay(self) -> bool:
        """True when the task replays pre-computed matches rather than searching."""
        return self.pending_matches is not None


@dataclass
class ThreadStats:
    """Per-hardware-thread activity accounting (for the run report)."""

    tasks_executed: int = 0
    operations_issued: int = 0
    busy_cycles: int = 0
    results_emitted: int = 0

"""Cupid: the full-join control unit.

Cupid owns the execution of the whole join (Figure 12): it walks the global
variable order, asks Midwife for the children ranges of the current partial
path, asks MatchMaker for the matches of the current variable, manages
backtracking, consults and fills the partial-join-result cache, emits result
tuples to the streaming write path, and drives the multithreading scheme by
splitting its remaining work onto other hardware threads.

In this model Cupid is a *program factory*: :meth:`CupidProgram.task_generator`
returns a Python generator that narrates the work of one hardware thread
(yielding :class:`~repro.core.operations.Operation` and
:class:`~repro.core.operations.SpawnRequest` records) while computing the
actual join results, so functional correctness and timing come from the same
execution.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import TrieJaxConfig
from repro.core.lub import LUBUnit
from repro.core.matchmaker import MatchMakerUnit, Participant
from repro.core.midwife import MidwifeUnit
from repro.core.operations import Operation, SpawnRequest
from repro.core.pjr_cache import PJRCache
from repro.core.thread_state import Task
from repro.joins.plan import JoinPlan
from repro.relational.layout import MemoryLayout
from repro.relational.trie import TrieIndex

Match = Tuple[int, Dict[str, int]]


class CupidProgram:
    """Generates the per-thread work of one query execution.

    Parameters
    ----------
    plan:
        Compiled join plan (variable order, atom bindings, cache structure).
    tries:
        Trie index per atom trie key.
    layout:
        Address layout of the trie arrays and the result stream.
    config:
        Accelerator configuration.
    pjr_cache:
        The shared partial-join-result cache (may be ignored when the
        configuration disables it).
    """

    def __init__(
        self,
        plan: JoinPlan,
        tries: Dict[str, TrieIndex],
        layout: MemoryLayout,
        config: TrieJaxConfig,
        pjr_cache: PJRCache,
        count_only: bool = False,
    ):
        self.plan = plan
        self.tries = tries
        self.layout = layout
        self.config = config
        self.pjr_cache = pjr_cache
        # Aggregation mode (the paper's Section 5 extension): bindings are
        # counted by Cupid and never streamed to memory.
        self.count_only = count_only
        self.result_count = 0
        self.lub = LUBUnit(config, layout)
        self.midwife = MidwifeUnit(config, layout)
        self.matchmaker = MatchMakerUnit(config, self.lub)
        # Shared outputs of the whole run (appended to by every thread).
        self.results: List[Tuple[int, ...]] = []
        self._result_region = layout.result_region()
        self._result_cursor = 0
        self._result_bytes_per_tuple = 4 * len(plan.query.head_variables)

    # ------------------------------------------------------------------ #
    # Task construction
    # ------------------------------------------------------------------ #
    def root_task(self) -> Task:
        """The task that explores the entire search space from depth zero."""
        positions = {
            binding.trie_key: [-1] * binding.depth for binding in self.plan.atom_bindings
        }
        return Task(depth=0, binding={}, positions=positions, pending_matches=None)

    def empty_input(self) -> bool:
        """True when some relation is empty, making the whole join empty."""
        return any(trie.num_tuples == 0 for trie in self.tries.values())

    # ------------------------------------------------------------------ #
    # Thread program
    # ------------------------------------------------------------------ #
    def task_generator(self, task: Task) -> Iterator[object]:
        """Work generator of one hardware thread executing ``task``."""
        # Query/state load: Cupid reads the compiled query structure.
        yield Operation("cupid", self.config.cupid_cycles, tag="task_start")
        binding = dict(task.binding)
        positions = {key: list(pos) for key, pos in task.positions.items()}
        if task.pending_matches is not None:
            variable = self.plan.variable_at(task.depth)
            yield from self._iterate_matches(
                task.depth,
                variable,
                list(task.pending_matches),
                binding,
                positions,
                allow_split=self._dynamic_enabled(),
                cache_context=None,
            )
        else:
            yield from self._explore(task.depth, binding, positions)

    # ------------------------------------------------------------------ #
    # Recursive exploration
    # ------------------------------------------------------------------ #
    def _explore(
        self,
        depth: int,
        binding: Dict[str, int],
        positions: Dict[str, List[int]],
    ) -> Iterator[object]:
        if depth == self.plan.num_variables:
            yield from self._emit(binding)
            return
        variable = self.plan.variable_at(depth)
        cache_spec = (
            self.plan.cache_spec_for(variable) if self.config.enable_pjr_cache else None
        )

        if cache_spec is not None:
            key = (variable, tuple(binding[v] for v in cache_spec.key_variables))
            yield Operation("pjr", self.config.pjr_lookup_cycles, tag="pjr_lookup")
            cached = self.pjr_cache.lookup(key)
            if cached is not None:
                yield from self._replay_cached(depth, variable, cached, binding, positions)
                return
            # Miss: compute the matches, cache them while descending.
            matches = yield from self._find_matches(depth, variable, binding, positions)
            if not matches:
                return
            path_signature = tuple(
                binding[v] for v in self.plan.variable_order[:depth]
            )
            allocated = self.pjr_cache.try_allocate(key, path_signature)
            yield from self._iterate_matches(
                depth,
                variable,
                matches,
                binding,
                positions,
                allow_split=False,
                cache_context=(key, path_signature) if allocated else None,
            )
            if allocated:
                self.pjr_cache.finalize(key, path_signature)
            return

        matches = yield from self._find_matches(depth, variable, binding, positions)
        if not matches:
            return
        if depth == 0:
            yield from self._partition_root(variable, matches, binding, positions)
            return
        yield from self._iterate_matches(
            depth,
            variable,
            matches,
            binding,
            positions,
            allow_split=self._dynamic_enabled(),
            cache_context=None,
        )

    def _iterate_matches(
        self,
        depth: int,
        variable: str,
        matches: List[Match],
        binding: Dict[str, int],
        positions: Dict[str, List[int]],
        allow_split: bool,
        cache_context: Optional[Tuple[Tuple[str, Tuple[int, ...]], Tuple[int, ...]]],
    ) -> Iterator[object]:
        """Process the matches of ``variable`` at ``depth``, possibly splitting work."""
        index = 0
        while index < len(matches):
            remaining = len(matches) - index - 1
            if allow_split and cache_context is None and remaining > 0:
                # Dynamic MT: offer everything after the current match to an
                # idle hardware thread (Section 3.4).
                split_binding = dict(binding)
                split_positions = {k: list(p) for k, p in positions.items()}
                spawn = SpawnRequest(
                    Task(
                        depth=depth,
                        binding=split_binding,
                        positions=split_positions,
                        pending_matches=matches[index + 1 :],
                    ),
                    force=False,
                    cycles=self.config.spawn_cycles,
                )
                accepted = yield spawn
                if accepted:
                    matches = matches[: index + 1]
            value, indexes = matches[index]
            if cache_context is not None:
                key, path_signature = cache_context
                stored = self.pjr_cache.append(key, path_signature, (value, indexes))
                if stored:
                    yield Operation("pjr", self.config.pjr_write_cycles, tag="pjr_write")
                else:
                    # Overflow or ownership loss: stop trying to cache.
                    cache_context = None
            yield from self._descend(depth, variable, value, indexes, binding, positions)
            index += 1

    def _descend(
        self,
        depth: int,
        variable: str,
        value: int,
        indexes: Dict[str, int],
        binding: Dict[str, int],
        positions: Dict[str, List[int]],
    ) -> Iterator[object]:
        yield Operation("cupid", self.config.cupid_cycles, tag="advance")
        binding[variable] = value
        for atom_binding in self.plan.bindings_with(variable):
            level = atom_binding.level_of(variable)
            positions[atom_binding.trie_key][level] = indexes[atom_binding.trie_key]
        yield from self._explore(depth + 1, binding, positions)
        del binding[variable]

    def _replay_cached(
        self,
        depth: int,
        variable: str,
        cached: Sequence[Match],
        binding: Dict[str, int],
        positions: Dict[str, List[int]],
    ) -> Iterator[object]:
        """Reuse a completed PJR entry instead of recomputing the leapfrog."""
        for value, indexes in cached:
            yield Operation("pjr", self.config.pjr_read_cycles, tag="pjr_read")
            yield from self._descend(depth, variable, value, dict(indexes), binding, positions)

    # ------------------------------------------------------------------ #
    # Match computation
    # ------------------------------------------------------------------ #
    def _find_matches(
        self,
        depth: int,
        variable: str,
        binding: Dict[str, int],
        positions: Dict[str, List[int]],
    ) -> Iterator[object]:
        """Build the participant ranges (via Midwife) and leapfrog them (via MatchMaker)."""
        participants: List[Participant] = []
        for atom_binding in self.plan.bindings_with(variable):
            trie = self.tries[atom_binding.trie_key]
            level = atom_binding.level_of(variable)
            if level == 0:
                lo, hi = trie.root_range()
            else:
                parent_index = positions[atom_binding.trie_key][level - 1]
                lo, hi = yield from self.midwife.expand(
                    atom_binding.trie_key, trie, level - 1, parent_index
                )
            if lo >= hi:
                return []
            participants.append(
                Participant(
                    trie_key=atom_binding.trie_key,
                    values=trie.level_values(level),
                    level=level,
                    lo=lo,
                    hi=hi,
                )
            )
        yield Operation("cupid", self.config.cupid_cycles, tag="dispatch_matchmaker")
        matches = yield from self.matchmaker.find_matches(participants)
        return matches

    # ------------------------------------------------------------------ #
    # Root-level work partitioning (static / hybrid MT)
    # ------------------------------------------------------------------ #
    def _partition_root(
        self,
        variable: str,
        matches: List[Match],
        binding: Dict[str, int],
        positions: Dict[str, List[int]],
    ) -> Iterator[object]:
        """Split the first variable's matches across hardware threads.

        * ``static``/``hybrid``: the match list is divided into
          ``num_threads`` contiguous chunks; chunks beyond the first are
          force-queued so every hardware thread starts with a share
          (Figure 8, top).  Hybrid additionally keeps dynamic splitting
          enabled below the root.
        * ``dynamic``: no up-front partitioning — the root matches are
          iterated like any other level and work fans out through on-match
          splitting only.
        """
        scheme = self.config.mt_scheme
        if scheme in ("static", "hybrid") and len(matches) > 1:
            num_chunks = min(self.config.num_threads, len(matches))
            chunk_size = (len(matches) + num_chunks - 1) // num_chunks
            chunks = [
                matches[start : start + chunk_size]
                for start in range(0, len(matches), chunk_size)
            ]
            for chunk in chunks[1:]:
                spawn = SpawnRequest(
                    Task(
                        depth=0,
                        binding=dict(binding),
                        positions={k: list(p) for k, p in positions.items()},
                        pending_matches=chunk,
                    ),
                    force=True,
                    cycles=self.config.spawn_cycles,
                )
                yield spawn
            matches = chunks[0]
        yield from self._iterate_matches(
            0,
            variable,
            matches,
            binding,
            positions,
            allow_split=self._dynamic_enabled(),
            cache_context=None,
        )

    def _dynamic_enabled(self) -> bool:
        return self.config.mt_scheme in ("dynamic", "hybrid") and self.config.num_threads > 1

    # ------------------------------------------------------------------ #
    # Result emission
    # ------------------------------------------------------------------ #
    def _emit(self, binding: Dict[str, int]) -> Iterator[object]:
        """Write one result tuple to the streaming output region (or count it)."""
        self.result_count += 1
        if self.count_only:
            # Aggregation mode: Cupid increments an on-chip counter, nothing
            # is written to memory.
            yield Operation("cupid", self.config.result_emit_cycles, tag="count")
            return
        result = tuple(binding[v] for v in self.plan.query.head_variables)
        self.results.append(result)
        address = self._result_region.base_address + (
            self._result_cursor % max(self._result_region.size_in_bytes, 1)
        )
        self._result_cursor += self._result_bytes_per_tuple
        yield Operation(
            "cupid",
            self.config.result_emit_cycles,
            write_bytes=self._result_bytes_per_tuple,
            write_address=address,
            tag="emit",
        )

"""Cupid: the full-join control unit, and the one walk of the TrieJax model.

Cupid owns the execution of the whole join (Figure 12): it walks the global
variable order, has Midwife read the child ranges of the current partial
path (Figure 11), has MatchMaker leapfrog the ranges with LUB binary
searches (Figures 9 and 10), manages backtracking, consults and fills the
partial-join-result cache, emits result tuples to the streaming write path,
and drives the multithreading scheme by splitting its remaining work onto
other hardware threads.

In this model Cupid is a *program factory*: :meth:`CupidProgram.task_generator`
returns a Python generator that narrates the work of one hardware thread
(yielding :class:`~repro.core.operations.Operation` and
:class:`~repro.core.operations.SpawnRequest` records) while computing the
actual join results, so functional correctness and timing come from the same
execution.  The walk reads the plan kernel's own slot tables
(:func:`~repro.joins.leapfrog.resolve_slot_tables`): bound values are a list
indexed by depth, trie cursors one flat list of
:attr:`~repro.joins.plan.SlotProgram.num_positions` entries, and a match is
``(value, cursors)`` with one cursor per participant of its depth.  Every
address goes through :meth:`~repro.relational.layout.ArrayRegion.address_of`
and its bounds check.

MatchMaker enumerates *all* matches of a variable in one request.  The
hardware interleaves match delivery with Cupid's descent, but the amount of
work (LUB probes, value loads, coordination cycles) is the same; only the
issue order differs, which is within the tolerance of this cycle-approximate
model and is what makes dynamic work splitting straightforward.

PJR cache versus CTJ's software cache.  With the cache on, the model makes
exactly as many PJR lookups as CTJ makes ``cache_lookups`` over the same
plan (``tests/test_model_contracts.py``).  Hits and inserts are *not* equal
even at one thread with an unbounded cache: the model never caches an empty
match list (:meth:`CupidProgram._explore` returns before ``try_allocate``),
while CTJ does, so a key whose matches are empty misses again on every
revisit.  Counterexample: gnu04 at scale 0.01, cycle4, hits 283 vs 363 and
finalized entries 237 vs 1,440.  Only ``hits <= cache_hits`` and
``entries_finalized <= cache_inserts`` hold.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import TrieJaxConfig
from repro.core.operations import Operation, SpawnRequest
from repro.core.pjr_cache import PJRCache
from repro.joins.leapfrog import resolve_slot_tables
from repro.joins.plan import JoinPlan
from repro.relational.catalog import Database
from repro.relational.layout import MemoryLayout

#: A match: the value plus the matched cursor of every participant.
Match = Tuple[int, Tuple[int, ...]]


class Task(NamedTuple):
    """A unit of join work assignable to a hardware thread.

    ``values`` holds the bound value of every depth ``< depth`` and
    ``positions`` the flat trie cursors consistent with them.  When
    ``pending`` is not ``None`` it lists the matches of the variable at
    ``depth`` that this task iterates — how a thread hands "everything
    after my current match" to a sibling thread without the sibling
    recomputing the leapfrog (Section 3.4, Figure 8).  When ``None``, the
    task computes the matches itself.
    """

    depth: int
    values: Tuple[int, ...]
    positions: Tuple[int, ...]
    pending: Optional[Sequence[Match]]


class DepthTable(NamedTuple):
    """What the walk reads at one depth of the variable order.

    ``participants`` holds, per atom binding that mentions ``variable``,
    ``(values, values_region, offsets, offsets_region, parent)``: the level
    values, the parent's child offsets (``None`` at the root level), their
    address regions and the parent cursor's flat position.  ``targets`` are
    the flat positions a match's cursors set; ``key_depths`` the PJR key
    depths, or ``None`` when the depth is not cached.
    """

    variable: str
    participants: tuple
    targets: Tuple[int, ...]
    key_depths: Optional[Tuple[int, ...]]


class CupidProgram:
    """Generates the per-thread work of one query execution.

    Resolves the plan's slot tries once, lays them out in binding order and
    then the result region (so every address is fixed per execution), and
    keeps one :class:`DepthTable` per depth.
    """

    def __init__(
        self,
        plan: JoinPlan,
        database: Database,
        config: TrieJaxConfig,
        pjr_cache: PJRCache,
        count_only: bool = False,
    ):
        self.plan = plan
        self.config = config
        self.pjr_cache = pjr_cache
        # Aggregation mode (the paper's Section 5 extension): bindings are
        # counted by Cupid and never streamed to memory.
        self.count_only = count_only
        self.result_count = 0
        # Shared outputs of the whole run (appended to by every thread).
        self.results: List[Tuple[int, ...]] = []

        program = plan.slot_program()
        slot_tries, depth_tables = resolve_slot_tables(plan, database)
        layout = MemoryLayout()
        for key, trie in dict(zip(program.trie_keys, slot_tries)).items():
            layout.add_trie(key, trie)
        self.result_region = layout.result_region()
        keys = program.trie_keys
        self.tables = []
        for depth_program, arrays, parent_offsets, targets, parents in depth_tables:
            participants = tuple(
                (
                    values,
                    layout.values_region(keys[slot], level),
                    offsets,
                    layout.offsets_region(keys[slot], level - 1) if level else None,
                    parent,
                )
                for (slot, level), values, offsets, parent in zip(
                    depth_program.participants, arrays, parent_offsets, parents
                )
            )
            key_depths = depth_program.cache_key_depths if config.enable_pjr_cache else None
            self.tables.append(
                DepthTable(depth_program.variable, participants, targets, key_depths)
            )
        self._empty = any(trie.num_tuples == 0 for trie in slot_tries)
        self._num_positions = program.num_positions
        self._head_depths = program.head_depths
        self._result_cursor = 0
        self._result_bytes_per_tuple = 4 * len(plan.query.head_variables)
        self._dynamic = config.mt_scheme in ("dynamic", "hybrid") and config.num_threads > 1
        # The operations that carry no address are the same record every time.
        self._task_start = Operation("cupid", config.cupid_cycles, tag="task_start")
        self._advance = Operation("cupid", config.cupid_cycles, tag="advance")
        self._dispatch = Operation("cupid", config.cupid_cycles, tag="dispatch_matchmaker")
        self._count = Operation("cupid", config.result_emit_cycles, tag="count")
        self._match = Operation("matchmaker", config.matchmaker_cycles, tag="match")
        self._seek = Operation("matchmaker", config.matchmaker_cycles, tag="seek")
        self._pjr_lookup = Operation("pjr", config.pjr_lookup_cycles, tag="pjr_lookup")
        self._pjr_read = Operation("pjr", config.pjr_read_cycles, tag="pjr_read")
        self._pjr_write = Operation("pjr", config.pjr_write_cycles, tag="pjr_write")

    # ------------------------------------------------------------------ #
    # Task construction
    # ------------------------------------------------------------------ #
    def root_task(self) -> Task:
        """The task that explores the entire search space from depth zero."""
        return Task(0, (0,) * self.plan.num_variables, (-1,) * self._num_positions, None)

    def empty_input(self) -> bool:
        """True when some relation is empty, making the whole join empty."""
        return self._empty

    # ------------------------------------------------------------------ #
    # Thread program
    # ------------------------------------------------------------------ #
    def task_generator(self, task: Task) -> Iterator[object]:
        """Work generator of one hardware thread executing ``task``."""
        # Query/state load: Cupid reads the compiled query structure.
        yield self._task_start
        values = list(task.values)
        positions = list(task.positions)
        if task.pending is not None:
            yield from self._iterate_matches(
                task.depth, list(task.pending), values, positions, self._dynamic, None
            )
        else:
            yield from self._explore(task.depth, values, positions)

    # ------------------------------------------------------------------ #
    # Recursive exploration
    # ------------------------------------------------------------------ #
    def _explore(self, depth: int, values: List[int], positions: List[int]) -> Iterator[object]:
        if depth == len(self.tables):
            yield from self._emit(values)
            return
        variable, participants, _targets, key_depths = self.tables[depth]

        if key_depths is not None:
            key = (variable, tuple(values[d] for d in key_depths))
            yield self._pjr_lookup
            cached = self.pjr_cache.lookup(key)
            if cached is not None:
                # Reuse a completed PJR entry instead of recomputing the leapfrog.
                for value, cursors in cached:
                    yield self._pjr_read
                    yield from self._descend(depth, value, cursors, values, positions)
                return
            # Miss: compute the matches, cache them while descending.
            matches = yield from self._find_matches(participants, positions)
            if not matches:
                return
            path_signature = tuple(values[:depth])
            allocated = self.pjr_cache.try_allocate(key, path_signature)
            yield from self._iterate_matches(
                depth,
                matches,
                values,
                positions,
                False,
                (key, path_signature) if allocated else None,
            )
            if allocated:
                self.pjr_cache.finalize(key, path_signature)
            return

        matches = yield from self._find_matches(participants, positions)
        if not matches:
            return
        if depth == 0:
            yield from self._partition_root(matches, values, positions)
            return
        yield from self._iterate_matches(depth, matches, values, positions, self._dynamic, None)

    def _iterate_matches(
        self,
        depth: int,
        matches: List[Match],
        values: List[int],
        positions: List[int],
        allow_split: bool,
        cache_context: Optional[Tuple[Tuple[str, Tuple[int, ...]], Tuple[int, ...]]],
    ) -> Iterator[object]:
        """Process the matches at ``depth``, possibly splitting work."""
        index = 0
        while index < len(matches):
            if allow_split and index + 1 < len(matches):
                # Dynamic MT: offer everything after the current match to an
                # idle hardware thread (Section 3.4).
                task = Task(depth, tuple(values), tuple(positions), matches[index + 1 :])
                accepted = yield SpawnRequest(task, force=False, cycles=self.config.spawn_cycles)
                if accepted:
                    matches = matches[: index + 1]
            value, cursors = matches[index]
            if cache_context is not None:
                key, path_signature = cache_context
                if self.pjr_cache.append(key, path_signature, matches[index]):
                    yield self._pjr_write
                else:
                    # Overflow or ownership loss: stop trying to cache.
                    cache_context = None
            yield from self._descend(depth, value, cursors, values, positions)
            index += 1

    def _descend(
        self,
        depth: int,
        value: int,
        cursors: Sequence[int],
        values: List[int],
        positions: List[int],
    ) -> Iterator[object]:
        yield self._advance
        values[depth] = value
        for target, cursor in zip(self.tables[depth].targets, cursors):
            positions[target] = cursor
        yield from self._explore(depth + 1, values, positions)

    # ------------------------------------------------------------------ #
    # Match computation: Midwife, then MatchMaker over LUB
    # ------------------------------------------------------------------ #
    def _find_matches(self, participants, positions: List[int]) -> Iterator[object]:
        """Expand each participant's child range, then intersect the ranges.

        Midwife reads two consecutive child offsets per non-root participant;
        an empty range ends the depth before MatchMaker is dispatched.  One
        participant is a scan with one LUB load per element.  Several are
        leapfrogged align-to-max: a lagging cursor seeks the maximum with a
        LUB binary search (one probe per iteration) and reloads its value;
        a search past the range end ends the intersection.
        """
        arrays, regions, cursors, ends = [], [], [], []
        for values, region, offsets, offsets_region, parent in participants:
            if offsets is None:
                lo, hi = 0, len(values)
            else:
                index = positions[parent]
                addresses = (offsets_region.address_of(index), offsets_region.address_of(index + 1))
                yield Operation(
                    "midwife", self.config.midwife_cycles, addresses, tag="midwife_expand"
                )
                lo, hi = offsets[index], offsets[index + 1]
            if lo >= hi:
                return []
            arrays.append(values)
            regions.append(region)
            cursors.append(lo)
            ends.append(hi)
        yield self._dispatch

        matches = []
        if len(arrays) == 1:
            for position in range(cursors[0], ends[0]):
                yield self._lub(regions[0], position, "lub_load")
                matches.append((arrays[0][position], (position,)))
            return matches
        count = len(arrays)
        current = []
        for i in range(count):
            yield self._lub(regions[i], cursors[i], "lub_load")
            current.append(arrays[i][cursors[i]])
        while True:
            target = max(current)
            if current.count(target) == count:
                yield self._match
                matches.append((target, tuple(cursors)))
                cursors = [cursor + 1 for cursor in cursors]
                if any(cursor >= end for cursor, end in zip(cursors, ends)):
                    return matches
                for i in range(count):
                    yield self._lub(regions[i], cursors[i], "lub_load")
                    current[i] = arrays[i][cursors[i]]
                continue
            for i in range(count):
                if current[i] >= target:
                    continue
                yield self._seek
                values, region = arrays[i], regions[i]
                lo, hi = cursors[i], ends[i]
                while lo < hi:
                    mid = (lo + hi) // 2
                    yield self._lub(region, mid, "lub_probe")
                    if values[mid] < target:
                        lo = mid + 1
                    else:
                        hi = mid
                if lo >= ends[i]:
                    return matches
                cursors[i] = lo
                yield self._lub(region, lo, "lub_load")
                current[i] = values[lo]

    def _lub(self, region, index: int, tag: str) -> Operation:
        """One LUB read of element ``index`` of ``region`` (a probe or a load)."""
        return Operation("lub", self.config.lub_probe_cycles, (region.address_of(index),), tag=tag)

    # ------------------------------------------------------------------ #
    # Root-level work partitioning (static / hybrid MT)
    # ------------------------------------------------------------------ #
    def _partition_root(
        self, matches: List[Match], values: List[int], positions: List[int]
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
        if self.config.mt_scheme in ("static", "hybrid") and len(matches) > 1:
            num_chunks = min(self.config.num_threads, len(matches))
            chunk_size = (len(matches) + num_chunks - 1) // num_chunks
            chunks = [
                matches[start : start + chunk_size]
                for start in range(0, len(matches), chunk_size)
            ]
            for chunk in chunks[1:]:
                task = Task(0, tuple(values), tuple(positions), chunk)
                yield SpawnRequest(task, force=True, cycles=self.config.spawn_cycles)
            matches = chunks[0]
        yield from self._iterate_matches(0, matches, values, positions, self._dynamic, None)

    # ------------------------------------------------------------------ #
    # Result emission
    # ------------------------------------------------------------------ #
    def _emit(self, values: List[int]) -> Iterator[object]:
        """Write one result tuple to the streaming output region (or count it)."""
        self.result_count += 1
        if self.count_only:
            # Aggregation mode: Cupid increments an on-chip counter, nothing
            # is written to memory.
            yield self._count
            return
        self.results.append(tuple(values[d] for d in self._head_depths))
        region = self.result_region
        address = region.base_address + (self._result_cursor % max(region.size_in_bytes, 1))
        self._result_cursor += self._result_bytes_per_tuple
        yield Operation(
            "cupid",
            self.config.result_emit_cycles,
            write_bytes=self._result_bytes_per_tuple,
            write_address=address,
            tag="emit",
        )

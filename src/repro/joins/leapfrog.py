"""LeapFrog TrieJoin (LFTJ) — the worst-case optimal join of Veldhuizen.

LFTJ evaluates a conjunctive query by backtracking over a global variable
order.  For the variable at depth ``d`` it intersects, via *leapfrogging*
lowest-upper-bound searches, the candidate value ranges contributed by every
atom that mentions the variable; each match either extends the current
partial binding one level deeper or, when the deepest level is reached,
emits a result.  LFTJ materialises **no** intermediate results — that is the
property (together with the AGM bound) that makes the algorithm family
attractive for hardware acceleration (paper Section 2.2).

The implementation below is shared with :class:`~repro.joins.ctj.CachedTrieJoin`
(which subclasses it and adds the partial-join-result cache) and mirrors the
structure of the accelerator model: the per-variable candidate ranges are what
Midwife produces, the leapfrog intersection is MatchMaker + LUB, and the
backtracking driver is Cupid.

Hot-path layout: executions run off the plan's
:class:`~repro.joins.plan.SlotProgram` — per-atom state (tries, cursor
positions) is addressed by dense integer slot, never by string trie key — the
backtracking driver is iterative (a stack of per-depth match frames, no
Python recursion), lagging cursors catch up with *galloping* searches from
their current position instead of full-window binary searches, and the
deepest variable is handled in bulk: its whole intersection comes back as one
value sequence (an array slice when a single atom participates) and is
appended to the results with one C-level ``extend`` — no frame, cursor tuple
or call per binding.
:class:`~repro.joins.stats.JoinStats` accounting is unchanged from the
reference implementation: each LUB search still charges the worst-case
binary-search probe count of its window, so the counters the accelerator and
baseline cost models consume stay exactly comparable across engine versions.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.joins.base import JoinEngine, JoinResult
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery
from repro.relational.trie import TrieIndex

#: A single match of one variable: its value plus, per participating atom
#: (in the depth's participant order), the absolute index of the value in
#: that atom's level array.
Match = Tuple[int, Tuple[int, ...]]


def resolve_slot_tables(plan: JoinPlan, database: Database):
    """Resolve a plan's slot program against ``database``'s tries.

    Shared by every slot-compiled execution (LFTJ/CTJ here, Generic Join in
    :mod:`repro.joins.generic_join`).  Returns ``(slot_tries, depth_tables)``:

    * ``slot_tries[slot]`` — the :class:`TrieIndex` of the ``slot``-th atom
      binding, resolved exactly once (the catalog caches builds; bindings
      sharing a trie key share the object);
    * ``depth_tables[d]`` — the tuple ``(depth_program, arrays,
      parent_offsets, position_indexes, parent_indexes)`` the inner loops
      read: per participant its level value array and its parent CSR offsets
      array (``None`` at the root level), plus the flat position indexes of
      the depth's cursors.
    """
    program = plan.slot_program()
    tries_by_key: Dict[str, TrieIndex] = {}
    slot_tries: List[TrieIndex] = []
    for binding in plan.atom_bindings:
        trie = tries_by_key.get(binding.trie_key)
        if trie is None:
            trie = database.trie_for_atom(binding.atom, plan.variable_order)
            tries_by_key[binding.trie_key] = trie
        slot_tries.append(trie)
    depth_tables = []
    for depth_program in program.depths:
        arrays = []
        parent_offsets = []
        for slot, level in depth_program.participants:
            trie = slot_tries[slot]
            arrays.append(trie.level_values(level))
            parent_offsets.append(trie.child_offsets(level - 1) if level > 0 else None)
        depth_tables.append(
            (
                depth_program,
                tuple(arrays),
                tuple(parent_offsets),
                depth_program.position_indexes,
                depth_program.parent_indexes,
            )
        )
    return slot_tries, depth_tables


class LeapfrogTrieJoin(JoinEngine):
    """Plain (cache-less) LeapFrog TrieJoin.

    Parameters
    ----------
    compiler:
        Query compiler used when the caller does not pass a pre-compiled
        plan.  LFTJ ignores any cache specs the plan carries.
    """

    name = "lftj"

    def __init__(self, compiler: Optional[QueryCompiler] = None):
        self.compiler = compiler or QueryCompiler(enable_caching=False)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> JoinResult:
        database.validate_query(query)
        if plan is None:
            plan = self.compiler.compile(query)
        execution = _TrieJoinExecution(plan, database, use_cache=self._uses_cache())
        tuples = execution.execute()
        return JoinResult(query, tuples, execution.stats, plan)

    def _uses_cache(self) -> bool:
        """Whether the execution should honour the plan's cache specs."""
        return False


class _TrieJoinExecution:
    """One LFTJ/CTJ execution: tries, cursor state, counters and (optionally) the cache.

    The execution object is deliberately separate from the engine classes so
    the accelerator model can reuse the exact same functional behaviour while
    layering timing on top.

    All per-atom state is slot-addressed: ``slot_tries[slot]`` is the trie of
    the ``slot``-th atom binding and ``positions`` is one flat list holding
    every slot's per-level cursor (``SlotProgram.position_base[slot] + level``).
    Bound values live in ``binding_values``, indexed by depth in the global
    variable order.
    """

    def __init__(
        self,
        plan: JoinPlan,
        database: Database,
        use_cache: bool,
        materialize: bool = True,
    ):
        self.plan = plan
        self.database = database
        self.use_cache = use_cache
        self.materialize = materialize
        self.stats = JoinStats()
        program = plan.slot_program()
        self.program = program
        self.slot_tries, self._depth_tables = resolve_slot_tables(plan, database)
        self.positions: List[int] = [-1] * program.num_positions
        self.binding_values: List[int] = [0] * plan.num_variables
        self.results: List[Tuple[int, ...]] = []
        # Software partial-join-result cache: (depth, key values) -> what
        # _matches_at returned for them.  Unbounded, like CTJ's use of host
        # memory; the bounded hardware PJR cache lives in repro.core.
        self.cache: Dict[Tuple[int, Tuple[int, ...]], Sequence] = {}
        self._match_counts: List[int] = [0] * plan.num_variables
        self._last = plan.num_variables - 1

    # ------------------------------------------------------------------ #
    # Execution driver
    # ------------------------------------------------------------------ #
    def execute(self) -> List[Tuple[int, ...]]:
        if any(trie.num_tuples == 0 for trie in self.slot_tries):
            # An empty relation makes the whole join empty.
            return []
        self._run()
        order = self.plan.variable_order
        for depth, count in enumerate(self._match_counts):
            if count:
                self.stats.record_match(order[depth], count)
        if self.materialize and not self.plan.query.is_full:
            # Projection queries can repeat head tuples across distinct full
            # bindings; results follow set semantics, so collapse them.
            self.results = list(dict.fromkeys(self.results))
        self.stats.output_tuples = len(self.results)
        return self.results

    def _run(self) -> None:
        """Iterative backtracking: one match-iterator frame per non-leaf depth.

        A frame yields every match of its depth's variable under the current
        prefix binding; exhausting a frame pops back to the parent, whose
        iterator resumes where it left off.  The deepest variable never gets
        a frame: under each match of the depth above it, its whole
        intersection comes back as one value sequence and is emitted in bulk.
        """
        last = self._last
        positions = self.positions
        binding_values = self.binding_values
        match_counts = self._match_counts
        depth_tables = self._depth_tables
        matches_at = self._matches_at
        emit_leaf = self._emit_leaf
        if last == 0:
            values = matches_at(0)
            if values:
                emit_leaf(values)
            return
        stack = [iter(matches_at(0))]
        push = stack.append
        while stack:
            depth = len(stack) - 1
            position_indexes = depth_tables[depth][3]
            above_leaf = depth + 1 == last
            for value, indexes in stack[-1]:
                match_counts[depth] += 1
                binding_values[depth] = value
                for i, index in zip(position_indexes, indexes):
                    positions[i] = index
                if above_leaf:
                    values = matches_at(last)
                    if values:
                        emit_leaf(values)
                    continue
                push(iter(matches_at(depth + 1)))
                break
            else:
                stack.pop()

    def _emit_leaf(self, values: Sequence[int]) -> None:
        """Emit one full binding per (non-empty) leaf value under the current prefix."""
        last = self._last
        self._match_counts[last] += len(values)
        self.stats.bindings_enumerated += len(values)
        if not self.materialize:
            return
        binding_values = self.binding_values
        head_depths = self.program.head_depths
        if last in head_depths:
            self.results.extend(
                zip(*[values if d == last else repeat(binding_values[d]) for d in head_depths])
            )
        else:
            # The leaf variable is projected out: every binding maps to the
            # same head tuple, which the final dedup keeps once.
            self.results.append(tuple([binding_values[d] for d in head_depths]))

    # ------------------------------------------------------------------ #
    # Per-depth matches
    # ------------------------------------------------------------------ #
    def _matches_at(self, depth: int):
        """The matches of ``depth``'s variable: cached replay or a live leapfrog.

        Non-leaf depths get an iterable of :data:`Match`, computed lazily;
        the leaf depth gets the whole value sequence (leaf cursor indexes
        are never read back), which is also what its cache entries hold.
        """
        depth_program = self._depth_tables[depth][0]
        key_depths = depth_program.cache_key_depths if self.use_cache else None
        if key_depths is None:
            return self._intersect(depth)
        binding_values = self.binding_values
        key = (depth, tuple([binding_values[d] for d in key_depths]))
        stats = self.stats
        stats.cache_lookups += 1
        cached = self.cache.get(key)
        if cached is not None:
            stats.cache_hits += 1
            # Reading each cached value and its per-trie indexes replaces the
            # leapfrog recomputation.
            stats.index_element_reads += len(cached) * (
                1 + len(depth_program.participants)
            )
            return cached
        if depth == self._last:
            values = self._intersect(depth)
            self._cache_insert(key, values)
            return values
        return self._fill_cache(key, self._intersect(depth))

    def _fill_cache(self, key, matches: Iterable[Match]) -> Iterator[Match]:
        """Non-leaf miss path: pass matches through while recording the entry."""
        entry: List[Match] = []
        append = entry.append
        try:
            for match in matches:
                append(match)
                yield match
        finally:
            self._cache_insert(key, entry)

    def _cache_insert(self, key, entry: Sequence) -> None:
        """Store a completed entry under ``(depth, key values)`` and charge it."""
        self.cache[key] = entry
        stats = self.stats
        stats.cache_inserts += 1
        stats.intermediate_results += len(entry)
        # A cached value is charged with its per-trie indexes, at every depth.
        width = 1 + len(self._depth_tables[key[0]][0].participants)
        stats.index_element_writes += len(entry) * width

    def _intersect(self, depth: int):
        """Every value of the depth's variable present in all candidate ranges.

        At a non-leaf depth the result is a lazy iterable of :data:`Match`:
        each carries, per participating trie, the absolute index of the
        matched value in that trie's level array (needed to expand the
        children at the next depth and to populate cache entries).  At the
        leaf it is the plain sequence of values — an ``array`` slice when a
        single atom participates.
        """
        _dp, arrays, parent_offsets, _pos_idx, parent_indexes = self._depth_tables[depth]
        positions = self.positions
        leaf = depth == self._last
        k = len(arrays)
        reads = 0
        lubs = 0
        try:
            # Candidate ranges: what the Midwife unit produces (two reads of
            # the child-offsets array per non-root participant).
            cursors: List[int] = []
            ends: List[int] = []
            for i in range(k):
                offsets = parent_offsets[i]
                if offsets is None:
                    lo = 0
                    hi = len(arrays[i])
                else:
                    parent = positions[parent_indexes[i]]
                    lo = offsets[parent]
                    hi = offsets[parent + 1]
                    reads += 2
                if lo >= hi:
                    return ()
                cursors.append(lo)
                ends.append(hi)

            if k == 1:
                # Single participating atom: every value in the range matches.
                lo = cursors[0]
                hi = ends[0]
                reads += hi - lo
                values = arrays[0][lo:hi]
                return values if leaf else zip(values, zip(range(lo, hi)))

            if not leaf:
                return self._leapfrog(arrays, cursors, ends, False)
            if k > 2:
                return list(self._leapfrog(arrays, cursors, ends, True))

            # Two-cursor leaf leapfrog on scalar locals.  arr0 is always the
            # lagging side: the roles swap whenever a seek overshoots, which
            # forgets which cursor is whose — fine at the leaf, where
            # indexes are not reported.  Accounting as in _leapfrog.
            matches: List[int] = []
            arr0, arr1 = arrays
            cur0, cur1 = cursors
            end0, end1 = ends
            reads += 2
            val0 = arr0[cur0]
            val1 = arr1[cur1]
            while True:
                if val0 == val1:
                    matches.append(val0)
                    cur0 += 1
                    cur1 += 1
                    if cur0 >= end0 or cur1 >= end1:
                        return matches
                    reads += 2
                    val0 = arr0[cur0]
                    val1 = arr1[cur1]
                    continue
                if val0 > val1:
                    arr0, arr1 = arr1, arr0
                    cur0, cur1 = cur1, cur0
                    end0, end1 = end1, end0
                    val0, val1 = val1, val0
                lubs += 1
                reads += (end0 - cur0).bit_length()
                step = 1
                prev = cur0
                probe = cur0 + 1
                while probe < end0 and arr0[probe] < val1:
                    prev = probe
                    step += step
                    probe = cur0 + step
                b_lo = prev + 1
                b_hi = probe if probe < end0 else end0
                while b_lo < b_hi:
                    mid = (b_lo + b_hi) >> 1
                    if arr0[mid] < val1:
                        b_lo = mid + 1
                    else:
                        b_hi = mid
                if b_lo == end0:
                    return matches
                cur0 = b_lo
                reads += 1
                val0 = arr0[b_lo]
        finally:
            stats = self.stats
            stats.index_element_reads += reads
            stats.lub_searches += lubs

    def _leapfrog(self, arrays, cursors: List[int], ends: List[int], leaf: bool):
        """K-way leapfrog over the ranges ``[cursors[i], ends[i])`` of ``arrays``.

        Yields a :data:`Match` per common value, or the bare value when
        ``leaf``.  Stats are accumulated in locals and flushed once on
        exhaustion (the ``finally`` also covers generators closed early).
        """
        stats = self.stats
        k = len(arrays)
        reads = k
        lubs = 0
        try:
            vals = [arrays[i][cursors[i]] for i in range(k)]
            # Align-to-max loop: every iteration either emits a match (all
            # cursors agree) or gallops at least one lagging cursor forward,
            # so termination is guaranteed.
            while True:
                max_value = max(vals)
                if min(vals) == max_value:
                    yield max_value if leaf else (max_value, tuple(cursors))
                    # Sibling values within a range are distinct, so the
                    # matched value cannot reappear: advance every cursor.
                    for i in range(k):
                        cursors[i] += 1
                        if cursors[i] >= ends[i]:
                            return
                    for i in range(k):
                        reads += 1
                        vals[i] = arrays[i][cursors[i]]
                    continue
                for i in range(k):
                    if vals[i] < max_value:
                        lubs += 1
                        arr = arrays[i]
                        cursor = cursors[i]
                        end = ends[i]
                        # Accounting is the worst-case binary probe count of
                        # the full window — identical to the reference
                        # implementation and to what the LUB-unit models
                        # charge — while the actual search gallops from the
                        # cursor (same landing position, better locality).
                        reads += (end - cursor).bit_length()
                        step = 1
                        prev = cursor
                        probe = cursor + 1
                        while probe < end and arr[probe] < max_value:
                            prev = probe
                            step += step
                            probe = cursor + step
                        b_lo = prev + 1
                        b_hi = probe if probe < end else end
                        while b_lo < b_hi:
                            mid = (b_lo + b_hi) >> 1
                            if arr[mid] < max_value:
                                b_lo = mid + 1
                            else:
                                b_hi = mid
                        if b_lo == end:
                            return
                        cursors[i] = b_lo
                        reads += 1
                        vals[i] = arr[b_lo]
        finally:
            stats.index_element_reads += reads
            stats.lub_searches += lubs

"""Generic Join — the EmptyHeaded-style worst-case optimal join.

EmptyHeaded (Aberger et al., SIGMOD'16) evaluates conjunctive queries with
*Generic Join*: for each variable in a global order it **materialises** the
full intersection of the candidate sets contributed by the participating
atoms (as a SIMD-friendly set), then iterates over the materialised set and
recurses.  The algorithm is worst-case optimal like LFTJ, but differs in two
ways that matter for the paper's comparison:

* it materialises one intersection buffer per recursion level (ephemeral,
  but it costs memory traffic proportional to the candidate-set sizes rather
  than leapfrog's output-sensitive probing), and
* it parallelises statically over the first variable's value set (the
  "static MT" scheme of Figure 8), which the CPU cost model in
  :mod:`repro.baselines.emptyheaded` exploits.

The implementation reuses the trie indexes of the LFTJ machinery so every
engine sees exactly the same physical data, and — like
:mod:`repro.joins.leapfrog` — executes off the plan's slot program: per-atom
cursor state is addressed by dense integer index, resolved once per
execution.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from repro.joins.base import JoinEngine, JoinResult
from repro.joins.compiler import QueryCompiler
from repro.joins.leapfrog import resolve_slot_tables
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


class GenericJoin(JoinEngine):
    """Materialising (EmptyHeaded-style) worst-case optimal join."""

    name = "generic_join"

    def __init__(self, compiler: Optional[QueryCompiler] = None):
        self.compiler = compiler or QueryCompiler(enable_caching=False)

    def run(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> JoinResult:
        database.validate_query(query)
        if plan is None:
            plan = self.compiler.compile(query)
        execution = _GenericJoinExecution(plan, database)
        tuples = execution.execute()
        return JoinResult(query, tuples, execution.stats, plan)


class _GenericJoinExecution:
    """One Generic Join execution over slot-addressed trie indexes."""

    def __init__(self, plan: JoinPlan, database: Database):
        self.plan = plan
        self.database = database
        self.stats = JoinStats()
        program = plan.slot_program()
        self.program = program
        self.slot_tries, self._depth_tables = resolve_slot_tables(plan, database)
        self.positions: List[int] = [-1] * program.num_positions
        self.binding_values: List[int] = [0] * plan.num_variables
        self.results: List[Tuple[int, ...]] = []

    def execute(self) -> List[Tuple[int, ...]]:
        if any(trie.num_tuples == 0 for trie in self.slot_tries):
            return []
        self._search(0)
        if not self.plan.query.is_full:
            # Projection queries can repeat head tuples; keep set semantics.
            self.results = list(dict.fromkeys(self.results))
        self.stats.output_tuples = len(self.results)
        return self.results

    def _search(self, depth: int) -> None:
        if depth == self.plan.num_variables:
            self.stats.bindings_enumerated += 1
            binding_values = self.binding_values
            self.results.append(
                tuple(binding_values[d] for d in self.program.head_depths)
            )
            return
        matches = self._materialised_intersection(depth)
        if not matches:
            return
        depth_program = self._depth_tables[depth][0]
        self.stats.record_match(depth_program.variable, len(matches))
        position_indexes = depth_program.position_indexes
        positions = self.positions
        binding_values = self.binding_values
        for value, indexes in matches:
            binding_values[depth] = value
            for i, index in zip(position_indexes, indexes):
                positions[i] = index
            self._search(depth + 1)

    def _materialised_intersection(
        self, depth: int
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """Materialise the intersection of every participating candidate range.

        Generic Join scans the smallest candidate set and probes the others
        (binary search per element), materialising the surviving values.
        The materialised buffer is counted as intermediate traffic
        (``index_element_writes``) because EmptyHeaded writes it out as a
        set before recursing.  Matches carry per-participant value indexes in
        the depth's participant order (the order ``position_indexes`` expects).
        """
        _dp, arrays, parent_offsets, _pos_idx, parent_indexes = self._depth_tables[depth]
        positions = self.positions
        stats = self.stats
        k = len(arrays)
        ranges: List[Tuple[int, int]] = []
        for i in range(k):
            offsets = parent_offsets[i]
            if offsets is None:
                lo, hi = 0, len(arrays[i])
            else:
                parent = positions[parent_indexes[i]]
                lo = offsets[parent]
                hi = offsets[parent + 1]
                stats.index_element_reads += 2
            if lo >= hi:
                return []
            ranges.append((lo, hi))

        # Scan the smallest range, probe the rest.
        order = sorted(range(k), key=lambda i: ranges[i][1] - ranges[i][0])
        seed = order[0]
        others = order[1:]
        seed_values = arrays[seed]
        seed_lo, seed_hi = ranges[seed]

        matches: List[Tuple[int, Tuple[int, ...]]] = []
        reads = 0
        writes = 0
        lubs = 0
        indexes = [0] * k
        for position in range(seed_lo, seed_hi):
            reads += 1
            value = seed_values[position]
            indexes[seed] = position
            survived = True
            for i in others:
                values = arrays[i]
                lo, hi = ranges[i]
                lubs += 1
                reads += (hi - lo).bit_length()
                probe = bisect_left(values, value, lo, hi)
                if probe >= hi or values[probe] != value:
                    survived = False
                    break
                indexes[i] = probe
            if survived:
                matches.append((value, tuple(indexes)))
                # Materialising the surviving value into the set buffer.
                writes += 1
        stats.index_element_reads += reads
        stats.index_element_writes += writes
        stats.lub_searches += lubs
        return matches

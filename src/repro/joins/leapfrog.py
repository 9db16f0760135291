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
positions) is addressed by dense integer slot, never by string trie key — and
the backtracking driver is iterative (a stack of per-depth match frames, no
Python recursion).  "Candidate ranges → leapfrog intersection" has one
implementation, the **depth kernel**: a source template instantiated once per
depth *shape* (number of participants, which of them are root-level, leaf or
not; memoised module-wide) as straight-line Python over scalar locals, and
bound by each execution to its depths' arrays (:func:`bind_kernel`).  A
lagging cursor catches up with one C-level ``bisect_left`` over the rest of
its range, on whatever sequence backs the level (``array('q')``, ``list`` or
an mmap/shared-memory ``memoryview``).  The deepest variable is handled in
bulk: its whole intersection comes back as one value sequence (an array slice
when a single atom participates) and is appended to the results with one
C-level ``extend`` — no frame, cursor tuple or call per binding.
:class:`~repro.joins.stats.JoinStats` accounting is the LUB-unit model, not
the implementation, and is unchanged from the reference implementation: each
search charges the worst-case binary-search probe count of its window plus
the landed value, each non-root range two offset reads, so the counters the
accelerator and baseline cost models consume stay exactly comparable across
engine versions.
"""

from __future__ import annotations

import linecache
from bisect import bisect_left
from itertools import repeat
from textwrap import indent
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


#: Per-participant pieces of the depth-kernel source (``{i}`` = participant).
#: Candidate range of a non-root participant: what the Midwife unit produces,
#: two reads of the parent's child-offsets array.  (A root-level participant's
#: range is its whole level array; its end is bound once, outside the kernel.)
_CHILD_RANGE = """\
parent = positions[p{i}]
c{i} = o{i}[parent]
e{i} = o{i}[parent + 1]
reads += 2
"""
#: One LUB search: move a lagging cursor to the first value ``>= m``.  The
#: search is C-level; the charge is the LUB-unit model's — the worst-case
#: binary probe count of the whole remaining window, plus the landed value.
_SEEK = """\
if v{i} < m:
    lubs += 1
    reads += (e{i} - c{i}).bit_length()
    c{i} = bisect_left(a{i}, m, c{i} + 1, e{i})
    if c{i} == e{i}:
        {done}
    reads += 1
    v{i} = a{i}[c{i}]
"""
_KERNEL = """\
def bind(stats, positions, {parameters}):{root_ends}
    def kernel():
        reads = lubs = 0
        try:
{ranges}
            reads += {k}
            {loads}{out}
            while True:
                if {agree}:
                    {emit}
                    # Sibling values are distinct: the matched value cannot
                    # reappear, so every cursor advances.
{advance}
                    reads += {k}
                    {loads}
                    continue
                # Align to the maximum: every lagging cursor seeks to it.
                m = v0
{maximum}
{seeks}
        finally:
            stats.index_element_reads += reads
            stats.lub_searches += lubs
    return kernel
"""

#: ``(roots, leaf) -> bind``: one generated kernel factory per depth shape.
_KERNEL_FACTORIES: Dict[Tuple[Tuple[bool, ...], bool], Callable] = {}


def kernel_source(roots: Sequence[bool], leaf: bool) -> Tuple[str, str]:
    """``(pseudo-filename, source)`` of the depth kernel for one shape.

    A shape is which of the depth's ``k >= 2`` participants are root-level
    (``roots``) and whether the depth is the leaf.  The source is
    straight-line Python over scalar locals — per participant ``i`` its level
    array ``a{i}``, cursor ``c{i}``, range end ``e{i}`` and current value
    ``v{i}`` — defining ``bind(stats, positions, a0.., o{i}, p{i}..)``, which
    returns the kernel bound to one depth's arrays (``o{i}``/``p{i}``: parent
    offsets array and parent position index of each non-root participant).
    The filename names the shape; it is what tracebacks and profiles show.
    """
    ids = range(len(roots))
    done = "return out" if leaf else "return"

    def pieces(width: int, texts: Iterable[str]) -> str:
        return indent("".join(texts), " " * width).rstrip("\n")

    source = _KERNEL.format(
        parameters=", ".join(
            [f"a{i}" for i in ids] + [f"o{i}, p{i}" for i in ids if not roots[i]]
        ),
        root_ends="".join(f"\n    e{i} = len(a{i})" for i in ids if roots[i]),
        k=len(roots),
        ranges=pieces(
            12,
            (
                (f"c{i} = 0\n" if roots[i] else _CHILD_RANGE.format(i=i))
                + f"if c{i} >= e{i}:\n    return{' ()' if leaf else ''}\n"
                for i in ids
            ),
        ),
        loads="; ".join(f"v{i} = a{i}[c{i}]" for i in ids),
        out="\n            out = []" if leaf else "",
        agree=" == ".join(f"v{i}" for i in ids),
        emit="out.append(v0)" if leaf else f"yield v0, ({', '.join(f'c{i}' for i in ids)})",
        advance=pieces(20, (f"c{i} += 1\nif c{i} >= e{i}:\n    {done}\n" for i in ids)),
        maximum=pieces(16, (f"if v{i} > m:\n    m = v{i}\n" for i in ids[1:])),
        seeks=pieces(16, (_SEEK.format(i=i, done=done) for i in ids)),
    )
    name = "<repro.joins.leapfrog kernel k={} roots={} {}>".format(
        len(roots), "".join("01"[root] for root in roots), "leaf" if leaf else "nonleaf"
    )
    return name, source


def bind_kernel(
    arrays: Sequence[Sequence[int]],
    parent_offsets: Sequence[Optional[Sequence[int]]],
    parent_indexes: Sequence[int],
    positions: List[int],
    stats: JoinStats,
    leaf: bool,
) -> Callable[[], Iterable]:
    """Bind one depth's "candidate ranges → leapfrog intersection" callable.

    Each call of the result intersects, under the current ``positions``, the
    candidate ranges of the depth's participants.  At a non-leaf depth it
    returns a lazy iterable of :data:`Match` — each carries, per
    participant, the absolute index of the matched value in that trie's
    level array (needed to expand the children at the next depth and to
    populate cache entries); being lazy, it reads its ranges on the first
    ``next()``.  At the leaf it returns the plain sequence of values.
    Counters are accumulated into ``stats`` (also when a lazy result is
    closed early).
    """
    if len(arrays) == 1:
        return _bind_single(
            arrays[0], parent_offsets[0], parent_indexes[0], positions, stats, leaf
        )
    shape = (tuple(offsets is None for offsets in parent_offsets), leaf)
    bind = _KERNEL_FACTORIES.get(shape)
    if bind is None:
        name, source = kernel_source(*shape)
        # Registered so tracebacks show the generated lines (mtime None: the
        # entry is never checked against the file system).
        linecache.cache[name] = (len(source), None, source.splitlines(True), name)
        namespace = {"bisect_left": bisect_left}
        exec(compile(source, name, "exec"), namespace)
        bind = _KERNEL_FACTORIES[shape] = namespace["bind"]
    children = [
        argument
        for offsets, parent in zip(parent_offsets, parent_indexes)
        if offsets is not None
        for argument in (offsets, parent)
    ]
    return bind(stats, positions, *arrays, *children)


def _bind_single(values, offsets, parent_index, positions, stats, leaf):
    """Single participating atom: every value in its range matches (a slice)."""

    def single():
        if offsets is None:
            lo, hi = 0, len(values)
        else:
            parent = positions[parent_index]
            lo = offsets[parent]
            hi = offsets[parent + 1]
            stats.index_element_reads += 2
        if lo >= hi:
            return ()
        stats.index_element_reads += hi - lo
        matched = values[lo:hi]
        return matched if leaf else zip(matched, zip(range(lo, hi)))

    return single


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
        # One bound kernel per depth.  They live here, never on the plan:
        # plans are pickled to process-pool workers, generated code is not.
        self._kernels = [
            bind_kernel(
                arrays, offsets, parents, self.positions, self.stats, depth == self._last
            )
            for depth, (_dp, arrays, offsets, _pi, parents) in enumerate(self._depth_tables)
        ]

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
            return self._kernels[depth]()
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
            values = self._kernels[depth]()
            self._cache_insert(key, values)
            return values
        return self._fill_cache(key, self._kernels[depth]())

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

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
(which subclasses it and adds the partial-join-result cache) and with
:class:`~repro.joins.generic_join.GenericJoin` (its ``materialise``
intersection mode), and mirrors the structure of the accelerator model: the
per-variable candidate ranges are what Midwife produces, the leapfrog
intersection is MatchMaker + LUB, and the backtracking walk is Cupid.

Hot-path layout: the whole walk of a plan is **one generated function**, the
*plan kernel* — the fixed loop nest the paper specialises into hardware.  It
is instantiated once per plan *shape* (:func:`plan_shape`: per depth the
participants and the enclosing cursor each parent offset reads, the CTJ cache
points, the head depths and the intersection mode; one kernel per shape
module-wide) as straight-line Python over scalar locals.  A plan keeps its
kernel per ``(use_cache, intersection)`` (:attr:`JoinPlan.kernels
<repro.joins.plan.JoinPlan.kernels>`, never pickled) and its parameter
layout in its slot program, so a warm run derives neither: it looks up each
distinct trie once in the catalog — tries are replaced on every insert, so
nothing catalog-dependent is kept — and calls the kernel with their level
arrays (:func:`resolve_slot_tables`).
Depth ``d``'s cursors are the locals depth ``d + 1`` reads its candidate
ranges through; a non-leaf match descends inline (past 18 depths, into a
function nested in the kernel: CPython nests at most 20 blocks per function).
A lagging cursor catches up with one C-level ``bisect_left`` over the rest of
its range, on whatever sequence backs the level: a built level's ``list``,
whose int objects are the relation's own, so a probe, a cursor load or an
emitted row boxes nothing, or an mmap/shared-memory ``memoryview`` of words.
A root-level cursor's range is its whole level, so it first probes the
trie's value→index map (:meth:`~repro.relational.trie.TrieIndex.root_positions`,
passed in by :func:`run_plan`) and bisects only for an absent target.
A single-participant depth is one slice.
The intersection is a template parameter: ``leapfrog`` seeks as above,
``materialise`` (Generic Join) scans the smallest range, probes the others by
bisection and collects the survivors in a list before descending.  Where the
compiler marked a depth cacheable (CTJ), the cache probe is inlined: a miss
fills the entry, then hit and miss replay it through the same loop.  The leaf
appends head tuples, per value inside the intersection or, for a value
sequence (a slice, a cache entry or a materialised list), in bulk.
:class:`~repro.joins.stats.JoinStats` accounting is the LUB-unit model, not
the implementation, and is unchanged from the reference implementation: each
search charges the worst-case binary-search probe count of its window plus
the landed value, each non-root range two offset reads, so the counters the
accelerator and baseline cost models consume stay exactly comparable across
engine versions.  The charges accumulate in locals, flushed in a ``finally``.
"""

from __future__ import annotations

import linecache
from bisect import bisect_left
from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.joins.base import (
    EngineCapabilities,
    EngineExecution,
    EngineProtocol,
    software_cost,
)
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


def resolve_slot_tables(plan: JoinPlan, database: Database):
    """Bind a plan's slot program to ``database``'s current tries.

    Shared by the plan kernel (:func:`run_plan`: LFTJ, CTJ and Generic Join)
    and the TrieJax model's walk (:mod:`repro.core.cupid`).  Returns
    ``(tries, tables)``:

    * ``tries[t]`` — the :class:`TrieIndex` of the plan's ``t``-th distinct
      trie key (:attr:`~repro.joins.plan.SlotProgram.trie_slots`): one
      ``trie_for_atom`` lookup each, on every call, because a catalog
      replaces its tries on every insert;
    * ``tables`` — the plan kernel's parameters in
      :attr:`~repro.joins.plan.SlotProgram.parameters` order: per depth, per
      participant, its level value array and then, below the root level,
      its parent's child offsets array.
    """
    program = plan.slot_program()
    bindings, order = plan.atom_bindings, plan.variable_order
    tries = [database.trie_for_atom(bindings[slot].atom, order) for slot in program.trie_slots]
    tables = [
        tries[trie].child_offsets(level) if offsets else tries[trie].level_values(level)
        for trie, level, offsets in program.parameters
    ]
    return tries, tables


#: A plan's kernel shape: ``(depths, head_depths, intersection)``.
Shape = Tuple[tuple, Tuple[int, ...], str]


def plan_shape(plan: JoinPlan, use_cache: bool, intersection: str = "leapfrog") -> Shape:
    """Everything the plan kernel's code depends on, and nothing else.

    Per depth: each participant's parent cursor as ``(depth, participant)``
    (``None`` at the root level) and the CTJ cache-key depths (``None`` when
    the depth is not cached); then the head depths and the intersection mode
    (``"leapfrog"``, or Generic Join's ``"materialise"``, which runs with no
    cache).  Names of variables and relations are not part of it, so
    α-renamed queries and the delta planner's per-term plans share one
    kernel per shape.
    """
    program = plan.slot_program()
    cursor_of: Dict[int, Tuple[int, int]] = {}
    depths = []
    for depth, depth_program in enumerate(program.depths):
        parents = tuple(cursor_of.get(index) for index in depth_program.parent_indexes)
        for i, index in enumerate(depth_program.position_indexes):
            cursor_of[index] = (depth, i)
        depths.append((parents, depth_program.cache_key_depths if use_cache else None))
    return tuple(depths), program.head_depths, intersection


#: Prologue and epilogue of every plan kernel.  ``sink`` is the result list;
#: the return value is the per-depth match counts.
_KERNEL = """\
def kernel(stats, sink, {parameters}):
    reads = lubs = lookups = hits = inserts = stored = writes = 0
    {counters} = 0
{setup}
    try:
{walk}
    finally:
        stats.index_element_reads += reads
        stats.lub_searches += lubs
        stats.cache_lookups += lookups
        stats.cache_hits += hits
        stats.cache_inserts += inserts
        stats.intermediate_results += stored
        stats.index_element_writes += writes
        stats.bindings_enumerated += n{last}
    return [{counters_list}]
"""
#: One LUB search: move a lagging cursor to the first value ``>= m``.  The
#: search is C-level (at the root level a dict probe first, which lands any
#: present value); the charge is the LUB-unit model's — the worst-case
#: binary probe count of the whole remaining window, plus the landed value.
_SEEK = """\
if v{i} < m:
    lubs += 1
    reads += (e{i} - c{i}).bit_length()
    c{i} = {landed}bisect_left(a{i}, m, c{i} + 1, e{i})
    if c{i} == e{i}:
        break
    reads += 1
    v{i} = a{i}[c{i}]
"""
#: Generic Join's intersection (the ``materialise`` mode): scan the smallest
#: candidate range (the lowest participant on a tie), probe the others in
#: ascending range-size order with one bisection over the whole range each,
#: stopping at the first miss, and materialise the survivors into
#: ``entry{d}`` before iterating it.  The charges are EmptyHeaded's: a read
#: per scanned value, a LUB search and the window's probe count per probe,
#: and a write per materialised survivor.
_SCAN = """\
(_, s, scan, lo, hi, _), *probes = sorted([{ranges}])
reads += {charge}hi - lo
found = [0] * {k}
for cs in range(lo, hi):
    x = scan[cs]
    for _, i, values, start, end, width in probes:
        lubs += 1
        reads += width
        p = bisect_left(values, x, start, end)
        if p == end or values[p] != x:
            break
        found[i] = p
    else:
        found[s] = cs
        entry{d}.append({survivor})
writes += len(entry{d})
"""

#: Depths per generated function.  CPython nests at most 20 blocks (the
#: kernel's ``try`` and one loop per depth), so a deeper plan's loop nest
#: continues in a nested function, ``walk{d}``, every this many depths.
_DEPTHS_PER_FUNCTION = 18

#: ``shape -> kernel``: one generated function per plan shape.
_PLAN_KERNELS: Dict[Shape, Callable] = {}


def _tuple(names: List[str]) -> str:
    return "(" + ", ".join(names) + ("," if len(names) == 1 else "") + ")"


def plan_source(shape: Shape) -> Tuple[str, str]:
    """``(pseudo-filename, source)`` of the plan kernel for one shape.

    Per depth ``d`` and participant ``i`` the locals are its level array
    ``a{d}_{i}`` (a parameter, like the parent offsets ``o{d}_{i}`` of a
    non-root participant and, last, the root-position probe ``r{d}_{i}`` of a
    root one that seeks), cursor ``c{d}_{i}``, range end ``e{d}_{i}`` and
    current value ``v{d}_{i}``; ``x{d}`` is a value replayed from a sequence
    and ``n{d}`` the depth's match count.  Depths from ``d`` on, for ``d`` a
    positive multiple of ``_DEPTHS_PER_FUNCTION``, run in ``walk{d}``: a
    function defined in the kernel, called where depth ``d`` would start
    with the enclosing cursors and values those depths read, its counters
    ``nonlocal``.  The filename names the shape; it is what tracebacks and
    profiles show.
    """
    depths, head, intersection = shape
    materialise = intersection == "materialise"
    last = len(depths) - 1
    # Whether the leaf has a per-value form (else it takes the whole value
    # sequence under one prefix): when the head keeps the leaf variable.
    per_value = last in head
    inline = [
        not materialise and len(parents) > 1 and keys is None and (d < last or per_value)
        for d, (parents, keys) in enumerate(depths)
    ]
    bound = [f"v{d}_0" if inline[d] else f"x{d}" for d in range(len(depths))]
    lines: List[str] = []

    def emit(level: int, *texts: str) -> None:
        lines.extend("    " * level + text for text in texts)

    def leaf_each(level: int) -> None:
        emit(level, f"n{last} += 1", f"append({_tuple([bound[h] for h in head])})")

    def leaf_bulk(level: int, values: str) -> None:
        emit(level, f"n{last} += len({values})")
        if last in head:
            columns = [values if h == last else f"repeat({bound[h]})" for h in head]
            emit(level, f"extend(zip({', '.join(columns)}))")
        else:
            # The leaf variable is projected out: every binding maps to the
            # same head tuple, which the final dedup keeps once.
            emit(level, f"if {values}:", f"    append({_tuple([bound[h] for h in head])})")

    def match(d: int, level: int) -> None:
        if d == last:
            leaf_each(level)
        else:
            emit(level, f"n{d} += 1")
            depth(d + 1, level)

    def produce(d: int, level: int, cached: bool) -> None:
        """Depth ``d``'s candidate ranges and their intersection."""
        parents = depths[d][0]
        ids = range(len(parents))
        a, o, c, e, v = ([f"{p}{d}_{i}" for i in ids] for p in "aocev")
        above = {i: f"c{p[0]}_{p[1]}" for i, p in enumerate(parents) if p is not None}
        if len(ids) == 1:
            # Single participant: every value in its range matches.
            if above:
                emit(level, f"{c[0]} = {o[0]}[{above[0]}]", f"{e[0]} = {o[0]}[{above[0]} + 1]")
                emit(level, f"reads += 2 + {e[0]} - {c[0]}")
            else:
                emit(level, f"{c[0]} = 0", f"reads += {e[0]}")
            if materialise:
                emit(level, f"writes += {e[0]} - {c[0]}")
            values = f"{a[0]}[{c[0]}:{e[0]}]"
            if d < last:
                values = f"enumerate({values}, {c[0]})"
                values = f"list({values})" if cached else values
            emit(level, f"entry{d} = {values}")
            return
        if not inline[d]:
            emit(level, f"entry{d} = []")
        body = level
        if above:
            # Candidate ranges: what Midwife produces, two reads of the
            # parent's child-offsets array each; an empty one ends the depth.
            ranges = " and ".join(
                f"({c[i]} := {o[i]}[{p}]) < ({e[i]} := {o[i]}[{p} + 1])" for i, p in above.items()
            )
            emit(level, f"if {ranges}:")
            body += 1
        emit(body, *(f"{c[i]} = 0" for i in ids if i not in above))
        if materialise:
            ranges = ", ".join(
                f"({e[i]} - {c[i]}, {i}, {a[i]}, {c[i]}, {e[i]}, ({e[i]} - {c[i]}).bit_length())"
                for i in ids
            )
            survivor = "x" if d == last else "(*found, x)"
            charge = f"{2 * len(above)} + " if above else ""
            source = _SCAN.format(ranges=ranges, charge=charge, k=len(ids), d=d, survivor=survivor)
            emit(body, *source.splitlines())
        else:
            loads = "; ".join(f"{v[i]} = {a[i]}[{c[i]}]" for i in ids)
            emit(body, f"reads += {2 * len(above) + len(ids)}", loads, "while True:")
            emit(body + 1, f"if {' == '.join(v)}:")
            if inline[d]:
                match(d, body + 2)
            else:
                emit(body + 2, f"entry{d}.append({v[0] if d == last else _tuple(c + v[:1])})")
            # Sibling values are distinct: the matched value cannot reappear,
            # so every cursor advances.
            for i in ids:
                emit(body + 2, f"{c[i]} += 1", f"if {c[i]} >= {e[i]}:", "    break")
            emit(body + 2, f"reads += {len(ids)}", loads, "continue")
            # Align to the maximum: every lagging cursor seeks to it.
            emit(body + 1, f"m = {v[0]}")
            for i in ids[1:]:
                emit(body + 1, f"if {v[i]} > m:", f"    m = {v[i]}")
            for i in ids:
                # ``a[c] < m``, so a root value's index is past ``c`` as bisect_left's is.
                landed = f"p if (p := r{d}_{i}(m)) is not None else " if i not in above else ""
                emit(body + 1, *_SEEK.format(i=f"{d}_{i}", landed=landed).splitlines())
        if above:
            charge = str(2 * len(above))
            for number, i in reversed(list(enumerate(above))[:-1]):
                charge = f"{2 * number + 2} if {c[i]} >= {e[i]} else {charge}"
            emit(level, "else:", f"    reads += {charge}")

    def inherited(start: int) -> List[str]:
        """The names depths ``>= start`` read from the depths above them."""
        names = [bound[h] for h in head if h < start]
        for parents, keys in depths[start:]:
            names += [f"c{p[0]}_{p[1]}" for p in parents if p is not None and p[0] < start]
            names += [bound[k] for k in keys or () if k < start]
        return list(dict.fromkeys(names))

    def depth(d: int, level: int) -> None:
        if d > start and d % _DEPTHS_PER_FUNCTION == 0:
            emit(level, f"walk{d}({', '.join(inherited(d))})")
            return
        parents, keys = depths[d]
        width = len(parents) + 1  # a cached value is charged with its per-trie indexes
        if keys is not None:
            key = bound[keys[0]] if len(keys) == 1 else _tuple([bound[k] for k in keys])
            emit(level, f"key = {key}", "lookups += 1", f"entry{d} = probe{d}(key)")
            emit(level, f"if entry{d} is None:")
            produce(d, level + 1, cached=True)
            emit(level + 1, f"cache{d}[key] = entry{d}", "inserts += 1")
            emit(level + 1, f"stored += len(entry{d})", f"writes += len(entry{d}) * {width}")
            emit(level, "else:", "    hits += 1", f"    reads += len(entry{d}) * {width}")
        else:
            produce(d, level, cached=False)
            if inline[d]:
                return
        if d == last:
            leaf_bulk(level, f"entry{d}")
        else:
            cursors = "".join(f"c{d}_{i}, " for i in range(len(parents)))
            emit(level, f"for {cursors}x{d} in entry{d}:")
            match(d, level + 1)

    walks = {}
    for start in range(0, len(depths), _DEPTHS_PER_FUNCTION):
        depth(start, 2)
        walks[start] = "\n".join(lines)
        lines.clear()
    emit(1, "append = sink.append", "extend = sink.extend")
    for d, (parents, keys) in enumerate(depths):
        if keys is not None:
            emit(1, f"cache{d} = {{}}", f"probe{d} = cache{d}.get")
        emit(1, *(f"e{d}_{i} = len(a{d}_{i})" for i, p in enumerate(parents) if p is None))
    counters = [f"n{d}" for d in range(len(depths))]
    roots = "".join(
        f", r{d}_{i}" for d, (parents, _keys) in enumerate(depths) if len(parents) > 1
        for i, p in enumerate(parents) if p is None and not materialise
    )
    for start, walk in list(walks.items())[1:]:
        own = counters[start : start + _DEPTHS_PER_FUNCTION]
        emit(1, f"def walk{start}({', '.join(inherited(start))}):")
        emit(2, f"nonlocal reads, lubs, lookups, hits, inserts, stored, writes, {', '.join(own)}")
        lines.append(walk)
    source = _KERNEL.format(
        parameters=", ".join(
            f"a{d}_{i}" + ("" if p is None else f", o{d}_{i}")
            for d, (parents, _keys) in enumerate(depths)
            for i, p in enumerate(parents)
        ) + roots,
        counters=" = ".join(counters),
        setup="\n".join(lines),
        walk=walks[0],
        last=last,
        counters_list=", ".join(counters),
    )
    described = "".join(
        "[" + " ".join("r" if p is None else f"{p[0]}.{p[1]}" for p in parents) + "]"
        + ("" if keys is None else "@" + ",".join(map(str, keys)))
        for parents, keys in depths
    )
    name = "<repro.joins.leapfrog plan {} head={}{}>".format(
        described, ",".join(map(str, head)), " materialise" if materialise else ""
    )
    return name, source


def plan_kernel(shape: Shape) -> Callable:
    """The generated kernel of ``shape`` (compiled on first use, then memoised).

    Its source is registered in :mod:`linecache` under :func:`plan_source`'s
    name (mtime ``None``: never checked against the file system), so
    tracebacks show the generated lines.
    """
    kernel = _PLAN_KERNELS.get(shape)
    if kernel is None:
        name, source = plan_source(shape)
        linecache.cache[name] = (len(source), None, source.splitlines(True), name)
        namespace = {"bisect_left": bisect_left, "repeat": repeat}
        exec(compile(source, name, "exec"), namespace)
        kernel = _PLAN_KERNELS[shape] = namespace["kernel"]
    return kernel


def run_plan(
    plan: JoinPlan, database: Database, use_cache: bool, intersection: str = "leapfrog"
):
    """Run ``plan``'s kernel over ``database``: ``(rows, stats)``.

    The rows are the result tuples (deduplicated, first appearance first,
    when the query projects).  ``use_cache`` honours the plan's CTJ cache
    specs; ``intersection`` is the per-depth intersection mode (see
    :func:`plan_shape`).  The kernel is looked up on the plan
    (:attr:`JoinPlan.kernels <repro.joins.plan.JoinPlan.kernels>`), so a
    warm plan derives no shape; only its tries are resolved per call.  The
    leapfrog kernel also takes the ``.get`` of each root-level seeker's
    :meth:`~repro.relational.trie.TrieIndex.root_positions` map.
    """
    stats = JoinStats()
    sink: List[tuple] = []
    program = plan.slot_program()
    tries, tables = resolve_slot_tables(plan, database)
    # An empty relation makes the whole join empty.
    if all(trie.num_tuples for trie in tries):
        kernel = plan.kernels.get((use_cache, intersection))
        if kernel is None:
            kernel = plan_kernel(plan_shape(plan, use_cache, intersection))
            plan.kernels[use_cache, intersection] = kernel
        if intersection != "materialise":
            tables += [tries[trie].root_positions().get for trie in program.root_seeks]
        counts = kernel(stats, sink, *tables)
        for variable, count in zip(plan.variable_order, counts):
            if count:
                stats.record_match(variable, count)
    if not program.full:
        # Projection queries can repeat head tuples across distinct full
        # bindings; results follow set semantics, so collapse them.
        sink = list(dict.fromkeys(sink))
    stats.output_tuples = len(sink)
    return sink, stats


class LeapfrogTrieJoin(EngineProtocol):
    """Plain (cache-less) LeapFrog TrieJoin.

    CTJ and Generic Join are this engine with other class attributes:
    ``use_cache`` honours the plan's CTJ cache specs and ``intersection``
    picks the plan kernel's per-depth intersection mode.

    Parameters
    ----------
    compiler:
        Query compiler used when the caller does not pass a pre-compiled
        plan.  LFTJ ignores any cache specs the plan carries.
    """

    name = "lftj"
    use_cache = False
    intersection = "leapfrog"
    capabilities = EngineCapabilities(supports_plans=True)

    def __init__(self, compiler: Optional[QueryCompiler] = None):
        self.compiler = compiler or QueryCompiler(enable_caching=self.use_cache)

    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        database.validate_query(query)
        plan_used = plan is not None
        if plan is None:
            plan = self.compiler.compile(query)
        tuples, stats = run_plan(
            plan, database, use_cache=self.use_cache, intersection=self.intersection
        )
        return EngineExecution(
            tuples, software_cost(stats, len(tuples)), plan_used, stats=stats, plan=plan
        )

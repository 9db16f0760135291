"""Join plans produced by the CTJ query compiler.

A :class:`JoinPlan` is the compiled form of a conjunctive query consumed by
every WCOJ engine in the repository (software LFTJ/CTJ and the TrieJax
accelerator).  It fixes three things:

* the **global variable order** (the order in which variables are eliminated,
  Section 2.2.2 "CTJ first orders the variables");
* for every atom, the **trie attribute order** implied by the global order,
  plus which trie level corresponds to which global variable;
* the **cache structure** (Section 2.2.2 / 3.5): which variables are cached
  in the partial-join-result cache and which preceding variables form their
  keys.

Plans are plain data: engines never re-derive ordering decisions at run time,
which keeps software runs and accelerator simulations of the same query
exactly aligned.

For the hot execution path, :meth:`JoinPlan.slot_program` compiles the plan
one step further into a :class:`SlotProgram`: every atom binding becomes a
dense integer *slot*, every depth of the variable order precomputes the
``(slot, level)`` cursors that participate, and the generated kernel's
parameter layout (which trie level or offsets array each parameter reads) is
fixed.  Executions address all per-atom state (tries, cursor positions) by
slot index instead of hashing string trie keys on every leapfrog step.

Everything derived from the plan alone is computed once per process and
kept on the plan (the slot program, the engines' generated kernels); nothing
derived from a catalog is, because a catalog replaces its tries on every
insert.  None of it is pickled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.relational.query import Atom, ConjunctiveQuery


@dataclass(frozen=True)
class AtomBinding:
    """How one body atom participates in the variable elimination order.

    Attributes
    ----------
    atom:
        The query atom.
    trie_key:
        Key under which the engine registers/looks up the atom's trie.  Two
        atoms over the same stored relation with different variable orders
        get different keys.
    variable_levels:
        Mapping ``variable -> trie level`` for the variables this atom binds.
        Levels follow the global variable order restricted to this atom.
    """

    atom: Atom
    trie_key: str
    variable_levels: Dict[str, int] = field(hash=False, default_factory=dict)

    def level_of(self, variable: str) -> int:
        return self.variable_levels[variable]

    def variable_at_level(self, level: int) -> str:
        """Variable stored at trie ``level`` of this atom."""
        for variable, var_level in self.variable_levels.items():
            if var_level == level:
                return variable
        raise KeyError(f"atom {self.atom} has no variable at level {level}")

    def binds(self, variable: str) -> bool:
        return variable in self.variable_levels

    @property
    def depth(self) -> int:
        """Number of trie levels (distinct variables bound by the atom)."""
        return len(self.variable_levels)


@dataclass(frozen=True)
class CacheSpec:
    """Partial-join-result cache structure for one cached variable.

    Attributes
    ----------
    cached_variable:
        The variable whose matches are cached (``z`` in the paper's Path-4
        example).
    key_variables:
        Preceding variables whose binding forms the cache key (``y`` in the
        example).  Always a *proper* subset of the variables preceding
        ``cached_variable`` in the global order — otherwise caching could
        never be reused and the compiler does not emit a spec.
    reuse_variables:
        The preceding variables *not* in the key; reuse happens when these
        change while the key stays fixed.
    """

    cached_variable: str
    key_variables: Tuple[str, ...]
    reuse_variables: Tuple[str, ...]


@dataclass(frozen=True)
class DepthProgram:
    """Slot-compiled description of one depth of the variable order.

    Attributes
    ----------
    variable:
        The variable eliminated at this depth.
    participants:
        ``(slot, level)`` per atom binding that mentions the variable, in
        atom order.  ``slot`` indexes the plan's ``atom_bindings``; ``level``
        is the variable's trie level within that atom.
    position_indexes:
        For each participant, the flat index of its ``(slot, level)`` cursor
        in the execution's flattened position array (see
        :attr:`SlotProgram.num_positions`).
    parent_indexes:
        For each participant, the flat index of its parent cursor
        ``(slot, level - 1)``, or ``-1`` for root-level participants.
    cache_key_depths:
        Depths (positions in the variable order) of the cache key variables
        when the plan caches this variable, else ``None``.
    """

    variable: str
    participants: Tuple[Tuple[int, int], ...]
    position_indexes: Tuple[int, ...]
    parent_indexes: Tuple[int, ...]
    cache_key_depths: Optional[Tuple[int, ...]]


@dataclass(frozen=True)
class SlotProgram:
    """The plan lowered to dense integer addressing.

    One slot per atom binding; ``trie_keys[slot]`` is the binding's trie key,
    ``position_base[slot]`` the offset of the slot's cursors in a flattened
    position array of ``num_positions`` entries, ``depths[d]`` the
    precompiled participants of the ``d``-th variable, ``head_depths`` the
    depth of each head variable (for result-tuple extraction without a
    name-keyed binding dict) and ``full`` whether the head keeps every
    variable (else results are deduplicated).

    The binding to a catalog's tries: ``trie_slots`` holds the first slot of
    each distinct trie key, in slot order, so an execution resolves one
    :class:`~repro.relational.trie.TrieIndex` per entry; ``parameters`` is
    the plan kernel's parameter list as ``(trie, level, offsets)`` — index
    into ``trie_slots``, trie level, and whether the parameter is that
    level's child offsets rather than its values.  Per depth, per
    participant, it lists the participant's level values and then, below
    the root, its parent level's child offsets.  ``root_seeks`` names, in
    the same order, the trie (index into ``trie_slots``) of every root-level
    participant at a depth with two or more participants: the leapfrog
    kernel takes those tries' root-position probes as its last parameters
    (:meth:`~repro.relational.trie.TrieIndex.root_positions`).
    """

    trie_keys: Tuple[str, ...]
    position_base: Tuple[int, ...]
    num_positions: int
    depths: Tuple[DepthProgram, ...]
    head_depths: Tuple[int, ...]
    full: bool
    trie_slots: Tuple[int, ...]
    parameters: Tuple[Tuple[int, int, bool], ...]
    root_seeks: Tuple[int, ...]

    @property
    def num_slots(self) -> int:
        return len(self.trie_keys)


class JoinPlan:
    """Compiled execution plan for one conjunctive query."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        variable_order: Sequence[str],
        atom_bindings: Sequence[AtomBinding],
        cache_specs: Sequence[CacheSpec] = (),
    ):
        if set(variable_order) != set(query.variables):
            raise ValueError(
                f"variable order {tuple(variable_order)!r} must cover exactly the "
                f"query variables {query.variables!r}"
            )
        if len(atom_bindings) != len(query.atoms):
            raise ValueError(
                "plan must contain exactly one binding per query atom "
                f"({len(atom_bindings)} bindings for {len(query.atoms)} atoms)"
            )
        self.query = query
        self.variable_order: Tuple[str, ...] = tuple(variable_order)
        self.atom_bindings: Tuple[AtomBinding, ...] = tuple(atom_bindings)
        self._cache_by_variable: Dict[str, CacheSpec] = {
            spec.cached_variable: spec for spec in cache_specs
        }
        #: The engines' generated kernels, per ``(use_cache, intersection)``
        #: (filled by :func:`repro.joins.leapfrog.run_plan`; never pickled).
        self.kernels: Dict[Tuple[bool, str], Callable] = {}

    # ------------------------------------------------------------------ #
    # Variable-order helpers
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        return len(self.variable_order)

    def depth_of(self, variable: str) -> int:
        """Position of ``variable`` in the global elimination order."""
        try:
            return self.variable_order.index(variable)
        except ValueError:
            raise KeyError(f"variable {variable!r} not in plan order") from None

    def variable_at(self, depth: int) -> str:
        return self.variable_order[depth]

    def bindings_with(self, variable: str) -> Tuple[AtomBinding, ...]:
        """Atom bindings whose atom mentions ``variable``."""
        return tuple(b for b in self.atom_bindings if b.binds(variable))

    def slot_program(self) -> SlotProgram:
        """The slot-compiled form of this plan (computed once, then cached).

        Engines resolve each slot's trie once per execution and afterwards
        address every per-atom cursor by dense integer index — no string
        hashing, no per-step ``bindings_with`` scans.
        """
        program = getattr(self, "_slot_program", None)
        if program is None:
            program = self._compile_slots()
            self._slot_program = program
        return program

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        # Plans travel to worker processes (repro.service.shm); ship only
        # the declarative structure.  The slot program and the kernels are
        # deterministic pure functions of it, so each process rebuilds them
        # lazily instead of paying the pickle bytes (a kernel is generated
        # code, which does not pickle at all).
        state = dict(self.__dict__)
        state.pop("_slot_program", None)
        state.pop("kernels")
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.kernels = {}

    def _compile_slots(self) -> SlotProgram:
        trie_keys = tuple(binding.trie_key for binding in self.atom_bindings)
        position_base: List[int] = []
        total = 0
        for binding in self.atom_bindings:
            position_base.append(total)
            total += binding.depth
        depths: List[DepthProgram] = []
        for depth, variable in enumerate(self.variable_order):
            participants: List[Tuple[int, int]] = []
            position_indexes: List[int] = []
            parent_indexes: List[int] = []
            for slot, binding in enumerate(self.atom_bindings):
                if not binding.binds(variable):
                    continue
                level = binding.variable_levels[variable]
                participants.append((slot, level))
                position_indexes.append(position_base[slot] + level)
                parent_indexes.append(
                    position_base[slot] + level - 1 if level > 0 else -1
                )
            spec = self._cache_by_variable.get(variable)
            cache_key_depths = (
                tuple(self.depth_of(v) for v in spec.key_variables)
                if spec is not None
                else None
            )
            depths.append(
                DepthProgram(
                    variable=variable,
                    participants=tuple(participants),
                    position_indexes=tuple(position_indexes),
                    parent_indexes=tuple(parent_indexes),
                    cache_key_depths=cache_key_depths,
                )
            )
        head_depths = tuple(self.depth_of(v) for v in self.query.head_variables)
        trie_index: Dict[str, int] = {}
        for key in trie_keys:
            trie_index.setdefault(key, len(trie_index))
        parameters: List[Tuple[int, int, bool]] = []
        root_seeks: List[int] = []
        for depth_program in depths:
            participants = depth_program.participants
            for slot, level in participants:
                trie = trie_index[trie_keys[slot]]
                parameters.append((trie, level, False))
                if level > 0:
                    parameters.append((trie, level - 1, True))
                elif len(participants) > 1:
                    root_seeks.append(trie)
        return SlotProgram(
            trie_keys=trie_keys,
            position_base=tuple(position_base),
            num_positions=total,
            depths=tuple(depths),
            head_depths=head_depths,
            full=set(head_depths) == set(range(len(depths))),
            trie_slots=tuple(trie_keys.index(key) for key in trie_index),
            parameters=tuple(parameters),
            root_seeks=tuple(root_seeks),
        )

    # ------------------------------------------------------------------ #
    # Cache structure
    # ------------------------------------------------------------------ #
    @property
    def cache_specs(self) -> Tuple[CacheSpec, ...]:
        """All cache specs, ordered by the cached variable's depth."""
        return tuple(
            sorted(
                self._cache_by_variable.values(),
                key=lambda spec: self.depth_of(spec.cached_variable),
            )
        )

    def cache_spec_for(self, variable: str) -> Optional[CacheSpec]:
        """Cache spec whose cached variable is ``variable`` (or ``None``)."""
        return self._cache_by_variable.get(variable)

    @property
    def uses_cache(self) -> bool:
        """True when the plan has at least one cacheable variable.

        The paper notes that Cycle-3 and Clique-4 have no valid intermediate
        result caches; their plans have ``uses_cache == False``.
        """
        return bool(self._cache_by_variable)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Human-readable multi-line plan description (used by examples/docs)."""
        lines: List[str] = [f"plan for {self.query.to_datalog()}"]
        lines.append(f"  variable order: {' -> '.join(self.variable_order)}")
        for binding in self.atom_bindings:
            levels = ", ".join(
                f"{var}@{lvl}" for var, lvl in sorted(
                    binding.variable_levels.items(), key=lambda kv: kv[1]
                )
            )
            lines.append(f"  atom {binding.atom}: trie {binding.trie_key} [{levels}]")
        if self.uses_cache:
            for spec in self.cache_specs:
                lines.append(
                    f"  cache: {spec.cached_variable} keyed by "
                    f"({', '.join(spec.key_variables)}) reused across "
                    f"({', '.join(spec.reuse_variables)})"
                )
        else:
            lines.append("  cache: none (no cacheable variable)")
        return "\n".join(lines)

"""Tests for the CTJ query compiler: variable orders, atom bindings, cache structure."""

import pytest

from repro.graphs import pattern_query
from repro.joins import JoinPlan, QueryCompiler
from repro.joins.compiler import canonical_form, canonical_signature
from repro.relational import Atom, ConjunctiveQuery


class TestVariableOrder:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("path3", ("x", "y", "z")),
            ("path4", ("x", "y", "z", "w")),
            ("cycle3", ("x", "y", "z")),
            ("cycle4", ("x", "y", "z", "w")),
            ("clique4", ("x", "y", "z", "w")),
        ],
    )
    def test_pattern_queries_get_paper_order(self, name, expected):
        plan = QueryCompiler().compile(pattern_query(name))
        assert plan.variable_order == expected

    def test_explicit_order_override(self):
        query = pattern_query("cycle3")
        plan = QueryCompiler().compile(query, variable_order=("z", "y", "x"))
        assert plan.variable_order == ("z", "y", "x")

    def test_explicit_order_must_cover_variables(self):
        with pytest.raises(ValueError):
            QueryCompiler().compile(pattern_query("cycle3"), variable_order=("x", "y"))

    def test_order_stays_connected(self):
        # Star-shaped query: a joins with b, c, d through separate atoms.
        query = ConjunctiveQuery(
            "star",
            ("a", "b", "c", "d"),
            [Atom("R", ("a", "b")), Atom("S", ("a", "c")), Atom("T", ("a", "d"))],
        )
        order = QueryCompiler().choose_variable_order(query)
        assert order[0] == "a"  # first-appearance seed
        # Every subsequent variable shares an atom with an earlier one.
        adjacency = query.variable_cooccurrence()
        for index in range(1, len(order)):
            assert any(previous in adjacency[order[index]] for previous in order[:index])


class TestAtomBindings:
    def test_levels_follow_global_order(self):
        plan = QueryCompiler().compile(pattern_query("cycle3"))
        for binding in plan.atom_bindings:
            levels = sorted(binding.variable_levels.values())
            assert levels == list(range(binding.depth))
        # The closing atom E(z, x) sees x before z in the global order, so x
        # is its level-0 variable.
        closing = plan.atom_bindings[2]
        assert closing.atom.variables == ("z", "x")
        assert closing.level_of("x") == 0
        assert closing.level_of("z") == 1
        assert closing.variable_at_level(0) == "x"

    def test_variable_at_level_unknown(self):
        plan = QueryCompiler().compile(pattern_query("path3"))
        with pytest.raises(KeyError):
            plan.atom_bindings[0].variable_at_level(7)

    def test_trie_keys_unique_per_atom(self):
        plan = QueryCompiler().compile(pattern_query("clique4"))
        keys = [binding.trie_key for binding in plan.atom_bindings]
        assert len(set(keys)) == len(keys)

    def test_repeated_variable_atom_rejected(self):
        query = ConjunctiveQuery("loop", ("x",), [Atom("E", ("x", "x"))])
        with pytest.raises(ValueError, match="repeats a variable"):
            QueryCompiler().compile(query)


class TestCacheStructure:
    def test_path4_caches_z_keyed_by_y(self):
        """The paper's running example: Path-4 caches z keyed by y (Figure 3)."""
        plan = QueryCompiler().compile(pattern_query("path4"))
        spec = plan.cache_spec_for("z")
        assert spec is not None
        assert spec.key_variables == ("y",)
        assert "x" in spec.reuse_variables

    def test_cycle4_caches_z(self):
        plan = QueryCompiler().compile(pattern_query("cycle4"))
        assert plan.uses_cache
        spec = plan.cache_spec_for("z")
        assert spec is not None and spec.key_variables == ("y",)

    def test_cycle3_and_clique4_cache_nothing(self):
        """Paper Section 4.4: no valid intermediate-result caches for these queries."""
        for name in ("cycle3", "clique4"):
            plan = QueryCompiler().compile(pattern_query(name))
            assert not plan.uses_cache
            assert plan.cache_specs == ()

    def test_first_variable_never_cached(self):
        for name in ("path3", "path4", "cycle3", "cycle4", "clique4"):
            plan = QueryCompiler().compile(pattern_query(name))
            assert plan.cache_spec_for(plan.variable_order[0]) is None

    def test_caching_disabled_compiler(self):
        plan = QueryCompiler(enable_caching=False).compile(pattern_query("path4"))
        assert not plan.uses_cache

    def test_cache_key_is_proper_subset_of_earlier_variables(self):
        for name in ("path3", "path4", "cycle4"):
            plan = QueryCompiler().compile(pattern_query(name))
            for spec in plan.cache_specs:
                depth = plan.depth_of(spec.cached_variable)
                earlier = set(plan.variable_order[:depth])
                assert set(spec.key_variables) < earlier
                assert set(spec.key_variables) | set(spec.reuse_variables) == earlier


class TestJoinPlan:
    def test_plan_validation(self):
        query = pattern_query("path3")
        compiler = QueryCompiler()
        bindings = compiler.bind_atoms(query, ("x", "y", "z"))
        with pytest.raises(ValueError):
            JoinPlan(query, ("x", "y"), bindings)
        with pytest.raises(ValueError):
            JoinPlan(query, ("x", "y", "z"), bindings[:1])

    def test_depth_and_lookup_helpers(self):
        plan = QueryCompiler().compile(pattern_query("cycle4"))
        assert plan.num_variables == 4
        assert plan.depth_of("w") == 3
        assert plan.variable_at(0) == "x"
        assert len(plan.bindings_with("x")) == 2
        with pytest.raises(KeyError):
            plan.depth_of("q")

    def test_describe_mentions_cache_state(self):
        cached_plan = QueryCompiler().compile(pattern_query("path4"))
        uncached_plan = QueryCompiler().compile(pattern_query("clique4"))
        assert "cache:" in cached_plan.describe()
        assert "none" in uncached_plan.describe()

    def test_compile_and_validate_checks_database(self, small_community_db):
        compiler = QueryCompiler()
        plan = compiler.compile_and_validate(pattern_query("path3"), small_community_db)
        assert plan.num_variables == 3
        with pytest.raises(KeyError):
            compiler.compile_and_validate(
                pattern_query("path3", edge_relation="missing"), small_community_db
            )


class TestCanonicalizationEdgeCases:
    """α-equivalence corner cases of canonical_form / canonical_signature."""

    def test_repeated_variable_within_atom_is_alpha_equivalent(self):
        # R(x, x) and R(y, y) are the same query; R(x, y) is not.
        loop_x = ConjunctiveQuery("a", ("x",), [Atom("R", ("x", "x"))])
        loop_y = ConjunctiveQuery("b", ("y",), [Atom("R", ("y", "y"))])
        edge = ConjunctiveQuery("c", ("x", "y"), [Atom("R", ("x", "y"))])
        assert canonical_signature(loop_x) == canonical_signature(loop_y)
        assert canonical_signature(loop_x) != canonical_signature(edge)
        canonical = canonical_form(loop_x)
        assert canonical.atoms[0].variables == ("v0", "v0")

    def test_repeated_variable_across_positions_preserved(self):
        # The repetition *pattern* must survive renaming: R(x, y, x) cannot
        # collide with R(x, y, z).
        twisted = ConjunctiveQuery("t", ("x", "y"), [Atom("R", ("x", "y", "x"))])
        straight = ConjunctiveQuery("s", ("x", "y"), [Atom("R", ("x", "y", "z"))])
        assert canonical_signature(twisted) != canonical_signature(straight)

    def test_self_join_of_same_relation(self):
        # A self-join E ⋈ E keeps both atoms distinct in the canonical form,
        # and is α-equivalent under renaming of either side.
        a = ConjunctiveQuery(
            "a", ("x", "y", "z"), [Atom("E", ("x", "y")), Atom("E", ("y", "z"))]
        )
        b = ConjunctiveQuery(
            "b", ("p", "q", "r"), [Atom("E", ("p", "q")), Atom("E", ("q", "r"))]
        )
        assert canonical_signature(a) == canonical_signature(b)
        # Self-join differs from the same shape over distinct relations.
        multi = ConjunctiveQuery(
            "m", ("x", "y", "z"), [Atom("E", ("x", "y")), Atom("F", ("y", "z"))]
        )
        assert canonical_signature(a) != canonical_signature(multi)

    def test_head_variable_permutations_are_distinct(self):
        # Permuting the head changes the output column order, so permuted
        # heads must not share a signature (or a cached result).
        base = pattern_query("cycle3")
        flipped = ConjunctiveQuery(
            "cycle3_flipped", tuple(reversed(base.head_variables)), base.atoms
        )
        assert canonical_signature(base) != canonical_signature(flipped)

    def test_head_projection_subset_distinct_from_full(self):
        full = pattern_query("path3")
        projected = ConjunctiveQuery("p", ("x", "z"), full.atoms)
        assert canonical_signature(full) != canonical_signature(projected)

    def test_canonical_form_idempotent(self):
        query = pattern_query("clique4")
        once = canonical_form(query)
        twice = canonical_form(once)
        assert canonical_signature(once) == canonical_signature(twice)
        assert once.head_variables == twice.head_variables
        assert once.atoms == twice.atoms

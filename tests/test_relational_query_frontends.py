"""Tests for conjunctive queries, the datalog parser, the SQL front end and the catalog."""

import re

import pytest

from repro.graphs import pattern_query
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Database,
    DatalogSyntaxError,
    Relation,
    SQLSyntaxError,
    Schema,
    parse_datalog,
    parse_sql_join,
)


class TestAtomAndQuery:
    def test_atom_basics(self):
        atom = Atom("R", ("x", "y"))
        assert atom.arity == 2
        assert atom.uses("x") and not atom.uses("z")
        assert atom.positions_of("y") == (1,)
        assert str(atom) == "R(x, y)"

    def test_atom_requires_variables(self):
        with pytest.raises(ValueError):
            Atom("R", ())

    def test_query_variables_in_appearance_order(self):
        query = pattern_query("cycle4")
        assert query.variables == ("x", "y", "z", "w")
        assert query.is_full

    def test_head_variable_must_appear_in_body(self):
        with pytest.raises(ValueError, match="head variable"):
            ConjunctiveQuery("q", ("z",), [Atom("R", ("x", "y"))])

    def test_atoms_with_and_relation_names(self):
        query = pattern_query("cycle3", edge_relation="G")
        assert len(query.atoms_with("x")) == 2
        assert query.relation_names() == ("G",)
        assert query.num_atoms == 3

    def test_cooccurrence_graph(self):
        query = pattern_query("path3")
        adjacency = query.variable_cooccurrence()
        assert adjacency["y"] == {"x", "z"}
        assert adjacency["x"] == {"y"}

    def test_to_datalog_round_trips(self):
        query = pattern_query("clique4")
        parsed = parse_datalog(query.to_datalog())
        assert parsed == query
        assert hash(parsed) == hash(query)

    def test_equality_distinguishes_different_queries(self):
        assert pattern_query("path3") != pattern_query("cycle3")
        assert pattern_query("path3") != "path3"  # NotImplemented branch


class TestDatalogParser:
    def test_parse_simple_rule(self):
        query = parse_datalog("path3(x,y,z) = R(x,y), S(y,z).")
        assert query.name == "path3"
        assert query.head_variables == ("x", "y", "z")
        assert [a.relation for a in query.atoms] == ["R", "S"]

    def test_parse_without_trailing_period(self):
        query = parse_datalog("q(x) = R(x, y)")
        assert query.name == "q"

    @pytest.mark.parametrize(
        "text",
        [
            "noequals(x,y)",
            "q(x) = ",
            "q() = R(x)",
            "q(x) = R()",
            "q(x) = R(x,)",
            "q(x) = R(x",
            "q(1x) = R(1x)",
        ],
    )
    def test_malformed_rules_rejected(self, text):
        with pytest.raises(DatalogSyntaxError):
            parse_datalog(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("q(x) = R(x) S(x)", "malformed atom: 'R(x) S(x)'"),
            ("q(x) = R(x)), S(x)", "unbalanced parentheses in body"),
        ],
    )
    def test_each_body_error_names_its_problem(self, text, message):
        with pytest.raises(DatalogSyntaxError, match=re.escape(message)):
            parse_datalog(text)

    def test_table1_queries_parse(self):
        from repro.graphs.patterns import table1_rows

        for _name, datalog in table1_rows():
            query = parse_datalog(datalog)
            assert query.num_atoms >= 2


class TestSQLFrontend:
    def make_database(self):
        database = Database("social")
        database.add_relation(
            Relation("Posts", Schema(("postID", "author")), [(1, 10), (2, 11)])
        )
        database.add_relation(
            Relation("Likes", Schema(("user", "post")), [(20, 1), (21, 2)])
        )
        database.add_relation(
            Relation("Follows", Schema(("follower", "followed")), [(30, 20)])
        )
        return database

    def test_paper_figure1_query(self):
        database = self.make_database()
        sql = (
            "SELECT * FROM Posts as R, Likes as S, Follows as T "
            "WHERE R.postID=S.post and S.user=T.followed"
        )
        query = parse_sql_join(sql, database, query_name="figure1")
        assert query.name == "figure1"
        assert query.num_atoms == 3
        # postID and post collapse to one variable; user and followed to another.
        atoms = {atom.relation: atom for atom in query.atoms}
        assert atoms["Posts"].variables[0] == atoms["Likes"].variables[1]
        assert atoms["Likes"].variables[0] == atoms["Follows"].variables[1]

    def test_select_columns_projection(self):
        database = self.make_database()
        query = parse_sql_join(
            "SELECT R.author FROM Posts as R, Likes as S WHERE R.postID=S.post",
            database,
        )
        assert len(query.head_variables) == 1

    def test_alias_defaults_to_table_name(self):
        database = self.make_database()
        query = parse_sql_join(
            "SELECT * FROM Posts, Likes WHERE Posts.postID=Likes.post", database
        )
        assert query.num_atoms == 2

    @pytest.mark.parametrize(
        "sql",
        [
            "DELETE FROM Posts",
            "SELECT * FROM Posts WHERE Posts.postID = 3",
            "SELECT * FROM Posts as R, Posts as R",
            "SELECT * FROM Posts as R WHERE X.bad=R.postID",
            "SELECT nonsense FROM Posts",
        ],
    )
    def test_unsupported_sql_rejected(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse_sql_join(sql, self.make_database())

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("SELECT * FROM Posts R S", "unsupported FROM item: 'Posts R S'"),
            ("SELECT R.nope FROM Posts as R", "unknown column 'R.nope' in SELECT list"),
        ],
    )
    def test_each_clause_error_names_its_problem(self, sql, message):
        with pytest.raises(SQLSyntaxError, match=re.escape(message)):
            parse_sql_join(sql, self.make_database())

    def test_sql_and_datalog_agree_on_results(self):
        from repro.joins import NaiveJoin

        database = self.make_database()
        sql_query = parse_sql_join(
            "SELECT * FROM Posts as R, Likes as S WHERE R.postID=S.post", database
        )
        result = NaiveJoin().execute(sql_query, database)
        assert result.cardinality == 2  # both posts have exactly one like


class TestDatabase:
    def test_an_insert_evicts_a_trie_whose_relation_changed_behind_the_catalog(self):
        database = Database("db")
        database.add_relation(Relation("R", Schema(("x", "y")), [(1, 2)]))
        stale = database.trie("R", ("x", "y"))
        database.relation("R").insert((3, 4))  # not through the catalog
        database.insert_into("R", [(5, 6)])
        rebuilt = database.trie("R", ("x", "y"))
        assert rebuilt is not stale
        assert rebuilt.num_tuples == 3 and list(rebuilt.level_values(0)) == [1, 3, 5]

    def test_add_and_lookup(self):
        database = Database("db")
        relation = Relation("R", Schema(("x", "y")), [(1, 2)])
        database.add_relation(relation)
        assert "R" in database
        assert database.relation("R") is relation
        assert database.relation_names() == ("R",)
        assert database.total_tuples() == 1
        assert database.size_in_bytes() == 8

    def test_duplicate_and_missing_relations(self):
        database = Database("db")
        database.add_relation(Relation("R", Schema(("x",)), [(1,)]))
        with pytest.raises(KeyError):
            database.add_relation(Relation("R", Schema(("x",))))
        with pytest.raises(KeyError):
            database.relation("S")

    def test_replace_relation_invalidates_trie_cache(self):
        database = Database("db")
        database.add_relation(Relation("R", Schema(("x", "y")), [(1, 2)]))
        trie_before = database.trie("R", ("x", "y"))
        database.replace_relation(Relation("R", Schema(("x", "y")), [(3, 4)]))
        trie_after = database.trie("R", ("x", "y"))
        assert trie_before is not trie_after
        assert list(trie_after.paths()) == [(3, 4)]

    def test_trie_cache_reuses_instances(self):
        database = Database("db")
        database.add_relation(Relation("R", Schema(("x", "y")), [(1, 2)]))
        assert database.trie("R", ("x", "y")) is database.trie("R", ("x", "y"))
        assert database.trie("R", ("y", "x")) is not database.trie("R", ("x", "y"))

    def test_trie_for_atom_respects_variable_order(self):
        database = Database("db")
        database.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2), (2, 3)]))
        atom = Atom("E", ("a", "b"))
        trie = database.trie_for_atom(atom, ("b", "a"))
        # Variable order (b, a) maps to attribute order (dst, src).
        assert trie.attribute_order == ("dst", "src")

    def test_trie_for_atom_arity_mismatch(self):
        database = Database("db")
        database.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
        with pytest.raises(ValueError):
            database.trie_for_atom(Atom("E", ("a", "b", "c")), ("a", "b", "c"))

    def test_validate_query(self):
        database = Database("db")
        database.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
        database.validate_query(pattern_query("path3"))
        with pytest.raises(KeyError):
            database.validate_query(pattern_query("path3", edge_relation="missing"))
        bad_arity = ConjunctiveQuery("bad", ("x",), [Atom("E", ("x",))])
        with pytest.raises(ValueError):
            database.validate_query(bad_arity)

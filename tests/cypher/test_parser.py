"""Tests for the Cypher parser."""

import pytest

from repro.cypher import (
    And,
    Comparison,
    CypherSyntaxError,
    Direction,
    Literal,
    Not,
    Or,
    PropertyAccess,
    VariableRef,
    Xor,
    parse,
)
from repro.cypher.parser import MAX_EXPRESSION_DEPTH


class TestNodePatterns:
    def test_anonymous_node(self):
        query = parse("MATCH ()")
        node = query.patterns[0].nodes[0]
        assert node.variable is None
        assert node.labels == []

    def test_variable_and_label(self):
        node = parse("MATCH (p:Person)").patterns[0].nodes[0]
        assert node.variable == "p"
        assert node.labels == ["Person"]

    def test_label_alternation(self):
        node = parse("MATCH (m:Comment|Post)").patterns[0].nodes[0]
        assert node.labels == ["Comment", "Post"]

    def test_label_only(self):
        node = parse("MATCH (:City)").patterns[0].nodes[0]
        assert node.variable is None
        assert node.labels == ["City"]

    def test_inline_property_map(self):
        node = parse("MATCH (p:Person {name: 'Alice', yob: 1984})").patterns[0].nodes[0]
        assert node.properties == [("name", Literal("Alice")), ("yob", Literal(1984))]


class TestRelationshipPatterns:
    def test_outgoing(self):
        rel = parse("MATCH (a)-[e:knows]->(b)").patterns[0].relationships[0]
        assert rel.direction is Direction.OUTGOING
        assert rel.variable == "e"
        assert rel.types == ["knows"]

    def test_incoming(self):
        rel = parse("MATCH (a)<-[:hasCreator]-(b)").patterns[0].relationships[0]
        assert rel.direction is Direction.INCOMING
        assert rel.variable is None

    def test_undirected(self):
        rel = parse("MATCH (a)-[e]-(b)").patterns[0].relationships[0]
        assert rel.direction is Direction.UNDIRECTED

    def test_bare_arrows(self):
        assert (
            parse("MATCH (a)-->(b)").patterns[0].relationships[0].direction
            is Direction.OUTGOING
        )
        assert (
            parse("MATCH (a)<--(b)").patterns[0].relationships[0].direction
            is Direction.INCOMING
        )
        assert (
            parse("MATCH (a)--(b)").patterns[0].relationships[0].direction
            is Direction.UNDIRECTED
        )

    def test_type_alternation(self):
        rel = parse("MATCH (a)<-[:hasMember|hasModerator]-(f)").patterns[0].relationships[0]
        assert rel.types == ["hasMember", "hasModerator"]

    @pytest.mark.parametrize(
        "span,expected",
        [
            ("*", (1, None)),
            ("*3", (3, 3)),
            ("*1..3", (1, 3)),
            ("*0..10", (0, 10)),
            ("*..4", (1, 4)),
            ("*2..", (2, None)),
        ],
    )
    def test_variable_length_spans(self, span, expected):
        rel = parse("MATCH (a)-[e:knows%s]->(b)" % span).patterns[0].relationships[0]
        assert (rel.lower, rel.upper) == expected
        assert rel.is_variable_length

    def test_fixed_length_edge_has_no_bounds(self):
        rel = parse("MATCH (a)-[e]->(b)").patterns[0].relationships[0]
        assert not rel.is_variable_length

    def test_inverted_bounds_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (a)-[e*3..1]->(b)")

    def test_long_path_pattern(self):
        path = parse("MATCH (a)-[e1]->(b)<-[e2]-(c)-[e3]->(d)").patterns[0]
        assert len(path.nodes) == 4
        assert len(path.relationships) == 3


class TestMultiplePatterns:
    def test_comma_separated_patterns(self):
        query = parse("MATCH (a)-[e]->(b), (b)-[f]->(c), (a)-[g]->(c)")
        assert len(query.patterns) == 3

    def test_paper_example_query(self):
        """The §2.3 example query parses in full."""
        query = parse(
            """
            MATCH (p1:Person)-[s:studyAt]->(u:University),
                  (p2:Person)-[:studyAt]->(u),
                  (p1)-[e:knows*1..3]->(p2)
            WHERE p1.gender <> p2.gender
              AND u.name = 'Uni Leipzig'
              AND s.classYear > 2014
            RETURN *
            """
        )
        assert len(query.patterns) == 3
        assert query.returns.star
        assert isinstance(query.where, And)


class TestWhere:
    def _where(self, condition):
        return parse("MATCH (a)-[e]->(b) WHERE " + condition).where

    def test_property_literal_comparison(self):
        where = self._where("a.age > 30")
        assert where == Comparison(">", PropertyAccess("a", "age"), Literal(30))

    def test_property_property_comparison(self):
        where = self._where("a.gender <> b.gender")
        assert where == Comparison(
            "<>", PropertyAccess("a", "gender"), PropertyAccess("b", "gender")
        )

    def test_boolean_precedence_and_binds_tighter_than_or(self):
        where = self._where("a.x = 1 OR a.y = 2 AND a.z = 3")
        assert isinstance(where, Or)
        assert isinstance(where.right, And)

    def test_not(self):
        where = self._where("NOT a.x = 1")
        assert isinstance(where, Not)

    def test_xor(self):
        assert isinstance(self._where("a.x = 1 XOR a.y = 2"), Xor)

    def test_parentheses_override_precedence(self):
        where = self._where("(a.x = 1 OR a.y = 2) AND a.z = 3")
        assert isinstance(where, And)
        assert isinstance(where.left, Or)

    def test_in_list(self):
        where = self._where("a.name IN ['Alice', 'Bob']")
        assert where == Comparison(
            "IN", PropertyAccess("a", "name"), Literal(["Alice", "Bob"])
        )

    def test_is_null(self):
        where = self._where("a.name IS NULL")
        assert where.operator == "IS NULL"

    def test_is_not_null(self):
        where = self._where("a.name IS NOT NULL")
        assert where.operator == "IS NOT NULL"

    def test_negative_literal(self):
        where = self._where("a.delta > -5")
        assert where.right == Literal(-5)

    def test_variable_equality(self):
        where = self._where("a = b")
        assert where == Comparison("=", VariableRef("a"), VariableRef("b"))

    def test_boolean_literals(self):
        where = self._where("a.active = TRUE")
        assert where.right == Literal(True)


class TestReturn:
    def test_star(self):
        assert parse("MATCH (a) RETURN *").returns.star

    def test_items(self):
        returns = parse("MATCH (a) RETURN a.name, a.age").returns
        assert len(returns.items) == 2
        assert returns.items[0].expression == PropertyAccess("a", "name")

    def test_alias(self):
        returns = parse("MATCH (a) RETURN a.name AS who").returns
        assert returns.items[0].alias == "who"

    def test_distinct_and_limit(self):
        returns = parse("MATCH (a) RETURN DISTINCT a.name LIMIT 5").returns
        assert returns.distinct
        assert returns.limit == 5

    def test_return_bare_variable(self):
        returns = parse("MATCH (a) RETURN a").returns
        assert returns.items[0].expression == VariableRef("a")

    def test_return_is_optional(self):
        assert parse("MATCH (a)").returns is None


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",                              # empty
            "MATCH",                         # no pattern
            "MATCH (a",                      # unclosed node
            "MATCH (a)-[e->(b)",             # unclosed bracket
            "MATCH (a) WHERE",               # dangling WHERE
            "MATCH (a) RETURN",              # dangling RETURN
            "RETURN *",                      # missing MATCH
            "MATCH (a) LIMIT 3",             # LIMIT without RETURN
            "MATCH (a) WHERE a.x >",         # missing operand
            "MATCH (a:)",                    # missing label name
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(CypherSyntaxError):
            parse(bad)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (a) RETURN * garbage")


class TestNestingLimit:
    """Over-deep input is a syntax error, never a RecursionError."""

    def _or_chain(self, operators):
        return "MATCH (a) WHERE " + " OR ".join(
            "a.x = %d" % i for i in range(operators + 1)
        )

    def test_chain_at_the_limit_parses(self):
        where = parse(self._or_chain(MAX_EXPRESSION_DEPTH)).where
        assert isinstance(where, Or)

    def test_chain_past_the_limit_rejected(self):
        with pytest.raises(CypherSyntaxError, match="nested deeper"):
            parse(self._or_chain(MAX_EXPRESSION_DEPTH + 1))

    def test_thousand_term_or_rejected(self):
        with pytest.raises(CypherSyntaxError, match="nested deeper"):
            parse(self._or_chain(999))

    @pytest.mark.parametrize(
        "where",
        [
            "(" * 3000 + "a.x = 1" + ")" * 3000,
            "NOT " * 3000 + "a.x = 1",
            "a.x IN " + "[" * 3000 + "]" * 3000,
        ],
        ids=["parentheses", "not", "list"],
    )
    def test_deep_nesting_rejected(self, where):
        with pytest.raises(CypherSyntaxError, match="nested deeper"):
            parse("MATCH (a) WHERE " + where)

    def test_parentheses_at_the_limit_parse(self):
        depth = MAX_EXPRESSION_DEPTH
        where = parse(
            "MATCH (a) WHERE " + "(" * depth + "a.x = 1" + ")" * depth
        ).where
        assert where == Comparison("=", PropertyAccess("a", "x"), Literal(1))


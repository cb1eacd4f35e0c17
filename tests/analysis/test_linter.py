"""The query linter: every diagnostic code must be triggerable.

The corpus below is the acceptance suite for the analyzer — one (or more)
bad queries per registry code, plus clean queries that must stay clean.
"""

import pytest

from repro.analysis import CODES, lint_query
from repro.engine.statistics import GraphStatistics


def codes_of(diagnostics):
    return {diagnostic.code for diagnostic in diagnostics}


#: (query, expected code) — the canonical bad-query corpus.
CORPUS = [
    # E101 unbound-variable
    ("MATCH (a) WHERE missing.age > 5 RETURN a", "E101"),
    ("MATCH (a)-[e]->(b) WHERE c.x = 1 AND a.y = 2 RETURN a, e, b", "E101"),
    # E102 return-unbound-variable
    ("MATCH (a) RETURN ghost.name", "E102"),
    ("MATCH (a) RETURN a ORDER BY ghost.name", "E102"),
    ("MATCH (a) RETURN a.name AS who ORDER BY whom", "E102"),
    # E103 variable-kind-conflict
    ("MATCH (a)-[a]->(b) RETURN b", "E103"),
    # E104 edge-variable-reused
    ("MATCH (a)-[e]->(b)-[e]->(c) RETURN a, b, c", "E104"),
    # E105 type-mismatch
    ("MATCH (a) WHERE a.name STARTS WITH 'x' AND a.name > 5 RETURN a", "E105"),
    ("MATCH (a) WHERE a.x = 'text' AND a.x > 10 RETURN a", "E105"),
    ("MATCH (a) WHERE 1 > 'one' RETURN a", "E105"),
    # E201 unsatisfiable-predicate
    ("MATCH (a) WHERE a.age > 5 AND a.age < 3 RETURN a", "E201"),
    ("MATCH (a) WHERE a.age >= 5 AND a.age < 5 RETURN a", "E201"),
    ("MATCH (a) WHERE a.x = 1 AND a.x = 2 RETURN a", "E201"),
    ("MATCH (a) WHERE a.x = 1 AND a.x <> 1 RETURN a", "E201"),
    ("MATCH (a) WHERE a.x IN [] RETURN a", "E201"),
    ("MATCH (a) WHERE a.x = NULL RETURN a", "E201"),
    ("MATCH (a) WHERE a.x IS NULL AND a.x = 3 RETURN a", "E201"),
    ("MATCH (a) WHERE a.x IS NULL AND a.x IS NOT NULL RETURN a", "E201"),
    ("MATCH (a) WHERE 1 > 2 RETURN a", "E201"),
    ("MATCH (a {x: 1}) WHERE a.x = 2 RETURN a", "E201"),
    ("MATCH (a) WHERE a.x = 3 AND a.x IN [1, 2] RETURN a", "E201"),
    # E202 conflicting-labels
    ("MATCH (a:Person), (a:City) RETURN a", "E202"),
    ("MATCH (a:Person)-[e]->(b), (a:Tag)-[f]->(b) RETURN a, b, e, f", "E202"),
    # W401 cartesian-product
    ("MATCH (a), (b) RETURN a, b", "W401"),
    ("MATCH (a)-[e]->(b), (c)-[f]->(d) RETURN a, b, c, d, e, f", "W401"),
    # W402 unbounded-path
    ("MATCH (a)-[e*1..]->(b) RETURN a, b", "W402"),
    # W403 shadowed-variable
    ("MATCH (a)-[:knows]->(b) RETURN a.name AS b, b.name AS x", "W403"),
    # W404 unused-variable
    ("MATCH (a)-[e]->(b) RETURN a.name", "W404"),
]

CLEAN = [
    "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.age > b.age "
    "RETURN a.name, b.name, e",
    "MATCH (a) WHERE a.x = 1 AND a.x > 0 AND a.x <= 1 RETURN a",
    "MATCH (a)-[e*1..3]->(b) RETURN a, b, e",
    "MATCH (a)-[:knows]->(b) RETURN *",
    "MATCH (a) WHERE a.x IN [1, 2] AND a.x = 2 RETURN a",
    "MATCH (a) WHERE a.name STARTS WITH 'A' AND a.name < 'B' RETURN a",
    "MATCH (a) RETURN a.name AS who ORDER BY who",
    "MATCH (a) RETURN a.name, count(*) AS n ORDER BY n DESC",
]


@pytest.mark.parametrize("query,code", CORPUS)
def test_corpus_triggers_expected_code(query, code):
    assert code in codes_of(lint_query(query)), query


def test_corpus_covers_at_least_eight_codes():
    covered = {code for _query, code in CORPUS}
    assert len(covered) >= 8


def test_every_statistics_free_code_is_covered():
    # statistics-dependent (W3xx), runtime sanitizer / layout-flow (Sxxx),
    # lock-discipline (C3xx) and UDF-shippability (P4xx) codes are
    # exercised by their own suites, not the static query-linter corpus
    static = {
        code for code in CODES
        if not code.startswith(("S", "C", "P"))
        and code not in ("W301", "W302")
    }
    covered = {code for _query, code in CORPUS}
    assert covered == static


@pytest.mark.parametrize("query", CLEAN)
def test_clean_queries_stay_clean(query):
    assert lint_query(query) == []


class TestSpans:
    def test_error_points_at_the_offending_token(self):
        (diagnostic,) = [
            d for d in lint_query("MATCH (a) WHERE zz.age > 5 RETURN a")
            if d.code == "E101"
        ]
        assert diagnostic.span is not None
        assert diagnostic.span.line == 1
        assert diagnostic.span.column == 17
        assert diagnostic.variable == "zz"

    def test_multiline_queries_report_real_lines(self):
        query = "MATCH (a)\nWHERE zz.age > 5\nRETURN a"
        (diagnostic,) = [
            d for d in lint_query(query) if d.code == "E101"
        ]
        assert diagnostic.span.line == 2


class TestStatisticsChecks:
    @pytest.fixture
    def statistics(self, figure1_graph):
        return GraphStatistics.from_graph(figure1_graph)

    def test_unknown_vertex_label_warns(self, statistics):
        diagnostics = lint_query(
            "MATCH (d:Dragon) RETURN d", statistics=statistics
        )
        assert "W301" in codes_of(diagnostics)

    def test_unknown_edge_type_warns(self, statistics):
        diagnostics = lint_query(
            "MATCH (a)-[:despises]->(b) RETURN a, b", statistics=statistics
        )
        assert "W302" in codes_of(diagnostics)

    def test_label_alternation_with_one_live_label_is_clean(self, statistics):
        diagnostics = lint_query(
            "MATCH (p:Person|Dragon) RETURN p", statistics=statistics
        )
        assert "W301" not in codes_of(diagnostics)

    def test_known_labels_do_not_warn(self, statistics):
        diagnostics = lint_query(
            "MATCH (p:Person)-[:knows]->(q:Person) RETURN p, q",
            statistics=statistics,
        )
        assert codes_of(diagnostics) == set()

    def test_without_statistics_no_statistics_codes(self):
        diagnostics = lint_query("MATCH (d:Dragon) RETURN d")
        assert codes_of(diagnostics) == set()


class TestSatisfiabilityPrecision:
    """The solver must stay sound: satisfiable queries are never flagged."""

    @pytest.mark.parametrize(
        "query",
        [
            # disjunctions are out of scope, never flagged
            "MATCH (a) WHERE a.x = 1 OR a.x = 2 RETURN a",
            "MATCH (a) WHERE NOT (a.x = 1 AND a.x = 2) RETURN a",
            # cross-variable and property-to-property comparisons
            "MATCH (a)-[:knows]->(b) WHERE a.x > 5 AND b.x < 3 RETURN a, b",
            "MATCH (a) WHERE a.x < a.y RETURN a",
            # boundary-inclusive range is non-empty
            "MATCH (a) WHERE a.x >= 5 AND a.x <= 5 RETURN a",
        ],
    )
    def test_satisfiable_is_not_flagged(self, query):
        assert not any(d.code in ("E201", "E202", "E105")
                       for d in lint_query(query))

    def test_equal_bounds_with_strict_operator_is_empty(self):
        diagnostics = lint_query(
            "MATCH (a) WHERE a.x > 5 AND a.x <= 5 RETURN a"
        )
        assert "E201" in codes_of(diagnostics)

    def test_float_int_bounds_compare_numerically(self):
        diagnostics = lint_query(
            "MATCH (a) WHERE a.x > 5.5 AND a.x < 5 RETURN a"
        )
        assert "E201" in codes_of(diagnostics)

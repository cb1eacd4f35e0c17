"""Tests for CNF normalization and ternary predicate evaluation."""

import time

import pytest

from repro.cypher import (
    CNF,
    Comparison,
    CypherSemanticError,
    CypherSyntaxError,
    LabelRef,
    Literal,
    PredicateTooLargeError,
    PropertyAccess,
    VariableRef,
    evaluate_cnf,
    evaluate_comparison,
    parse,
    to_cnf,
)
from repro.cypher.predicates import (
    MAX_CNF_CLAUSES,
    evaluate_clause,
    label_predicate,
)
from repro.epgm import GradoopId, PropertyValue


def cnf_of(condition):
    return to_cnf(parse("MATCH (a)-[e]->(b) WHERE " + condition).where)


class FakeBindings:
    """Minimal bindings object for predicate evaluation tests."""

    def __init__(self, properties=None, labels=None, ids=None):
        self._properties = properties or {}
        self._labels = labels or {}
        self._ids = ids or {}

    def property_value(self, variable, key):
        return PropertyValue(self._properties.get((variable, key)))

    def label(self, variable):
        return self._labels.get(variable, "")

    def element_id(self, variable):
        return self._ids[variable]


class TestCNFConversion:
    def test_single_comparison_one_clause(self):
        cnf = cnf_of("a.x = 1")
        assert len(cnf) == 1
        assert len(cnf.clauses[0].atoms) == 1

    def test_and_splits_clauses(self):
        cnf = cnf_of("a.x = 1 AND b.y = 2")
        assert len(cnf) == 2

    def test_or_single_clause_two_atoms(self):
        cnf = cnf_of("a.x = 1 OR a.x = 2")
        assert len(cnf) == 1
        assert len(cnf.clauses[0].atoms) == 2

    def test_distribution_or_over_and(self):
        # x OR (y AND z) -> (x OR y) AND (x OR z)
        cnf = cnf_of("a.x = 1 OR (a.y = 2 AND a.z = 3)")
        assert len(cnf) == 2
        assert all(len(clause.atoms) == 2 for clause in cnf.clauses)

    def test_not_flips_comparison_operator(self):
        cnf = cnf_of("NOT a.x > 1")
        atom = cnf.clauses[0].atoms[0]
        assert atom.comparison.operator == "<="
        assert not atom.negated

    def test_de_morgan(self):
        # NOT (x AND y) -> (NOT x) OR (NOT y): one clause, two atoms
        cnf = cnf_of("NOT (a.x = 1 AND a.y = 2)")
        assert len(cnf) == 1
        assert len(cnf.clauses[0].atoms) == 2

    def test_double_negation(self):
        cnf = cnf_of("NOT NOT a.x = 1")
        assert cnf.clauses[0].atoms[0].comparison.operator == "="

    def test_xor_expands(self):
        cnf = cnf_of("a.x = 1 XOR a.y = 2")
        assert len(cnf) == 2  # (x OR y) AND (NOT x OR NOT y)

    def test_none_is_trivial(self):
        assert to_cnf(None).is_trivial

    def test_in_negation_keeps_negated_atom(self):
        cnf = cnf_of("NOT a.name IN ['x']")
        atom = cnf.clauses[0].atoms[0]
        assert atom.comparison.operator == "IN"
        assert atom.negated

    def test_variables_and_property_keys(self):
        cnf = cnf_of("a.gender <> b.gender AND e.weight > 2")
        assert cnf.variables() == {"a", "b", "e"}
        keys = cnf.property_keys()
        assert keys["a"] == {"gender"}
        assert keys["e"] == {"weight"}

    def test_split_by_available_variables(self):
        cnf = cnf_of("a.x = 1 AND a.y <> b.y")
        now, later = cnf.split({"a"})
        assert len(now) == 1
        assert len(later) == 1
        now_all, later_none = cnf.split({"a", "b"})
        assert len(now_all) == 2
        assert later_none.is_trivial

    def test_bare_variable_predicate_rejected(self):
        with pytest.raises(CypherSemanticError):
            cnf_of("a")


def xor_chain(count):
    return " XOR ".join("a.x = %d" % value for value in range(count))


class TestCNFSizeCap:
    def test_xor_chain_sizes_below_the_cap(self):
        sizes = [len(cnf_of(xor_chain(count))) for count in range(2, 7)]
        assert sizes == [2, 6, 21, 133, 2619]
        assert max(sizes) <= MAX_CNF_CLAUSES

    def test_eight_xor_comparisons_rejected_quickly(self):
        started = time.monotonic()
        with pytest.raises(PredicateTooLargeError) as raised:
            cnf_of(xor_chain(8))
        assert time.monotonic() - started < 1.0
        assert isinstance(raised.value, CypherSyntaxError)
        assert str(MAX_CNF_CLAUSES) in str(raised.value)

    def test_or_of_ands_rejected_past_the_cap(self):
        # each OR'd two-term AND doubles the clause count: 2**13 > cap
        terms = ["(a.x = %d AND a.y = %d)" % (i, i) for i in range(13)]
        with pytest.raises(PredicateTooLargeError):
            cnf_of(" OR ".join(terms))
        assert len(cnf_of(" OR ".join(terms[:12]))) == 2 ** 12

    def test_true_or_huge_disjunct_is_trivial(self):
        # OR with TRUE is TRUE, however many clauses the other side has
        assert cnf_of("true OR (%s)" % xor_chain(5)).is_trivial


class TestEvaluation:
    def test_comparison_operators(self):
        bindings = FakeBindings(properties={("a", "x"): 5})
        for operator, expected in [
            ("=", False),
            ("<>", True),
            ("<", False),
            ("<=", False),
            (">", True),
            (">=", True),
        ]:
            comparison = Comparison(operator, PropertyAccess("a", "x"), Literal(3))
            assert evaluate_comparison(comparison, bindings) is expected

    def test_null_comparison_is_unknown(self):
        bindings = FakeBindings()
        comparison = Comparison("=", PropertyAccess("a", "missing"), Literal(3))
        assert evaluate_comparison(comparison, bindings) is None

    def test_incomparable_types_unknown(self):
        bindings = FakeBindings(properties={("a", "x"): "text"})
        comparison = Comparison("<", PropertyAccess("a", "x"), Literal(3))
        assert evaluate_comparison(comparison, bindings) is None

    def test_is_null(self):
        bindings = FakeBindings(properties={("a", "x"): 1})
        assert (
            evaluate_comparison(
                Comparison("IS NULL", PropertyAccess("a", "y"), Literal(None)), bindings
            )
            is True
        )
        assert (
            evaluate_comparison(
                Comparison("IS NOT NULL", PropertyAccess("a", "x"), Literal(None)),
                bindings,
            )
            is True
        )

    def test_in_membership(self):
        bindings = FakeBindings(properties={("a", "name"): "Alice"})
        comparison = Comparison(
            "IN", PropertyAccess("a", "name"), Literal(["Alice", "Bob"])
        )
        assert evaluate_comparison(comparison, bindings) is True

    def test_label_ref(self):
        bindings = FakeBindings(labels={"a": "Person"})
        comparison = Comparison("=", LabelRef("a"), Literal("Person"))
        assert evaluate_comparison(comparison, bindings) is True

    def test_variable_identity(self):
        bindings = FakeBindings(ids={"a": GradoopId(1), "b": GradoopId(1)})
        comparison = Comparison("=", VariableRef("a"), VariableRef("b"))
        assert evaluate_comparison(comparison, bindings) is True

    def test_clause_unknown_never_satisfies(self):
        cnf = cnf_of("a.missing = 1")
        assert evaluate_cnf(cnf, FakeBindings()) is False

    def test_negated_unknown_stays_unknown(self):
        """NOT (null = 1) must not become true (Cypher ternary logic)."""
        cnf = cnf_of("NOT a.missing IN [1]")
        assert evaluate_cnf(cnf, FakeBindings()) is False

    def test_clause_or_semantics(self):
        cnf = cnf_of("a.x = 1 OR a.x = 2")
        assert evaluate_cnf(cnf, FakeBindings(properties={("a", "x"): 2})) is True
        assert evaluate_cnf(cnf, FakeBindings(properties={("a", "x"): 3})) is False

    def test_clause_true_wins_over_unknown(self):
        cnf = cnf_of("a.missing = 1 OR a.x = 2")
        assert evaluate_cnf(cnf, FakeBindings(properties={("a", "x"): 2})) is True

    def test_evaluate_clause_returns_none_for_all_unknown(self):
        cnf = cnf_of("a.missing = 1")
        assert evaluate_clause(cnf.clauses[0], FakeBindings()) is None

    def test_empty_cnf_is_true(self):
        assert evaluate_cnf(CNF.true(), FakeBindings()) is True

    def test_cross_type_numeric_equality(self):
        bindings = FakeBindings(properties={("a", "x"): 2})
        comparison = Comparison("=", PropertyAccess("a", "x"), Literal(2.0))
        assert evaluate_comparison(comparison, bindings) is True


class TestLabelPredicate:
    def test_single_label(self):
        cnf = label_predicate("v", ["Person"])
        assert evaluate_cnf(cnf, FakeBindings(labels={"v": "Person"})) is True
        assert evaluate_cnf(cnf, FakeBindings(labels={"v": "City"})) is False

    def test_alternation_is_one_clause(self):
        cnf = label_predicate("m", ["Comment", "Post"])
        assert len(cnf) == 1
        assert evaluate_cnf(cnf, FakeBindings(labels={"m": "Post"})) is True
        assert evaluate_cnf(cnf, FakeBindings(labels={"m": "Forum"})) is False

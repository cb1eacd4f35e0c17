"""Physical-plan verifier: structural invariants of operator trees.

Planners are the most bug-prone layer of the pipeline — join ordering,
column book-keeping and predicate push-down all mutate
:class:`~repro.engine.embedding.EmbeddingMetaData` incrementally, and a
single off-by-one silently produces wrong answers instead of crashing.
The verifier walks any plan tree (from the greedy, exhaustive or naive
planner alike) and checks the invariants every correct plan satisfies:

* metadata is present and its columns form a contiguous ``0..n-1`` range
  with valid entry kinds;
* every variable is bound exactly once: binary operators introduce no
  accidental rebinding beyond their declared join variables, expands
  bind a fresh end vertex (unless closing) and a fresh edge;
* filters only reference variables and properties their input provides;
* the root binds every query variable with the right kind and retains
  every property the RETURN clause will read;
* morphism strategies are consistent across the whole tree;
* cardinality estimates are present, finite and non-negative.

``verify_plan`` raises :class:`PlanVerificationError` listing every
violation; :class:`PlanVerifier` returns them for programmatic use.
"""

import math

from repro.cypher.ast import FunctionCall, PropertyAccess
from repro.engine.operators.expand import ExpandEmbeddings
from repro.engine.operators.filter_project import (
    ProjectEmbeddings,
    SelectEmbeddings,
)
from repro.engine.operators.join import CartesianEmbeddings, JoinEmbeddings
from repro.engine.operators.leaves import (
    SelectAndProjectEdges,
    SelectAndProjectVertices,
)
from repro.engine.operators.value_join import JoinEmbeddingsOnProperty

_VALID_KINDS = {"v", "e", "p"}


class PlanVerificationError(AssertionError):
    """A physical plan violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ["physical plan failed verification:"]
        lines += ["  - %s" % violation for violation in self.violations]
        super().__init__("\n".join(lines))


class Violation:
    """One broken invariant: a stable rule name plus operator context."""

    __slots__ = ("rule", "operator", "detail")

    def __init__(self, rule, operator, detail):
        self.rule = rule
        self.operator = operator
        self.detail = detail

    def __str__(self):
        return "[%s] %s: %s" % (self.rule, self.operator, self.detail)

    def __repr__(self):
        return "Violation(%r, %r, %r)" % (self.rule, self.operator, self.detail)


def verify_plan(root, handler=None, vertex_strategy=None, edge_strategy=None):
    """Verify ``root``; raises :class:`PlanVerificationError` on violation.

    ``handler`` enables the whole-query checks (root coverage, RETURN
    property retention); the strategy arguments pin the expected morphism
    configuration when given.
    """
    violations = PlanVerifier(
        handler=handler,
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
    ).verify(root)
    if violations:
        raise PlanVerificationError(violations)
    return True


class PlanVerifier:
    """Collects invariant violations from a physical plan tree."""

    def __init__(self, handler=None, vertex_strategy=None, edge_strategy=None):
        self.handler = handler
        self.vertex_strategy = vertex_strategy
        self.edge_strategy = edge_strategy
        self._violations = []
        self._strategies = set()

    def verify(self, root):
        """All violations in the tree under (and including) ``root``."""
        self._violations = []
        self._strategies = set()
        self._walk(root)
        self._check_strategies(root)
        if self.handler is not None:
            self._check_root(root)
        return list(self._violations)

    # Traversal ------------------------------------------------------------------

    def _flag(self, rule, op, detail):
        self._violations.append(Violation(rule, op.describe(), detail))

    def _walk(self, op):
        for child in op.children:
            self._walk(child)
        self._check_meta(op)
        self._check_cardinality(op)
        if isinstance(op, JoinEmbeddings):
            self._check_join(op)
        elif isinstance(op, (CartesianEmbeddings, JoinEmbeddingsOnProperty)):
            self._check_disjoint_join(op)
        elif isinstance(op, ExpandEmbeddings):
            self._check_expand(op)
        elif isinstance(op, SelectEmbeddings):
            self._check_select(op)
        elif isinstance(op, ProjectEmbeddings):
            self._check_project(op)
        elif isinstance(op, (SelectAndProjectVertices, SelectAndProjectEdges)):
            self._check_leaf(op)
        if isinstance(op, (JoinEmbeddings, CartesianEmbeddings,
                           JoinEmbeddingsOnProperty, ExpandEmbeddings)):
            self._strategies.add((op.vertex_strategy, op.edge_strategy))

    # Per-operator invariants ----------------------------------------------------

    def _check_meta(self, op):
        meta = op.meta
        if meta is None:
            self._flag("meta-missing", op, "operator has no EmbeddingMetaData")
            return
        columns = sorted(meta.entry_column(v) for v in meta.variables)
        if columns != list(range(len(columns))):
            self._flag(
                "meta-columns", op,
                "entry columns %s are not the contiguous range 0..%d"
                % (columns, len(columns) - 1),
            )
        for variable in meta.variables:
            kind = meta.entry_kind(variable)
            if kind not in _VALID_KINDS:
                self._flag(
                    "meta-kind", op,
                    "variable %r has invalid kind %r" % (variable, kind),
                )
        for index, (variable, key) in enumerate(meta.property_entries()):
            if not meta.has_variable(variable):
                self._flag(
                    "meta-property-orphan", op,
                    "property %s.%s has no backing variable entry"
                    % (variable, key),
                )
            if meta.property_index(variable, key) != index:
                self._flag(
                    "meta-property-index", op,
                    "property %s.%s maps to index %d, expected %d"
                    % (variable, key, meta.property_index(variable, key), index),
                )

    def _check_cardinality(self, op):
        estimate = op.estimated_cardinality
        if estimate is None:
            self._flag(
                "cardinality-missing", op,
                "planner left no cardinality estimate",
            )
            return
        if not math.isfinite(estimate) or estimate < 0:
            self._flag(
                "cardinality-invalid", op,
                "estimate %r is not a finite non-negative number" % estimate,
            )

    def _check_join(self, op):
        left, right = op.children
        if left.meta is None or right.meta is None:
            return
        join_variables = set(op.join_variables)
        left_variables = set(left.meta.variables)
        right_variables = set(right.meta.variables)
        for variable in op.join_variables:
            for side, bound in (("left", left_variables), ("right", right_variables)):
                if variable not in bound:
                    self._flag(
                        "join-column-missing", op,
                        "join variable %r is not bound by the %s input"
                        % (variable, side),
                    )
        rebound = (left_variables & right_variables) - join_variables
        if rebound:
            self._flag(
                "binding-duplicated", op,
                "variables %s are bound by both inputs but are not join "
                "variables" % sorted(rebound),
            )
        if op.meta is not None:
            expected = left_variables | right_variables
            if set(op.meta.variables) != expected:
                self._flag(
                    "binding-dropped", op,
                    "output binds %s, inputs bind %s"
                    % (sorted(op.meta.variables), sorted(expected)),
                )

    def _check_disjoint_join(self, op):
        left, right = op.children
        if left.meta is None or right.meta is None:
            return
        shared = set(left.meta.variables) & set(right.meta.variables)
        if shared:
            self._flag(
                "binding-duplicated", op,
                "%s binds %s on both inputs; only JoinEmbeddings may "
                "overlap" % (type(op).__name__, sorted(shared)),
            )

    def _check_expand(self, op):
        (child,) = op.children
        if child.meta is None:
            return
        bound = set(child.meta.variables)
        if op.start_variable not in bound:
            self._flag(
                "expand-start-unbound", op,
                "expand starts at %r which the input does not bind"
                % op.start_variable,
            )
        edge_variable = op.query_edge.variable
        if edge_variable in bound:
            self._flag(
                "binding-duplicated", op,
                "path variable %r is already bound by the input" % edge_variable,
            )
        if op.closing:
            if op.end_variable not in bound:
                self._flag(
                    "expand-close-unbound", op,
                    "closing expand targets %r which the input does not bind"
                    % op.end_variable,
                )
        elif op.end_variable in bound:
            self._flag(
                "binding-duplicated", op,
                "non-closing expand would rebind %r" % op.end_variable,
            )

    def _check_select(self, op):
        (child,) = op.children
        if child.meta is None:
            return
        meta = child.meta
        bound = set(meta.variables)
        unbound = op.cnf.variables() - bound
        if unbound:
            self._flag(
                "select-unbound", op,
                "predicate references unbound variables %s" % sorted(unbound),
            )
        for variable, keys in op.cnf.property_keys().items():
            if variable not in bound:
                continue  # already reported as select-unbound
            if meta.entry_kind(variable) == "p":
                continue  # paths carry no projected properties
            for key in sorted(keys):
                if not meta.has_property(variable, key):
                    self._flag(
                        "select-property-missing", op,
                        "predicate reads %s.%s which the input does not "
                        "project" % (variable, key),
                    )

    def _check_project(self, op):
        (child,) = op.children
        if child.meta is None or op.meta is None:
            return
        for variable, key in op.keep_pairs:
            if not child.meta.has_property(variable, key):
                self._flag(
                    "project-source-missing", op,
                    "projection keeps %s.%s which the input does not "
                    "provide" % (variable, key),
                )
            if not op.meta.has_property(variable, key):
                self._flag(
                    "project-dropped", op,
                    "projection output lost %s.%s" % (variable, key),
                )
        if set(op.meta.variables) != set(child.meta.variables):
            self._flag(
                "binding-dropped", op,
                "projection changed the bound variables",
            )

    def _check_leaf(self, op):
        if op.meta is None:
            return
        if isinstance(op, SelectAndProjectVertices):
            variable = op.query_vertex.variable
            expected_kinds = {variable: "v"}
        else:
            edge = op.query_edge
            expected_kinds = {
                edge.source: "v",
                edge.variable: "p" if edge.is_variable_length else "e",
                edge.target: "v",
            }
        for variable, kind in expected_kinds.items():
            if not op.meta.has_variable(variable):
                self._flag(
                    "leaf-unbound", op,
                    "leaf does not bind its own variable %r" % variable,
                )
            elif op.meta.entry_kind(variable) != kind:
                self._flag(
                    "binding-kind-mismatch", op,
                    "variable %r bound as %r, expected %r"
                    % (variable, op.meta.entry_kind(variable), kind),
                )
        for variable, key in op.meta.property_entries():
            if key not in op.property_keys:
                self._flag(
                    "leaf-property-unprojected", op,
                    "meta promises %s.%s but the leaf only projects %s"
                    % (variable, key, op.property_keys),
                )

    # Whole-plan invariants ------------------------------------------------------

    def _check_strategies(self, root):
        if len(self._strategies) > 1:
            self._flag(
                "morphism-inconsistent", root,
                "operators disagree on morphism strategies: %s"
                % sorted(
                    (v.name, e.name) for v, e in self._strategies
                ),
            )
        if self._strategies and (
            self.vertex_strategy is not None or self.edge_strategy is not None
        ):
            vertex, edge = next(iter(self._strategies))
            if self.vertex_strategy is not None and vertex != self.vertex_strategy:
                self._flag(
                    "morphism-inconsistent", root,
                    "plan uses vertex strategy %s, runner configured %s"
                    % (vertex.name, self.vertex_strategy.name),
                )
            if self.edge_strategy is not None and edge != self.edge_strategy:
                self._flag(
                    "morphism-inconsistent", root,
                    "plan uses edge strategy %s, runner configured %s"
                    % (edge.name, self.edge_strategy.name),
                )

    def _check_root(self, root):
        meta = root.meta
        if meta is None:
            return
        handler = self.handler
        bound = set(meta.variables)
        for variable in handler.vertices:
            if variable not in bound:
                self._flag(
                    "variable-unbound", root,
                    "query vertex %r is not bound by the plan root" % variable,
                )
            elif meta.entry_kind(variable) != "v":
                self._flag(
                    "binding-kind-mismatch", root,
                    "vertex %r bound as kind %r"
                    % (variable, meta.entry_kind(variable)),
                )
        for variable, edge in handler.edges.items():
            expected = "p" if edge.is_variable_length else "e"
            if variable not in bound:
                self._flag(
                    "variable-unbound", root,
                    "query edge %r is not bound by the plan root" % variable,
                )
            elif meta.entry_kind(variable) != expected:
                self._flag(
                    "binding-kind-mismatch", root,
                    "edge %r bound as kind %r, expected %r"
                    % (variable, meta.entry_kind(variable), expected),
                )
        returns = handler.ast.returns
        if returns is None:
            return
        expressions = [item.expression for item in returns.items]
        expressions += returns.order_expressions()
        for expression in expressions:
            if isinstance(expression, FunctionCall):
                expression = expression.argument
            if not isinstance(expression, PropertyAccess):
                continue
            variable, key = expression.variable, expression.key
            if variable not in bound or meta.entry_kind(variable) == "p":
                continue
            if not meta.has_property(variable, key):
                self._flag(
                    "return-property-dropped", root,
                    "RETURN reads %s.%s which the root does not retain"
                    % (variable, key),
                )

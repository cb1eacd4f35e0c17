"""Backward liveness analysis over physical plans (``S4xx``).

The forward flow verifier (:mod:`repro.analysis.flow`) proves what a plan
*carries* — this module proves what a plan *consumes*.  Starting from the
final projection's demand (the RETURN/ORDER BY items), a backward
abstract interpretation propagates per-column, per-property-record and
per-path-content liveness *down* the operator tree through the dual of
each forward transfer rule: a join demands its key columns (and whatever
its compiled morphism check inspects) of both inputs, a selection demands
the columns and property records its CNF reads, an expansion demands its
start column — plus, under isomorphism, every base id column and the
contents of every base path — and a projection demands only the records
it keeps *that something above it still reads*.

Everything an operator introduces but nothing downstream ever reads is
dead freight, flagged as a warning (dead bytes are legal — every
embedding still decodes — just wasteful):

=====  ==========================================================
code   finding
=====  ==========================================================
S401   an id column no consumer reads (future columnar-drop fodder)
S402   a property record loaded into embeddings but never read
S403   path contents carried but never read (only the slot is used)
S404   operator without a liveness transfer rule (assumed all-live)
=====  ==========================================================

Two consumers build on the demand sets this pass computes: the plan
rewriter (:mod:`repro.engine.planning.prune`) narrows leaf property
extraction and inserts early projections exactly down to the live set,
and the cost-bound analyzer (:mod:`repro.analysis.costbound`) prices the
bytes each operator moves.
"""

from typing import Dict, List, Optional

from .diagnostics import Diagnostic, sort_diagnostics
from .flow import operator_span


class LivenessVerificationError(AssertionError):
    """A plan failed the liveness check (dead bytes or unknown operators)."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = ["plan failed liveness verification with %d finding(s):"
                 % len(self.diagnostics)]
        lines += ["  " + d.format() for d in self.diagnostics]
        super().__init__("\n".join(lines))


class Demand:
    """The abstract value: what downstream consumers read of an output.

    ``variables`` holds variables whose *id column bytes* are read (join
    keys, morphism checks, expansion starts, returned bindings);
    ``properties`` holds ``(variable, key)`` pairs whose ``prop_data``
    record is read; ``paths`` holds path variables whose *contents* (the
    hop sequence, not just the column slot) are read.
    """

    __slots__ = ("variables", "properties", "paths")

    def __init__(self, variables=(), properties=(), paths=()):
        self.variables = set(variables)
        self.properties = set(properties)
        self.paths = set(paths)

    def copy(self):
        return Demand(self.variables, self.properties, self.paths)

    def restricted_to(self, meta):
        """The demand intersected with what ``meta`` actually provides."""
        if meta is None:
            return self.copy()
        provided = set(meta.variables)
        pairs = set(meta.property_entries())
        return Demand(
            self.variables & provided,
            self.properties & pairs,
            self.paths & provided,
        )

    def __repr__(self):
        return "Demand(vars=%r, props=%r, paths=%r)" % (
            sorted(self.variables),
            sorted(self.properties),
            sorted(self.paths),
        )


def _all_live(meta):
    """The conservative top: every byte ``meta`` describes is demanded."""
    if meta is None:
        return Demand()
    return Demand(
        variables=set(meta.variables),
        properties=set(meta.property_entries()),
        paths={v for v in meta.variables if meta.entry_kind(v) == "p"},
    )


class LivenessReport:
    """Outcome of one :func:`verify_liveness` pass over a plan."""

    def __init__(self, root, diagnostics, demands):
        self.root = root
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        #: ``id(operator)`` → :class:`Demand` at that operator's *output*
        self._demands = dict(demands)

    def demand_of(self, operator) -> Optional[Demand]:
        return self._demands.get(id(operator))

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def clean(self):
        """True when every carried byte is provably consumed."""
        return not self.diagnostics

    def format_summary(self):
        dead = {"S401": 0, "S402": 0, "S403": 0}
        for diagnostic in self.diagnostics:
            if diagnostic.code in dead:
                dead[diagnostic.code] += 1
        return (
            "liveness: %d operator(s) interpreted, %d dead column(s), "
            "%d dead property record(s), %d dead path(s) — %s"
            % (
                len(self._demands),
                dead["S401"],
                dead["S402"],
                dead["S403"],
                "all bytes live" if self.clean else "dead bytes found",
            )
        )


def verify_liveness(root, handler=None, vertex_strategy=None,
                    edge_strategy=None):
    """Backward liveness pass over the plan under ``root``.

    ``handler`` (the compiled :class:`~repro.cypher.QueryHandler`)
    supplies the root demand from its RETURN/ORDER BY items; without one
    — or with ``RETURN *`` — every root byte is conservatively live.
    The strategies pin which columns the compiled morphism checks read,
    exactly mirroring :func:`~repro.engine.morphism.compile_morphism_check`.
    """
    return _LivenessAnalyzer(vertex_strategy, edge_strategy).analyze(
        root, handler
    )


def assert_liveness(root, handler=None, vertex_strategy=None,
                    edge_strategy=None):
    """Like :func:`verify_liveness` but raises unless the plan is clean."""
    report = verify_liveness(
        root, handler,
        vertex_strategy=vertex_strategy, edge_strategy=edge_strategy,
    )
    if not report.clean:
        raise LivenessVerificationError(report.diagnostics)
    return report


class _LivenessAnalyzer:
    """One backward pass: demand transfer rules + dead-byte findings."""

    def __init__(self, vertex_strategy, edge_strategy):
        from repro.engine.morphism import (
            DEFAULT_EDGE_STRATEGY,
            DEFAULT_VERTEX_STRATEGY,
            MatchStrategy,
        )

        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self._vertex_iso = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        self._edge_iso = self.edge_strategy is MatchStrategy.ISOMORPHISM
        self._diagnostics = []
        self._demands: Dict[int, Demand] = {}

    def analyze(self, root, handler):
        self._visit(root, self._root_demand(root, handler))
        return LivenessReport(
            root, sort_diagnostics(self._diagnostics), self._demands
        )

    # Reporting ----------------------------------------------------------------

    def _flag(self, code, operator, detail):
        self._diagnostics.append(
            Diagnostic.of(
                code,
                "%s: %s" % (operator.describe(), detail),
                span=operator_span(operator),
            )
        )

    # Root demand --------------------------------------------------------------

    def _root_demand(self, root, handler):
        """What the final result construction reads of the root embedding.

        An explicit RETURN reads exactly its items (and the ORDER BY
        keys): a property access reads one ``prop_data`` record, a
        variable reference reads its id column (a path variable's whole
        hop sequence).  ``RETURN *`` — or no handler at all — reads
        everything, as does result collection with attached bindings.
        """
        from repro.cypher.ast import FunctionCall, PropertyAccess, VariableRef

        meta = root.meta
        returns = getattr(getattr(handler, "ast", None), "returns", None)
        if meta is None or returns is None or returns.star:
            return _all_live(meta)
        path_vars = {
            v for v in meta.variables if meta.entry_kind(v) == "p"
        }
        demand = Demand()
        expressions = [item.expression for item in returns.items]
        expressions += returns.order_expressions()
        for expression in expressions:
            if isinstance(expression, FunctionCall):
                expression = expression.argument
                if expression is None:  # count(*)
                    continue
            if isinstance(expression, PropertyAccess):
                demand.properties.add((expression.variable, expression.key))
            elif isinstance(expression, VariableRef):
                demand.variables.add(expression.name)
                if expression.name in path_vars:
                    demand.paths.add(expression.name)
        return demand.restricted_to(meta)

    # Traversal ----------------------------------------------------------------

    def _visit(self, operator, demand):
        demand = demand.restricted_to(operator.meta)
        self._demands[id(operator)] = demand
        child_demands = self._transfer(operator, demand)
        for child, child_demand in zip(operator.children, child_demands):
            self._visit(child, child_demand)

    def _transfer(self, op, demand):
        """The backward transfer: demands on each child, plus findings."""
        from repro.engine.operators.expand import ExpandEmbeddings
        from repro.engine.operators.filter_project import (
            ProjectEmbeddings,
            SelectEmbeddings,
        )
        from repro.engine.operators.join import (
            CartesianEmbeddings,
            JoinEmbeddings,
        )
        from repro.engine.operators.leaves import (
            SelectAndProjectEdges,
            SelectAndProjectVertices,
        )
        from repro.engine.operators.value_join import JoinEmbeddingsOnProperty

        if isinstance(op, SelectAndProjectVertices):
            return self._leaf_vertex(op, demand)
        if isinstance(op, SelectAndProjectEdges):
            return self._leaf_edge(op, demand)
        if isinstance(op, JoinEmbeddings):
            return self._join(op, demand, op.join_variables)
        if isinstance(op, CartesianEmbeddings):
            return self._join(op, demand, [])
        if isinstance(op, JoinEmbeddingsOnProperty):
            return self._value_join(op, demand)
        if isinstance(op, ExpandEmbeddings):
            return self._expand(op, demand)
        if isinstance(op, SelectEmbeddings):
            return self._select(op, demand)
        if isinstance(op, ProjectEmbeddings):
            return self._project(op, demand)
        return self._unknown(op)

    # Backward transfer rules --------------------------------------------------

    def _leaf_vertex(self, op, demand):
        variable = op.query_vertex.variable
        if variable not in demand.variables:
            self._flag(
                "S401", op,
                "id column %r is never read downstream" % variable,
            )
        self._report_dead_properties(op, demand)
        return []

    def _leaf_edge(self, op, demand):
        edge = op.query_edge
        columns = [edge.source, edge.variable]
        if not op.is_loop:
            columns.append(edge.target)
        for variable in columns:
            if variable not in demand.variables:
                self._flag(
                    "S401", op,
                    "id column %r is never read downstream" % variable,
                )
        self._report_dead_properties(op, demand)
        return []

    def _report_dead_properties(self, op, demand):
        """S402 at the introduction site: a loaded record nobody reads.

        Element-local predicates evaluate on the *element* inside the
        leaf's flat-map, before projection — so a key loaded only for
        them is dead weight in every embedding above the leaf.
        """
        meta = op.meta
        if meta is None:
            return
        for variable, key in meta.property_entries():
            if (variable, key) not in demand.properties:
                self._flag(
                    "S402", op,
                    "property record %s.%s is loaded into embeddings but "
                    "never read downstream" % (variable, key),
                )

    def _join(self, op, demand, join_variables):
        left_meta = op.children[0].meta
        right_meta = op.children[1].meta
        left = demand.restricted_to(left_meta)
        right = demand.restricted_to(right_meta)
        # the join itself reads the key columns of both inputs
        for variable in join_variables:
            left.variables.add(variable)
            right.variables.add(variable)
        self._add_morphism_demand(op.meta, left, right)
        return [left.restricted_to(left_meta),
                right.restricted_to(right_meta)]

    def _value_join(self, op, demand):
        left_meta = op.children[0].meta
        right_meta = op.children[1].meta
        left = demand.restricted_to(left_meta)
        right = demand.restricted_to(right_meta)
        left.properties.add(tuple(op.left_property))
        right.properties.add(tuple(op.right_property))
        self._add_morphism_demand(op.meta, left, right)
        return [left.restricted_to(left_meta),
                right.restricted_to(right_meta)]

    def _add_morphism_demand(self, meta, *sides):
        """What the merge's compiled morphism check reads of its output.

        Mirrors :func:`~repro.engine.morphism.compile_morphism_check`
        exactly, including its vacuous-truth conditions: no isomorphism
        strategy → nothing; a path-bearing shape falls back to the full
        check (every watched id column plus every path's contents);
        otherwise a kind is only inspected when it has two or more
        columns to compare.
        """
        if meta is None or not (self._vertex_iso or self._edge_iso):
            return
        vertex_vars, edge_vars, path_vars = [], [], []
        for variable in meta.variables:
            kind = meta.entry_kind(variable)
            if kind == "v" and self._vertex_iso:
                vertex_vars.append(variable)
            elif kind == "e" and self._edge_iso:
                edge_vars.append(variable)
            elif kind == "p":
                path_vars.append(variable)
        if path_vars:
            watched = set(vertex_vars) | set(edge_vars)
            watched_paths = set(path_vars)
        else:
            watched = set()
            if len(vertex_vars) > 1:
                watched |= set(vertex_vars)
            if len(edge_vars) > 1:
                watched |= set(edge_vars)
            watched_paths = set()
        for side in sides:
            side.variables |= watched
            side.paths |= watched_paths

    def _expand(self, op, demand):
        edge = op.query_edge
        child_meta = op.children[0].meta
        if edge.variable not in demand.paths:
            self._flag(
                "S403", op,
                "path contents of %r are carried but never read — only "
                "the column slot is required downstream" % edge.variable,
            )
        if not op.closing and op.end_variable not in demand.variables:
            self._flag(
                "S401", op,
                "id column %r is never read downstream" % op.end_variable,
            )
        child = demand.restricted_to(child_meta)
        child.variables.add(op.start_variable)
        if op.closing:
            child.variables.add(op.end_variable)
        if self._vertex_iso or self._edge_iso:
            # the superstep seeds its seen-sets from every base vertex and
            # edge id column and the contents of every base path column
            if child_meta is not None:
                for variable in child_meta.variables:
                    kind = child_meta.entry_kind(variable)
                    if kind in ("v", "e"):
                        child.variables.add(variable)
                    else:
                        child.paths.add(variable)
        return [child.restricted_to(child_meta)]

    def _select(self, op, demand):
        child = demand.copy()
        child.variables |= op.cnf.variables()
        for variable, keys in op.cnf.property_keys().items():
            for key in keys:
                child.properties.add((variable, key))
        return [child.restricted_to(op.children[0].meta)]

    def _project(self, op, demand):
        # the projection copies its kept records; copying is not reading,
        # so only records something *above* still reads stay demanded —
        # this is what lets pruning narrow transitively down to the leaf
        child = demand.restricted_to(op.children[0].meta)
        child.properties = {
            tuple(pair) for pair in op.keep_pairs
            if tuple(pair) in demand.properties
        }
        return [child.restricted_to(op.children[0].meta)]

    def _unknown(self, op):
        self._flag(
            "S404", op,
            "no liveness transfer rule for %s — everything below is "
            "conservatively assumed live" % type(op).__name__,
        )
        return [_all_live(child.meta) for child in op.children]

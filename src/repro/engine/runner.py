"""CypherRunner: parse → plan → execute → post-process.

The entry point behind :meth:`LogicalGraph.cypher` (paper §3): compiles a
query string into a physical plan via the greedy planner, runs it on the
dataflow substrate, and turns the resulting embeddings into the
:class:`~repro.epgm.GraphCollection` the EPGM operator contract requires
(Definition 2.4).  Variable bindings are attached as properties on the
result graph heads so arbitrary post-processing remains possible (§2.3).
"""

import itertools

from repro.analysis.diagnostics import QueryLintError
from repro.analysis.linter import lint_query
from repro.cache import LRUCache
from repro.cypher.ast import FunctionCall, PropertyAccess, VariableRef
from repro.cypher.errors import CypherSemanticError
from repro.cypher.query_graph import QueryHandler
from repro.epgm import GraphCollection, GraphHead, PropertyValue

from .embedding import EmbeddingBindings
from .morphism import DEFAULT_EDGE_STRATEGY, DEFAULT_VERTEX_STRATEGY
from .planning import GreedyPlanner
from .statistics import GraphStatistics

#: default bound of a runner-private plan cache; the serving layer passes
#: a larger shared cache instead
DEFAULT_PLAN_CACHE_SIZE = 64

_graph_tokens = itertools.count()


def _graph_cache_token(graph):
    """A process-unique, lifetime-stable identity for ``graph``.

    ``id()`` alone can be recycled after garbage collection, which would
    let a dead graph's cached plans leak into a new graph allocated at the
    same address; a monotone token attached on first use cannot collide.
    """
    token = getattr(graph, "_plan_cache_token", None)
    if token is None:
        token = next(_graph_tokens)
        graph._plan_cache_token = token
    return token


class CypherRunner:
    """Executes Cypher pattern-matching queries against one logical graph."""

    def __init__(
        self,
        graph,
        vertex_strategy=None,
        edge_strategy=None,
        statistics=None,
        planner_cls=GreedyPlanner,
        lint=True,
        verify_plans=False,
        sanitize=False,
        plan_cache=None,
        fused=None,
        prune=False,
    ):
        self.graph = graph
        #: liveness-driven dead-byte pruning: with ``prune=True`` every
        #: compiled plan is rewritten by
        #: :func:`~repro.engine.planning.prune_plan` so property bytes the
        #: RETURN clause never reads are dropped at the earliest operator
        #: liveness allows.  Result-equivalent by construction (and
        #: differential-tested); part of the plan-cache key.
        self.prune = prune
        #: fusion override for this runner's executions: ``None``
        #: inherits the environment default (fused, columnar chunks),
        #: ``False`` forces the per-record reference path.  Sanitized
        #: execution is always per-record regardless (the sanitizer's
        #: per-boundary wrappers must see every intermediate).
        self.fused = fused
        self.vertex_strategy = vertex_strategy or DEFAULT_VERTEX_STRATEGY
        self.edge_strategy = edge_strategy or DEFAULT_EDGE_STRATEGY
        self._statistics = statistics
        self.planner_cls = planner_cls
        self.lint_enabled = lint
        self.verify_plans = verify_plans
        #: warnings from the most recent compile (errors raise instead)
        self.last_diagnostics = []
        #: the EmbeddingSanitizer of the most recent compile, or None
        self.last_sanitizer = None
        #: bounded LRU of compiled plans; pass a shared
        #: :class:`repro.cache.LRUCache` to pool plans across runners
        #: (the query service does)
        self._plan_cache = (
            plan_cache
            if plan_cache is not None
            else LRUCache(DEFAULT_PLAN_CACHE_SIZE)
        )
        self.sanitize = False
        self.set_sanitize(sanitize)

    @property
    def plan_cache(self):
        return self._plan_cache

    def set_sanitize(self, sanitize):
        """Switch sanitized (instrumented) execution on or off.

        ``sanitize`` is ``False`` (plain execution, the default),
        ``True``/``'raise'`` (validate every embedding at every operator
        boundary and raise :class:`~repro.analysis.SanitizerError` on the
        first finding), ``'collect'`` (validate but accumulate findings
        on ``last_sanitizer.diagnostics``) or ``'sample'`` (validate every
        Nth event only and raise — the cheap tripwire a plan can drop to
        once :meth:`flowcheck` has statically proven its layout).
        Instrumentation is baked into compiled plans; the plan-cache key
        includes the mode, so toggling switches to a different cache slice
        instead of clearing a cache that may be shared with other runners.
        """
        if sanitize not in (False, True, "raise", "collect", "sample"):
            raise ValueError(
                "sanitize must be False, True, 'raise', 'collect' or "
                "'sample', not %r" % (sanitize,)
            )
        self.sanitize = sanitize
        self.last_sanitizer = None

    @property
    def statistics(self):
        if self._statistics is None:
            self._statistics = GraphStatistics.from_graph(self.graph)
        return self._statistics

    # Compilation -------------------------------------------------------------

    def lint(self, query):
        """Static diagnostics for ``query`` against this graph's statistics.

        Returns the sorted :class:`~repro.analysis.Diagnostic` list without
        raising; callers decide how to treat errors.
        """
        return lint_query(query, statistics=self.statistics)

    def compile(self, query, parameters=None):
        """``(QueryHandler, root physical operator)`` for ``query``.

        With ``lint=True`` (the default) the query is linted first:
        blocking diagnostics (binding errors the compiler would reject
        anyway) raise :class:`QueryLintError` before any planning happens;
        everything else — including unsatisfiable-but-legal predicates — is
        kept on ``last_diagnostics``.  With ``verify_plans=True`` the
        planned operator tree must additionally pass the structural
        :func:`~repro.analysis.verify_plan` checks.

        Compiled plans live in a bounded LRU cache keyed on the graph, the
        statistics version, the query text and parameter values, the
        morphism strategies, the planner and the instrumentation mode —
        re-running the same query skips parsing, linting and planning,
        while a statistics bump (graph mutation) makes every stale plan
        unreachable.
        """
        cache_key = None
        if isinstance(query, str):
            cache_key = self.plan_cache_key(query, parameters)
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                handler, root, self.last_diagnostics, self.last_sanitizer = (
                    cached
                )
                return handler, root
        diagnostics = []
        if self.lint_enabled and isinstance(query, str):
            diagnostics = self.lint(query)
            if any(diagnostic.is_blocking for diagnostic in diagnostics):
                raise QueryLintError(diagnostics, query_text=query)
        self.last_diagnostics = diagnostics
        if isinstance(query, QueryHandler):
            handler = query
        else:
            handler = QueryHandler(query, parameters=parameters)
        planner = self.planner_cls(
            self.graph,
            handler,
            self.statistics,
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
        )
        root = planner.plan()
        if self.prune:
            # Lazy for the same reason as the verifier import below.
            from .planning import prune_plan

            root = prune_plan(
                root,
                handler=handler,
                vertex_strategy=self.vertex_strategy,
                edge_strategy=self.edge_strategy,
            )
        if self.verify_plans:
            # imported lazily: the verifier imports the operator modules,
            # which are mid-initialization when this module first loads
            from repro.analysis.verifier import verify_plan

            verify_plan(
                root,
                handler=handler,
                vertex_strategy=self.vertex_strategy,
                edge_strategy=self.edge_strategy,
            )
        sanitizer = None
        if self.sanitize:
            # Lazy for the same reason as the verifier import above.
            from repro.analysis.sanitizer import (
                DEFAULT_SAMPLE_EVERY,
                EmbeddingSanitizer,
            )

            sanitizer = EmbeddingSanitizer(
                vertex_strategy=self.vertex_strategy,
                edge_strategy=self.edge_strategy,
                mode="collect" if self.sanitize == "collect" else "raise",
                sample_every=(
                    DEFAULT_SAMPLE_EVERY
                    if self.sanitize == "sample"
                    else None
                ),
            ).attach(root)
        self.last_sanitizer = sanitizer
        if cache_key is not None:
            self._plan_cache.put(
                cache_key, (handler, root, diagnostics, sanitizer)
            )
        return handler, root

    def plan_cache_key(self, query, parameters=None):
        """The full cache key of ``query`` under this runner's settings."""
        return (
            "plan",
            _graph_cache_token(self.graph),
            getattr(self.statistics, "version", 0),
            query,
            # repr keeps the key hashable for list/None parameter values
            repr(sorted((parameters or {}).items())),
            self.planner_cls.__name__,
            self.vertex_strategy,
            self.edge_strategy,
            self.sanitize,
            self.verify_plans,
            self.prune,
        )

    def explain(self, query, parameters=None):
        """EXPLAIN output: the physical plan with cardinality estimates."""
        _, root = self.compile(query, parameters)
        return root.explain()

    def explain_analyze(self, query, parameters=None):
        """EXPLAIN ANALYZE: the plan with estimated *and* actual row counts.

        Executes the query (every sub-plan), so use it for diagnostics, not
        on hot paths.
        """
        _, root = self.compile(query, parameters)
        return root.explain(analyze=True)

    def audit_estimates(self, query, parameters=None, max_q_error=None):
        """Cardinality-estimate audit: per-operator q-error for ``query``.

        Executes the compiled plan once (shared dataflow cache) and
        returns an :class:`~repro.analysis.EstimateAudit`; operators whose
        estimate is off by more than ``max_q_error`` carry an ``S211``
        diagnostic.
        """
        from repro.analysis.estimates import (
            DEFAULT_MAX_Q_ERROR,
            audit_estimates,
        )

        _, root = self.compile(query, parameters)
        if max_q_error is None:
            max_q_error = DEFAULT_MAX_Q_ERROR
        return audit_estimates(root, max_q_error=max_q_error)

    def flowcheck(self, query, parameters=None):
        """Statically verify the §3.3 layout flow of ``query``'s plan.

        Compiles (through the plan cache) and abstractly interprets the
        physical plan, returning a :class:`~repro.analysis.FlowReport`.
        A ``proven`` report licenses dropping this runner to
        ``sanitize="sample"`` — or plain execution — for this query: the
        layout contracts the sanitizer would check per-embedding hold by
        construction.
        """
        from repro.analysis.flow import verify_flow

        _, root = self.compile(query, parameters)
        return verify_flow(
            root,
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
        )

    def livecheck(self, query, parameters=None):
        """Backward liveness analysis of ``query``'s plan (``S4xx``).

        Compiles (through the plan cache) and propagates the RETURN
        clause's demand down the physical plan, returning a
        :class:`~repro.analysis.LivenessReport` whose diagnostics name
        every dead column, dead property record and never-read path —
        exactly the bytes :func:`~repro.engine.planning.prune_plan` would
        drop under ``prune=True``.
        """
        from repro.analysis.liveness import verify_liveness

        handler, root = self.compile(query, parameters)
        return verify_liveness(
            root,
            handler,
            vertex_strategy=self.vertex_strategy,
            edge_strategy=self.edge_strategy,
        )

    def certify_cost(self, query, parameters=None):
        """The static :class:`~repro.analysis.CostCertificate` of ``query``.

        Composes per-operator worst-case cardinality and bytes-moved
        bounds from the graph statistics — the artifact the query
        service's admission control consults before executing anything.
        """
        from repro.analysis.costbound import certify_plan

        _, root = self.compile(query, parameters)
        return certify_plan(root, self.statistics)

    def check_shippable(self, query, parameters=None):
        """Shippability report over every UDF in ``query``'s dataflow.

        Builds the compiled plan's dataset DAG (without executing it) and
        classifies every installed callable with the ``P4xx`` analyzer:
        could it be shipped to a worker process?  Dataflow nodes are
        mapped back to the query element that compiled them, so findings
        carry source spans.
        """
        from repro.analysis.udfcheck import analyze_dataflow

        _, root = self.compile(query, parameters)
        dataflow_root = root.evaluate().operator
        return analyze_dataflow(
            dataflow_root, spans=self._dataflow_spans(root)
        )

    def _dataflow_spans(self, root):
        """``id(dataflow node) -> Span`` for the plan rooted at ``root``.

        Visits physical operators children-first; each claims the dataflow
        nodes reachable from its output dataset that no child already
        claimed, and stamps them with its query element's span.  Nodes
        compiled from span-less operators (joins, projections) simply stay
        unstamped.
        """
        from repro.analysis.flow import operator_span

        spans = {}
        stack = [(root, False)]
        while stack:
            operator, expanded = stack.pop()
            if not expanded:
                stack.append((operator, True))
                for child in reversed(operator.children):
                    stack.append((child, False))
                continue
            span = operator_span(operator)
            walk = [operator.evaluate().operator]
            while walk:
                node = walk.pop()
                if id(node) in spans:
                    continue  # a child's node: already attributed
                spans[id(node)] = span
                walk.extend(getattr(node, "parents", ()))
        return {key: value for key, value in spans.items() if value is not None}

    def prepare(self, query):
        """Compile ``query`` once into a reusable prepared statement.

        ``$name`` placeholders stay unbound at compile time; each
        :meth:`~repro.engine.prepared.PreparedStatement.execute` call binds
        a fresh value set and re-runs the *same* physical plan — no
        parsing, linting or planning on the hot path.
        """
        from .prepared import PreparedStatement

        return PreparedStatement(self, query)

    # Execution ------------------------------------------------------------------

    def execution_fused(self):
        """The ``fused`` argument this runner's executions should pass."""
        return False if self.sanitize else self.fused

    def execute_embeddings(self, query, parameters=None):
        """``(embeddings, meta)`` — the raw relational result."""
        _, root = self.compile(query, parameters)
        return (
            root.evaluate().collect(fused=self.execution_fused()),
            root.meta,
        )

    def execute(self, query, attach_bindings=True, parameters=None):
        """The EPGM pattern-matching operator: a GraphCollection of matches."""
        embeddings, meta = self.execute_embeddings(query, parameters)
        return self._build_collection(embeddings, meta, attach_bindings)

    def execute_table(self, query, parameters=None):
        """Neo4j-style tabular result honouring the RETURN clause.

        Returns a list of dicts keyed by alias/expression text.  ``RETURN *``
        yields one column per variable with the bound identifier(s).
        Supports aggregates (count/sum/min/max/avg/collect) with implicit
        grouping over the non-aggregate items, plus DISTINCT, ORDER BY,
        SKIP and LIMIT.
        """
        handler, root = self.compile(query, parameters)
        embeddings = root.evaluate().collect(fused=self.execution_fused())
        return self.build_rows(handler, embeddings, root.meta)

    def build_rows(self, handler, embeddings, meta):
        """Tabular rows for already-collected embeddings.

        The post-processing half of :meth:`execute_table`, split out so
        callers that manage execution themselves (prepared statements, the
        query service) can share the RETURN-clause semantics.
        """
        returns = handler.ast.returns

        if returns is not None and returns.has_aggregates:
            rows = self._aggregate_rows(returns, embeddings, meta)
        else:
            rows = [
                self._plain_row(returns, embedding, meta) for embedding in embeddings
            ]

        if returns is not None and returns.distinct:
            seen = set()
            unique = []
            for row in rows:
                key = tuple(sorted((k, _hashable(v)) for k, v in row.items()))
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        if returns is not None and returns.order_by:
            rows = self._order_rows(returns, rows)
        if returns is not None and returns.skip is not None:
            rows = rows[returns.skip :]
        if returns is not None and returns.limit is not None:
            rows = rows[: returns.limit]
        return rows

    def _plain_row(self, returns, embedding, meta):
        if returns is None or returns.star:
            row = {}
            for variable in meta.variables:
                column = meta.entry_column(variable)
                if meta.entry_kind(variable) == "p":
                    row[variable] = [g.value for g in embedding.path_at(column)]
                else:
                    row[variable] = embedding.raw_id_at(column)
            return row
        bindings = EmbeddingBindings(embedding, meta)
        row = {}
        for item in returns.items:
            name = item.alias or str(item.expression)
            row[name] = self._evaluate_return_item(
                item.expression, bindings, embedding, meta
            )
        return row

    def _aggregate_rows(self, returns, embeddings, meta):
        """Implicit grouping: non-aggregate items are the group key."""
        group_items = [
            item
            for item in returns.items
            if not isinstance(item.expression, FunctionCall)
        ]
        agg_items = [
            item for item in returns.items if isinstance(item.expression, FunctionCall)
        ]
        groups = {}
        order = []
        for embedding in embeddings:
            bindings = EmbeddingBindings(embedding, meta)
            key_values = tuple(
                _hashable(
                    self._evaluate_return_item(
                        item.expression, bindings, embedding, meta
                    )
                )
                for item in group_items
            )
            if key_values not in groups:
                groups[key_values] = []
                order.append(key_values)
            inputs = []
            for item in agg_items:
                argument = item.expression.argument
                if argument is None:  # count(*)
                    inputs.append(1)
                else:
                    inputs.append(
                        self._evaluate_return_item(argument, bindings, embedding, meta)
                    )
            groups[key_values].append(inputs)
        rows = []
        for key_values in order:
            row = {}
            for item, value in zip(group_items, key_values):
                row[item.alias or str(item.expression)] = (
                    list(value) if isinstance(value, tuple) else value
                )
            for index, item in enumerate(agg_items):
                values = [inputs[index] for inputs in groups[key_values]]
                row[item.alias or str(item.expression)] = _aggregate(
                    item.expression.name, item.expression.argument, values
                )
            rows.append(row)
        return rows

    def _order_rows(self, returns, rows):
        if not rows:
            return rows
        columns = rows[0]
        # ORDER BY may name an aliased RETURN expression by its text
        aliased = {
            str(item.expression): item.alias
            for item in returns.items
            if item.alias is not None
        }
        keys = []
        for order in returns.order_by:
            name = str(order.expression)
            if name not in columns:
                name = aliased.get(name, name)
            if name not in columns:
                raise CypherSemanticError(
                    "ORDER BY expression %r is not among the returned columns"
                    % name,
                    span=getattr(order.expression, "span", None),
                )
            keys.append((name, order.descending))

        def sort_key(row):
            # None sorts last regardless of direction
            return tuple(
                (
                    row[name] is None,
                    _negate_if(_order_key(row[name]), descending),
                )
                for name, descending in keys
            )

        return sorted(rows, key=sort_key)

    @staticmethod
    def _evaluate_return_item(expression, bindings, embedding, meta):
        if isinstance(expression, PropertyAccess):
            return bindings.property_value(expression.variable, expression.key).raw()
        if isinstance(expression, VariableRef):
            variable = expression.name
            if meta.entry_kind(variable) == "p":
                return [
                    g.value for g in embedding.path_at(meta.entry_column(variable))
                ]
            return embedding.raw_id_at(meta.entry_column(variable))
        raise ValueError("unsupported RETURN expression %r" % (expression,))

    # Post-processing -----------------------------------------------------------------

    def _build_collection(self, embeddings, meta, attach_bindings):
        vertices_by_id = {v.id: v for v in self.graph.collect_vertices()}
        edges_by_id = {e.id: e for e in self.graph.collect_edges()}
        heads = []
        result_vertices = {}
        result_edges = {}

        for embedding in embeddings:
            head = GraphHead(self.graph.id_factory.next_id(), label="match")
            bound_vertices, bound_edges = set(), set()
            for variable in meta.variables:
                column = meta.entry_column(variable)
                kind = meta.entry_kind(variable)
                if kind == "v":
                    vid = embedding.id_at(column)
                    bound_vertices.add(vid)
                    if attach_bindings:
                        head.set_property(variable, PropertyValue(vid.value))
                elif kind == "e":
                    eid = embedding.id_at(column)
                    bound_edges.add(eid)
                    if attach_bindings:
                        head.set_property(variable, PropertyValue(eid.value))
                else:  # path
                    via = embedding.path_at(column)
                    for index, gid in enumerate(via):
                        (bound_edges if index % 2 == 0 else bound_vertices).add(gid)
                    if attach_bindings:
                        head.set_property(
                            variable, PropertyValue([g.value for g in via])
                        )
            if attach_bindings:
                for variable, key in meta.property_entries():
                    value = embedding.property_at(meta.property_index(variable, key))
                    if not value.is_null:
                        head.set_property("%s.%s" % (variable, key), value)
            heads.append(head)
            # Definition 2.4: matched elements join the new logical graph
            for vid in bound_vertices:
                vertex = vertices_by_id[vid]
                vertex.add_graph_id(head.id)
                result_vertices[vid] = vertex
            for eid in bound_edges:
                edge = edges_by_id[eid]
                edge.add_graph_id(head.id)
                result_edges[eid] = edge

        environment = self.graph.environment
        return GraphCollection(
            environment,
            environment.from_collection(heads, name="match-heads"),
            environment.from_collection(
                list(result_vertices.values()), name="match-vertices"
            ),
            environment.from_collection(
                list(result_edges.values()), name="match-edges"
            ),
        )


def _hashable(value):
    if isinstance(value, list):
        return tuple(value)
    return value


def _aggregate(name, argument, values):
    """Cypher aggregate semantics: NULL inputs are skipped."""
    if name == "count":
        if argument is None:
            return len(values)
        return sum(1 for value in values if value is not None)
    present = [value for value in values if value is not None]
    if name == "collect":
        return present
    if name == "sum":
        return sum(present) if present else 0
    if not present:
        return None
    if name == "min":
        return min(present, key=_order_key)
    if name == "max":
        return max(present, key=_order_key)
    if name == "avg":
        return sum(present) / len(present)
    raise CypherSemanticError("unknown aggregate %r" % name)


#: openCypher orderability ranks (Francis et al.): lists < strings <
#: booleans < numbers < NaN; values outside openCypher's types (Gradoop
#: ids) follow, and null sorts above everything
_ORDER_RANK = {list: 0, str: 1, bool: 2, int: 3, float: 3}
_NAN_RANK = 4
_OTHER_RANK = 5
_NULL_RANK = 6


def _order_key(value):
    """Sort key putting values of any type in one openCypher total order.

    Within one type the key orders exactly like the bare values (ints and
    floats compare numerically), so single-typed columns sort as before.
    """
    rank = _ORDER_RANK.get(type(value))
    if rank is None:
        return (_NULL_RANK, 0) if value is None else (_OTHER_RANK, value)
    if rank == 0:
        return (rank, tuple(_order_key(item) for item in value))
    if value != value:  # NaN
        return (_NAN_RANK, 0)
    return (rank, value)


class _Descending:
    """Sort-order inverter usable with non-numeric values."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return isinstance(other, _Descending) and self.value == other.value


def _negate_if(value, descending):
    return _Descending(value) if descending else value

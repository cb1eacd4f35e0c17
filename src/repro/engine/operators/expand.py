"""ExpandEmbeddings: variable-length path expressions (paper §3.1).

A ``-[e:knows*l..u]->`` edge is evaluated as an iterated 1-hop join inside
the dataflow's bulk iteration: each superstep joins the current frontier
of partial paths with the (pre-filtered) edge relation, keeps only paths
satisfying the morphism semantics, and emits paths whose length has
reached the lower bound.  The result embedding gains a PATH column with
the ``via`` identifiers (Table 2b) and — unless the target vertex was
already bound ("closing" an existing binding) — an ID column for the path
end.
"""

from repro.cypher.predicates import compile_cnf
from repro.epgm import GradoopId
from repro.epgm.indexed import IndexedLogicalGraph

from ..embedding import ElementBindings
from ..morphism import MatchStrategy
from .base import PhysicalOperator

#: the structural size estimate of a frontier record beyond its embedding
#: and path ids: the 5-tuple (16), the path tuple (16), the end id (8) and
#: the two id sets (64 each) — what ``estimate_size`` charges the record
_FRONTIER_OVERHEAD = 168

_NO_IDS = frozenset()


class _EdgeTuple(tuple):
    """A ``(from, edge, to)`` int triple of the expand's edge relation."""

    __slots__ = ()

    #: the structural estimate of a 3-tuple of ints, without walking it
    serialized_size = 40


class _FrontierItem(tuple):
    """A partial path: ``(embedding, path, end, base vertex ids, base edge
    ids)``.

    ``path`` alternates edge and vertex ids (``e1, v1, e2, ...``); the id
    sets hold only the input embedding's ids, shared by every path grown
    from it, so a hop never copies them.  The record knows its shuffle
    size, which equals the structural estimate of the plain 5-tuple.
    """

    __slots__ = ()

    def serialized_size(self):
        return (
            self[0].serialized_size() + _FRONTIER_OVERHEAD + 8 * len(self[1])
        )


class ExpandEmbeddings(PhysicalOperator):
    """Expand a bound source vertex along a variable-length query edge."""

    display = "ExpandEmbeddings"

    def __init__(
        self,
        child,
        graph,
        query_edge,
        vertex_strategy,
        edge_strategy,
        closing,
        reverse=False,
    ):
        """
        Args:
            child: Input plan; must bind the expansion's start vertex.
            graph: The data graph supplying the edge relation.
            query_edge: A variable-length
                :class:`~repro.cypher.QueryEdge`.
            vertex_strategy / edge_strategy: Morphism semantics.
            closing: True when the far endpoint is already bound in the
                input — the expansion then filters on it instead of
                binding a new column.
            reverse: Expand from the edge's *target* side (the source is
                the unbound endpoint); edges are traversed backwards and
                the emitted ``via`` list is reversed into source→target
                order.
        """
        super().__init__([child])
        if not query_edge.is_variable_length:
            raise ValueError("ExpandEmbeddings requires a variable-length edge")
        self.graph = graph
        self.query_edge = query_edge
        self.vertex_strategy = vertex_strategy
        self.edge_strategy = edge_strategy
        self.closing = closing
        self.reverse = reverse
        self.start_variable = query_edge.target if reverse else query_edge.source
        self.end_variable = query_edge.source if reverse else query_edge.target
        if not child.meta.has_variable(self.start_variable):
            raise ValueError(
                "expansion start %r not bound in input" % self.start_variable
            )
        if closing and not child.meta.has_variable(self.end_variable):
            raise ValueError("closing expansion requires the end to be bound")
        meta = child.meta.with_entry(query_edge.variable, "p")
        if not closing:
            meta = meta.with_entry(self.end_variable, "v")
        self.meta = meta

    def sanitizer_context(self):
        """Declare the path column's hop bounds for sanitized execution."""
        return {
            "path_bounds": {
                self.query_edge.variable: (
                    self.query_edge.lower,
                    self.query_edge.upper,
                )
            }
        }

    # ------------------------------------------------------------------------

    def _edge_tuples(self):
        """The pre-filtered edge relation as ``(from, edge, to)`` int triples."""
        query_edge = self.query_edge
        keep = compile_cnf(query_edge.predicates)
        variable = query_edge.variable
        reverse = self.reverse
        undirected = query_edge.undirected

        def to_tuples(edge):
            if not keep(ElementBindings(variable, edge)):
                return []
            source, target = edge.source_id.value, edge.target_id.value
            edge_id = edge.id.value
            if undirected:
                if source == target:
                    return [_EdgeTuple((source, edge_id, target))]
                return [
                    _EdgeTuple((source, edge_id, target)),
                    _EdgeTuple((target, edge_id, source)),
                ]
            if reverse:
                return [_EdgeTuple((target, edge_id, source))]
            return [_EdgeTuple((source, edge_id, target))]

        labels = query_edge.types
        if labels and (isinstance(self.graph, IndexedLogicalGraph) or len(labels) == 1):
            dataset = self.graph.edges_by_label(labels[0])
            for label in labels[1:]:
                dataset = dataset.union(self.graph.edges_by_label(label))
        else:
            dataset = self.graph.edges
        return dataset.flat_map(
            to_tuples, name="ExpandEmbeddings(%s):edges" % variable
        )

    def _build(self):
        child_meta = self.children[0].meta
        vertex_iso = self.vertex_strategy is MatchStrategy.ISOMORPHISM
        edge_iso = self.edge_strategy is MatchStrategy.ISOMORPHISM
        lower = self.query_edge.lower
        upper = self.query_edge.upper
        closing = self.closing
        reverse = self.reverse
        environment = self.graph.environment
        input_ds = self.children[0].evaluate()
        edges = self._edge_tuples()

        start_reader = child_meta.id_reader(self.start_variable)
        end_reader = (
            child_meta.id_reader(self.end_variable) if self.closing else None
        )
        base_vertex_readers = tuple(
            child_meta.id_reader(v)
            for v in child_meta.variables
            if child_meta.entry_kind(v) == "v"
        )
        base_edge_readers = tuple(
            child_meta.id_reader(v)
            for v in child_meta.variables
            if child_meta.entry_kind(v) == "e"
        )
        base_path_columns = [
            child_meta.entry_column(v)
            for v in child_meta.variables
            if child_meta.entry_kind(v) == "p"
        ]

        def initial_item(embedding):
            """The zero-hop path; base ids only under isomorphism."""
            vertex_ids = edge_ids = _NO_IDS
            if vertex_iso:
                vertex_ids = {reader(embedding) for reader in base_vertex_readers}
                for column in base_path_columns:
                    vertex_ids.update(embedding.raw_path_at(column)[1::2])
                vertex_ids = frozenset(vertex_ids)
            if edge_iso:
                edge_ids = {reader(embedding) for reader in base_edge_readers}
                for column in base_path_columns:
                    edge_ids.update(embedding.raw_path_at(column)[::2])
                edge_ids = frozenset(edge_ids)
            start = start_reader(embedding)
            return _FrontierItem((embedding, (), start, vertex_ids, edge_ids))

        def extend(item, edge_tuple):
            embedding, path, end, vertex_ids, edge_ids = item
            _, edge_id, new_end = edge_tuple
            if edge_iso and (edge_id in edge_ids or edge_id in path[::2]):
                return []
            if not path:
                return [_FrontierItem(
                    (embedding, (edge_id,), new_end, vertex_ids, edge_ids)
                )]
            # the previous end becomes a path-internal vertex
            if vertex_iso and (end in vertex_ids or end in path[1::2]):
                return []
            return [_FrontierItem(
                (embedding, path + (end, edge_id), new_end, vertex_ids, edge_ids)
            )]

        def emit_result(item):
            """Attach the path (and end binding) to the input embedding."""
            embedding, path, end, vertex_ids, _ = item
            via = tuple(reversed(path)) if reverse else path
            if closing:
                if end != end_reader(embedding):
                    return []
                return [embedding.append_path(via)]
            if vertex_iso and (end in vertex_ids or end in path[1::2]):
                return []
            return [embedding.append_path(via).append_id(GradoopId(end))]

        def step(working, iteration):
            expanded = working.join(
                edges,
                lambda item: item[2],  # current path end
                lambda edge_tuple: edge_tuple[0],
                join_fn=extend,
                name="ExpandEmbeddings:hop",
            )
            if iteration >= lower:
                emitted = expanded.flat_map(
                    emit_result, name="ExpandEmbeddings:emit"
                )
            else:
                emitted = environment.from_collection([], name="ExpandEmbeddings:none")
            return expanded, emitted

        frontier = input_ds.map(initial_item, name="ExpandEmbeddings:init")
        # lazy: the supersteps re-run on every plan execution, so a cached
        # plan re-bound with new $parameters re-expands from the *current*
        # frontier instead of replaying the first execution's paths
        result = environment.iterate(
            frontier, step, max_iterations=upper, static=(edges,),
            name="ExpandEmbeddings:iterate",
        )
        if lower == 0:
            zero_hop = frontier.flat_map(
                emit_result, name="ExpandEmbeddings:zero-hop"
            )
            result = result.union(zero_hop)
        return result

    def describe(self):
        types = (
            ":" + "|".join(self.query_edge.types) if self.query_edge.types else ""
        )
        return "ExpandEmbeddings((%s)-[%s%s*%d..%d]->(%s)%s%s)" % (
            self.query_edge.source,
            self.query_edge.variable,
            types,
            self.query_edge.lower,
            self.query_edge.upper,
            self.query_edge.target,
            ", closing" if self.closing else "",
            ", reverse" if self.reverse else "",
        )


"""Label-indexed logical graphs (paper §3.4).

Gradoop's ``IndexedLogicalGraph`` partitions vertices and edges by type
label and manages a separate dataset per label.  When a query vertex or
edge carries a label predicate, the planner loads only that label's
dataset instead of scanning (and filtering) the union of all elements.
"""

from .logical_graph import LogicalGraph


class IndexedLogicalGraph(LogicalGraph):
    """A logical graph with one dataset per vertex/edge label."""

    def __init__(self, environment, graph_head, vertices, edges, id_factory=None):
        super().__init__(environment, graph_head, vertices, edges, id_factory)
        self._vertex_index = {}
        self._edge_index = {}

    @classmethod
    def from_logical_graph(cls, graph):
        """Index an existing logical graph by materializing its elements."""
        indexed = cls(
            graph.environment,
            graph.graph_head,
            graph.vertices,
            graph.edges,
            id_factory=graph.id_factory,
        )
        indexed._build_index(graph.collect_vertices(), graph.collect_edges())
        return indexed

    @classmethod
    def from_elements(cls, environment, graph_head, vertices, edges):
        """Index element lists that already carry their graph membership.

        The full datasets and the per-label ones are built from the same
        in-memory lists (a data source's read), so loading indexed costs
        one grouping pass instead of a dataflow collect.
        """
        indexed = cls(
            environment,
            graph_head,
            environment.from_collection(vertices, name="vertices"),
            environment.from_collection(edges, name="edges"),
        )
        indexed._build_index(vertices, edges)
        return indexed

    @classmethod
    def from_collections(
        cls, environment, vertices, edges, graph_head=None, id_factory=None
    ):
        base = LogicalGraph.from_collections(
            environment, vertices, edges, graph_head, id_factory
        )
        indexed = cls(
            environment,
            base.graph_head,
            base.vertices,
            base.edges,
            id_factory=base.id_factory,
        )
        indexed._build_index(vertices, edges)
        return indexed

    def _build_index(self, vertices, edges):
        by_vertex_label = {}
        for vertex in vertices:
            by_vertex_label.setdefault(vertex.label, []).append(vertex)
        by_edge_label = {}
        for edge in edges:
            by_edge_label.setdefault(edge.label, []).append(edge)
        self._vertex_index = {
            label: self.environment.from_collection(
                elements, name="vertices[:%s]" % label
            )
            for label, elements in by_vertex_label.items()
        }
        self._edge_index = {
            label: self.environment.from_collection(
                elements, name="edges[:%s]" % label
            )
            for label, elements in by_edge_label.items()
        }

    @property
    def vertex_labels(self):
        return sorted(self._vertex_index.keys())

    @property
    def edge_labels(self):
        return sorted(self._edge_index.keys())

    def vertices_by_label(self, label):
        """Only the requested label's dataset — no scan over other labels."""
        if label in self._vertex_index:
            return self._vertex_index[label]
        return self.environment.from_collection([], name="vertices[:%s]" % label)

    def edges_by_label(self, label):
        if label in self._edge_index:
            return self._edge_index[label]
        return self.environment.from_collection([], name="edges[:%s]" % label)

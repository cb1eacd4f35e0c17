"""Gradoop-style CSV data source and sink.

The paper stores LDBC data "in HDFS using a Gradoop-specific CSV format"
(§4).  We reproduce that format on the local filesystem: a directory with

* ``metadata.csv`` — per label: element kind, label, ordered property keys
  and types;
* ``graphs.csv`` — one graph head per line;
* ``vertices.csv`` / ``edges.csv`` — elements with graph membership,
  (endpoints,) label and property values in metadata order.

Field separator is ``;``, property separator is ``|``; both are escaped
with a backslash inside values.
"""

import os

from ..elements import Edge, GraphHead, Vertex
from ..graph_collection import GraphCollection
from ..identifiers import GradoopId
from ..indexed import IndexedLogicalGraph
from ..property_value import PropertyValue

_KIND_GRAPH = "g"
_KIND_VERTEX = "v"
_KIND_EDGE = "e"

def _escape(text):
    return (
        text.replace("\\", "\\\\")
        .replace(";", "\\;")
        .replace("|", "\\|")
        .replace("\n", "\\n")
    )


def _split(line, separator):
    """Split on an unescaped separator, keeping escape sequences intact.

    Values pass through two split levels (``;`` fields, then ``|``
    properties), so unescaping must happen exactly once, at the end, via
    :func:`_unescape`.
    """
    fields = []
    current = []
    escaped = False
    for char in line:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == separator:
            fields.append("".join(current))
            current = []
        else:
            current.append(char)
    fields.append("".join(current))
    return fields


def _unescape(text):
    """Resolve backslash escapes produced by :func:`_escape`."""
    out = []
    escaped = False
    for char in text:
        if escaped:
            out.append("\n" if char == "n" else char)
            escaped = False
        elif char == "\\":
            escaped = True
        else:
            out.append(char)
    return "".join(out)


def _format_value(value):
    raw = value.raw()
    if raw is None:
        return ""
    if isinstance(raw, bool):
        return "true" if raw else "false"
    return _escape(str(raw))


def _parse_value(text, type_name):
    if text == "":
        return None
    text = _unescape(text)
    if type_name == "string":
        return text
    if type_name == "int":
        return int(text)
    if type_name == "float":
        return float(text)
    if type_name == "boolean":
        return text == "true"
    raise ValueError("unknown property type %r in metadata" % type_name)


def _type_name_of(value):
    raw = value.raw()
    if isinstance(raw, bool):
        return "boolean"
    if isinstance(raw, int):
        return "int"
    if isinstance(raw, float):
        return "float"
    return "string"


class _Metadata:
    """Per-(kind, label) ordered property schema."""

    def __init__(self):
        self.schemas = {}

    def observe(self, kind, element):
        schema = self.schemas.setdefault((kind, element.label), {})
        for key, value in element.properties.items():
            if not value.is_null and key not in schema:
                schema[key] = _type_name_of(value)

    def keys_for(self, kind, label):
        return list(self.schemas.get((kind, label), {}).keys())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for (kind, label), schema in sorted(self.schemas.items()):
                columns = ",".join(
                    "%s:%s" % (key, type_name) for key, type_name in schema.items()
                )
                handle.write("%s;%s;%s\n" % (kind, _escape(label), columns))

    @classmethod
    def read(cls, path):
        metadata = cls()
        if not os.path.exists(path):
            return metadata
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                kind, label, columns = _split(line, ";")
                label = _unescape(label)
                schema = {}
                if columns:
                    for column in columns.split(","):
                        key, type_name = column.split(":")
                        schema[key] = type_name
                metadata.schemas[(kind, label)] = schema
        return metadata


#: Statistics file written next to the element files (see
#: :meth:`CSVDataSink.write_logical_graph`); Gradoop ships comparable
#: per-dataset statistics for its planner.
STATISTICS_FILE = "statistics.json"


class CSVDataSink:
    """Write a logical graph or collection to a directory."""

    def __init__(self, path):
        self.path = path

    def write_logical_graph(self, graph, with_statistics=True):
        """Write the graph; by default also pre-compute and persist the
        planner statistics so readers skip the counting pass (§3.2)."""
        self.write_graph_collection(GraphCollection.from_graph(graph))
        if with_statistics:
            from repro.engine.statistics import GraphStatistics

            GraphStatistics.from_graph(graph).write_json(
                os.path.join(self.path, STATISTICS_FILE)
            )

    def write_graph_collection(self, collection):
        os.makedirs(self.path, exist_ok=True)
        heads = collection.collect_graph_heads()
        vertices = collection.vertices.collect()
        edges = collection.edges.collect()

        metadata = _Metadata()
        for head in heads:
            metadata.observe(_KIND_GRAPH, head)
        for vertex in vertices:
            metadata.observe(_KIND_VERTEX, vertex)
        for edge in edges:
            metadata.observe(_KIND_EDGE, edge)
        metadata.write(os.path.join(self.path, "metadata.csv"))

        with open(
            os.path.join(self.path, "graphs.csv"), "w", encoding="utf-8"
        ) as handle:
            for head in heads:
                handle.write(
                    "%d;%s;%s\n"
                    % (
                        head.id.value,
                        _escape(head.label),
                        self._format_properties(metadata, _KIND_GRAPH, head),
                    )
                )
        with open(
            os.path.join(self.path, "vertices.csv"), "w", encoding="utf-8"
        ) as handle:
            for vertex in vertices:
                handle.write(
                    "%d;%s;%s;%s\n"
                    % (
                        vertex.id.value,
                        self._format_graph_ids(vertex),
                        _escape(vertex.label),
                        self._format_properties(metadata, _KIND_VERTEX, vertex),
                    )
                )
        with open(
            os.path.join(self.path, "edges.csv"), "w", encoding="utf-8"
        ) as handle:
            for edge in edges:
                handle.write(
                    "%d;%s;%d;%d;%s;%s\n"
                    % (
                        edge.id.value,
                        self._format_graph_ids(edge),
                        edge.source_id.value,
                        edge.target_id.value,
                        _escape(edge.label),
                        self._format_properties(metadata, _KIND_EDGE, edge),
                    )
                )

    @staticmethod
    def _format_graph_ids(element):
        return "[%s]" % ",".join(str(g.value) for g in sorted(element.graph_ids))

    @staticmethod
    def _format_properties(metadata, kind, element):
        keys = metadata.keys_for(kind, element.label)
        return "|".join(_format_value(element.get_property(key)) for key in keys)


class CSVDataSource:
    """Read a logical graph or collection from a directory."""

    def __init__(self, path):
        self.path = path

    def get_graph_collection(self, environment):
        metadata = _Metadata.read(os.path.join(self.path, "metadata.csv"))
        heads = list(self._read_graphs(metadata))
        vertices = list(self._read_vertices(metadata))
        edges = list(self._read_edges(metadata))
        return GraphCollection.from_collections(environment, heads, vertices, edges)

    def get_logical_graph(self, environment):
        """Read a single logical graph (the collection must have one head).

        The graph is label-indexed (paper §3.4): a label predicate reads
        only its label's vertices or edges instead of filtering them all.
        """
        metadata = _Metadata.read(os.path.join(self.path, "metadata.csv"))
        heads = list(self._read_graphs(metadata))
        if len(heads) != 1:
            raise ValueError(
                "expected exactly one graph head, found %d" % len(heads)
            )
        vertices = list(self._read_vertices(metadata))
        edges = list(self._read_edges(metadata))
        return IndexedLogicalGraph.from_elements(
            environment, heads[0], vertices, edges
        )

    def get_statistics(self):
        """Persisted planner statistics, or ``None`` if absent."""
        path = os.path.join(self.path, STATISTICS_FILE)
        if not os.path.exists(path):
            return None
        from repro.engine.statistics import GraphStatistics

        return GraphStatistics.read_json(path)

    # Readers ------------------------------------------------------------------

    def _lines(self, filename):
        path = os.path.join(self.path, filename)
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if line:
                    yield line

    def _read_graphs(self, metadata):
        for line in self._lines("graphs.csv"):
            graph_id, label, values = _split(line, ";")
            yield GraphHead(
                GradoopId(int(graph_id)),
                label=_unescape(label),
                properties=self._parse_properties(metadata, _KIND_GRAPH, label, values),
            )

    def _read_vertices(self, metadata):
        for line in self._lines("vertices.csv"):
            vertex_id, graph_ids, label, values = _split(line, ";")
            yield Vertex(
                GradoopId(int(vertex_id)),
                label=_unescape(label),
                properties=self._parse_properties(
                    metadata, _KIND_VERTEX, label, values
                ),
                graph_ids=self._parse_graph_ids(graph_ids),
            )

    def _read_edges(self, metadata):
        for line in self._lines("edges.csv"):
            edge_id, graph_ids, source, target, label, values = _split(line, ";")
            yield Edge(
                GradoopId(int(edge_id)),
                label=_unescape(label),
                source_id=GradoopId(int(source)),
                target_id=GradoopId(int(target)),
                properties=self._parse_properties(metadata, _KIND_EDGE, label, values),
                graph_ids=self._parse_graph_ids(graph_ids),
            )

    @staticmethod
    def _parse_graph_ids(field):
        inner = field.strip("[]")
        if not inner:
            return set()
        return {GradoopId(int(part)) for part in inner.split(",")}

    @staticmethod
    def _parse_properties(metadata, kind, label, values_field):
        keys = metadata.keys_for(kind, label)
        if not keys:
            return None
        values = _split(values_field, "|")
        properties = {}
        for key, text in zip(keys, values):
            parsed = _parse_value(text, metadata.schemas[(kind, label)][key])
            if parsed is not None:
                properties[key] = PropertyValue(parsed)
        return properties

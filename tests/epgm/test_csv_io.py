"""Round-trip tests for the Gradoop-style CSV source/sink."""

import pytest

from repro.engine import CypherRunner
from repro.epgm import GraphCollection, LogicalGraph
from repro.epgm.indexed import IndexedLogicalGraph
from repro.epgm.io import CSVDataSink, CSVDataSource


@pytest.fixture
def graph_dir(tmp_path, figure1_graph):
    path = str(tmp_path / "graph")
    CSVDataSink(path).write_logical_graph(figure1_graph)
    return path


class TestRoundTrip:
    def test_counts_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        assert restored.vertex_count() == 5
        assert restored.edge_count() == 8

    def test_labels_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        labels = sorted({v.label for v in restored.collect_vertices()})
        assert labels == ["City", "Person", "University"]

    def test_properties_preserved_with_types(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        eve = [
            v
            for v in restored.collect_vertices()
            if v.get_property("name").raw() == "Eve"
        ][0]
        assert eve.get_property("yob").raw() == 1984  # int, not "1984"
        assert eve.get_property("gender").raw() == "female"

    def test_edge_endpoints_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        knows = [e for e in restored.collect_edges() if e.label == "knows"]
        pairs = {(e.source_id.value, e.target_id.value) for e in knows}
        assert pairs == {(10, 20), (20, 10), (20, 30), (30, 20)}

    def test_graph_membership_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        head_id = restored.graph_head.id
        assert all(v.in_graph(head_id) for v in restored.collect_vertices())

    def test_graph_head_properties_preserved(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        assert restored.graph_head.get_property("area").raw() == "Leipzig"

    def test_missing_property_stays_null(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        alice = [
            v
            for v in restored.collect_vertices()
            if v.get_property("name").raw() == "Alice"
        ][0]
        assert alice.get_property("yob").is_null


class TestEdgeCases:
    def test_values_with_separators_escape(self, env, tmp_path):
        from repro.epgm import GradoopId, Vertex

        vertex = Vertex(
            GradoopId(1), label="Note", properties={"text": "a;b|c\\d\ne"}
        )
        graph = LogicalGraph.from_collections(env, [vertex], [])
        path = str(tmp_path / "escaped")
        CSVDataSink(path).write_logical_graph(graph)
        restored = CSVDataSource(path).get_logical_graph(env)
        assert restored.collect_vertices()[0].get_property("text").raw() == "a;b|c\\d\ne"

    def test_collection_roundtrip(self, env, tmp_path, figure1_graph):
        collection = GraphCollection.from_graph(figure1_graph)
        path = str(tmp_path / "collection")
        CSVDataSink(path).write_graph_collection(collection)
        restored = CSVDataSource(path).get_graph_collection(env)
        assert restored.graph_count() == 1
        assert restored.vertices.count() == 5

    def test_multiple_heads_rejected_for_logical_graph(self, env, tmp_path):
        from repro.epgm import GradoopId, GraphHead

        collection = GraphCollection.from_collections(
            env, [GraphHead(GradoopId(1)), GraphHead(GradoopId(2))], [], []
        )
        path = str(tmp_path / "two-heads")
        CSVDataSink(path).write_graph_collection(collection)
        with pytest.raises(ValueError):
            CSVDataSource(path).get_logical_graph(env)

    def test_empty_graph_roundtrip(self, env, tmp_path):
        graph = LogicalGraph.from_collections(env, [], [])
        path = str(tmp_path / "empty")
        CSVDataSink(path).write_logical_graph(graph)
        restored = CSVDataSource(path).get_logical_graph(env)
        assert restored.vertex_count() == 0
        assert restored.edge_count() == 0


class TestLabelIndexedLoad:
    """The CSV source loads graphs label-indexed (paper §3.4)."""

    QUERY = (
        "MATCH (a:Person)-[e:knows]->(b:Person) "
        "RETURN a.name, b.name ORDER BY a.name, b.name"
    )

    def test_source_returns_an_indexed_graph(self, env, graph_dir):
        restored = CSVDataSource(graph_dir).get_logical_graph(env)
        assert isinstance(restored, IndexedLogicalGraph)
        assert restored.vertex_labels == ["City", "Person", "University"]
        assert sorted(restored.edge_labels) == restored.edge_labels
        persons = restored.vertices_by_label("Person").collect()
        assert sorted(v.get_property("name").raw() for v in persons) == [
            "Alice", "Bob", "Eve",
        ]

    def test_label_scoped_query_reads_fewer_records(self, env, graph_dir):
        indexed = CSVDataSource(graph_dir).get_logical_graph(env)
        plain = LogicalGraph(
            env,
            indexed.graph_head,
            env.from_collection(indexed.collect_vertices()),
            env.from_collection(indexed.collect_edges()),
        )
        measured = {}
        for name, graph in (("indexed", indexed), ("plain", plain)):
            runner = CypherRunner(graph)
            with env.job(name) as metrics:
                rows = runner.execute_table(self.QUERY)
            measured[name] = (rows, metrics.total_records_processed)
        assert measured["indexed"][0] == measured["plain"][0]
        assert measured["indexed"][0]
        assert measured["indexed"][1] < measured["plain"][1]

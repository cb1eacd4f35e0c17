"""Graph I/O and the label-indexed graph representation.

Writes a generated social network to the Gradoop-style CSV format, reads
it back (the CSV source loads the IndexedLogicalGraph of paper §3.4), and
compares query scan volume with a plain LogicalGraph over the same
elements.
"""

import os
import tempfile

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner
from repro.epgm import IndexedLogicalGraph, LogicalGraph
from repro.epgm.io import CSVDataSink, CSVDataSource
from repro.ldbc import generate_graph

QUERY = "MATCH (p:Person)-[:studyAt]->(u:University) RETURN p.firstName, u.name"


def main():
    environment = ExecutionEnvironment(parallelism=4)
    graph = generate_graph(environment, scale_factor=0.1, seed=7)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "social-network")
        CSVDataSink(path).write_logical_graph(graph)
        print("wrote graph to", path)
        print("files:", sorted(os.listdir(path)))

        restored = CSVDataSource(path).get_logical_graph(environment)
        print(
            "restored: %d vertices, %d edges"
            % (restored.vertex_count(), restored.edge_count())
        )

        # plain representation: every query vertex scans all vertices
        plain = LogicalGraph(
            environment,
            restored.graph_head,
            environment.from_collection(restored.collect_vertices()),
            environment.from_collection(restored.collect_edges()),
        )
        environment.reset_metrics("plain")
        plain_rows = CypherRunner(plain).execute_table(QUERY)
        plain_scanned = environment.metrics.total_records_processed

        # label-indexed representation: per-label datasets (paper §3.4)
        indexed = restored
        assert isinstance(indexed, IndexedLogicalGraph)
        environment.reset_metrics("indexed")
        indexed_rows = CypherRunner(indexed).execute_table(QUERY)
        indexed_scanned = environment.metrics.total_records_processed

        assert len(plain_rows) == len(indexed_rows)
        print("\nquery:", QUERY)
        print("results:", len(plain_rows))
        print("records processed, plain graph:  ", plain_scanned)
        print("records processed, indexed graph:", indexed_scanned)
        print(
            "indexed representation scanned %.1fx fewer records"
            % (plain_scanned / indexed_scanned)
        )


if __name__ == "__main__":
    main()

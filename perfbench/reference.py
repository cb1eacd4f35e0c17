"""Expected rows of every distinct request, from the per-record reference path.

``repro serve`` is configured from the CLI's own defaults, so the
reference runner is too: same graph loading, same morphism strategies,
only execution forced to the per-record path (``fused=False``).  Rows are
compared as multisets after the same JSON round trip the server applies,
in the canonical form of ``repro.server.bench.rows_multiset``.
"""

import json


def load_like_serve(graph_dir):
    """``(arguments, graph, statistics)`` exactly as ``repro serve`` loads them.

    ``arguments`` are the parsed arguments of ``repro serve GRAPH_DIR``
    with no other flags.
    """
    from repro.cli import _load, build_parser
    from repro.engine import GraphStatistics

    arguments = build_parser().parse_args(["serve", graph_dir])
    _, graph, statistics = _load(arguments)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    return arguments, graph, statistics


def canonical_rows(rows):
    """The served form of ``rows`` (JSON round trip), as a row multiset."""
    from repro.server.bench import rows_multiset

    # the server stringifies engine values it cannot encode the same way
    return rows_multiset(json.loads(json.dumps(rows, default=str)))


def expected_rows(arguments, graph, statistics, kinds):
    """``{kind: canonical row multiset}`` for ``(template, kind, text, params)``.

    ``arguments``, ``graph`` and ``statistics`` are what
    :func:`load_like_serve` returns.
    """
    from repro.cli import _strategy
    from repro.engine import CypherRunner

    runner = CypherRunner(
        graph,
        statistics=statistics,
        vertex_strategy=_strategy(arguments.vertex_strategy),
        edge_strategy=_strategy(arguments.edge_strategy),
        fused=False,
    )
    expected = {}
    for _, kind, text, parameters in kinds:
        if kind not in expected:
            rows = runner.execute_table(text, parameters=parameters)
            expected[kind] = canonical_rows(rows)
    return expected


def person_first_names(graph):
    """The distinct ``firstName`` values of the graph's persons, sorted."""
    return sorted({
        vertex.get_property("firstName").raw()
        for vertex in graph.collect_vertices()
        if vertex.label == "Person"
    })

"""Golden simulated-cost streams of variable-length expansion.

The simulated cluster (:mod:`repro.dataflow.cost`) reads every
:class:`~repro.dataflow.metrics.OperatorRun` an execution records, and the
paper-figure benchmarks assert shapes computed from them.  Speed work on
``ExpandEmbeddings`` (byte accounting, the loop-invariant edge relation,
the morphism frontier) must leave that stream bit-identical, so this test
pins the multiset of runs — name, superstep, per-worker records in/out,
shuffled records/bytes, spills — for forward, reverse, undirected,
closing, zero-lower-bound, multi-label and chained expansions under every
morphism combination, on plain and label-indexed graphs, fused and
per-record.

A deliberate change to the cost stream regenerates the fixture::

    PYTHONPATH=src python -m tests.engine.test_expand_metric_identity
"""

import json
import os
from collections import Counter

import pytest

from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CypherRunner,
    MatchStrategy,
    NaiveMatcher,
    canonical_rows_from_embeddings,
)
from repro.epgm.indexed import IndexedLogicalGraph
from repro.epgm.io.gdl import parse_gdl

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "expand_operator_runs.json"
)

#: cycles, a self-loop, two edge labels and weighted edges
GDL = """g[
(a:P {name: "a"})-[:r {w: 1}]->(b:P {name: "b"})-[:r {w: 2}]->(c:P {name: "c"})-[:r {w: 3}]->(a),
(c)-[:r {w: 1}]->(d:P {name: "d"})-[:s {w: 5}]->(a),
(b)-[:r {w: 2}]->(d),
(d)-[:r {w: 4}]->(d),
(b)-[:s {w: 1}]->(c)
]"""

#: query id → (text, the ExpandEmbeddings variant its plan must contain)
QUERIES = {
    "forward": ("MATCH (x:P {name: 'a'})-[e:r*1..4]->(y) RETURN *", None),
    "reverse": (
        "MATCH (x)-[e:r*1..3]->(y:P {name: 'd'}) RETURN *", ", reverse)"
    ),
    "undirected": ("MATCH (x:P {name: 'a'})-[e:r*1..3]-(y) RETURN *", None),
    "closing": (
        "MATCH (x:P)-[f:r]->(y:P), (y)-[e:r*1..3]->(x) RETURN *",
        ", closing)",
    ),
    "lower0": ("MATCH (x:P {name: 'a'})-[e:r*0..2]->(y) RETURN *", "*0..2"),
    "labels": ("MATCH (x:P {name: 'b'})-[e:r|s*1..3]->(y) RETURN *", None),
    "predicate": (
        "MATCH (x:P {name: 'b'})-[e:r*1..3 {w: 2}]->(y) RETURN *", None
    ),
    "chained": (
        "MATCH (x:P {name: 'a'})-[e:r*1..2]->(y), (y)-[f:r*1..2]->(z) "
        "RETURN *",
        None,
    ),
    "empty": ("MATCH (x:P {name: 'zz'})-[e:r*1..3]->(y) RETURN *", None),
}

STRATEGIES = {
    "homo": MatchStrategy.HOMOMORPHISM,
    "iso": MatchStrategy.ISOMORPHISM,
}

GRAPH_KINDS = ("plain", "indexed")


def build_graph(kind):
    graph = parse_gdl(ExecutionEnvironment(parallelism=4), GDL)
    if kind == "indexed":
        graph = IndexedLogicalGraph.from_logical_graph(graph)
    return graph


def run_key(run):
    """Every field of an OperatorRun the cost model or a report reads."""
    return (
        run.name,
        run.iteration,
        run.records_in,
        run.records_out,
        tuple(run.worker_records_in),
        tuple(run.worker_records_out),
        run.shuffled_records,
        run.shuffled_bytes,
        tuple(run.worker_shuffle_bytes_in),
        run.spilled_workers,
    )


def run_multiset(metrics):
    """The runs as a sorted JSON-able list (iteration ``None`` sorts first)."""
    keys = [run_key(run) for run in metrics.runs]
    keys.sort(key=lambda key: (key[0], -1 if key[1] is None else key[1], key[2:]))
    return [list(list(part) if isinstance(part, tuple) else part
                 for part in key) for key in keys]


def case_id(query_id, vertex, edge, kind):
    return "%s|v=%s|e=%s|%s" % (query_id, vertex, edge, kind)


def execute(query_id, vertex, edge, kind, fused):
    graph = build_graph(kind)
    runner = CypherRunner(
        graph,
        vertex_strategy=STRATEGIES[vertex],
        edge_strategy=STRATEGIES[edge],
        fused=fused,
    )
    text, marker = QUERIES[query_id]
    if marker is not None:
        assert marker in runner.explain(text)
    with graph.environment.job("golden") as metrics:
        embeddings, meta = runner.execute_embeddings(text)
    rows = sorted(canonical_rows_from_embeddings(embeddings, meta))
    return graph, rows, run_multiset(metrics)


def all_cases():
    for query_id in QUERIES:
        for vertex in STRATEGIES:
            for edge in STRATEGIES:
                for kind in GRAPH_KINDS:
                    yield query_id, vertex, edge, kind


def record_goldens():
    """Re-record the fixture from the current engine (per-record mode)."""
    goldens = {}
    for query_id, vertex, edge, kind in all_cases():
        _, rows, runs = execute(query_id, vertex, edge, kind, fused=False)
        goldens[case_id(query_id, vertex, edge, kind)] = {
            "rows": len(rows),
            "runs": runs,
        }
    return goldens


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case(goldens):
    assert set(goldens) == {case_id(*case) for case in all_cases()}


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "per-record"])
@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize("edge", list(STRATEGIES))
@pytest.mark.parametrize("vertex", list(STRATEGIES))
@pytest.mark.parametrize("query_id", list(QUERIES))
def test_operator_runs_match_golden(goldens, query_id, vertex, edge, kind,
                                    fused):
    graph, rows, runs = execute(query_id, vertex, edge, kind, fused)
    golden = goldens[case_id(query_id, vertex, edge, kind)]
    assert runs == golden["runs"]
    assert len(rows) == golden["rows"]
    naive = NaiveMatcher(
        graph,
        vertex_strategy=STRATEGIES[vertex],
        edge_strategy=STRATEGIES[edge],
    ).match(QUERIES[query_id][0])
    assert rows == sorted(naive)


def test_goldens_exercise_supersteps_and_empty_frontier(goldens):
    """The fixture is not vacuous: expansions record superstep runs, and
    an empty start frontier records none."""
    forward = goldens[case_id("forward", "homo", "homo", "plain")]["runs"]
    assert {run[1] for run in forward} >= {None, 1, 2, 3, 4}
    empty = goldens[case_id("empty", "homo", "homo", "indexed")]["runs"]
    assert {run[1] for run in empty} == {None}


class TestPreparedRebinding:
    QUERY = "MATCH (x:P {name: $who})-[e:r*1..3]->(y) RETURN *"

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "per-record"])
    def test_rebound_expansion_follows_binding(self, fused):
        graph = build_graph("indexed")
        statement = CypherRunner(graph, fused=fused).prepare(self.QUERY)
        seen = {}
        for who in ("a", "c", "zz", "a"):
            embeddings, meta, metrics = statement.run({"who": who})
            rows = sorted(canonical_rows_from_embeddings(embeddings, meta))
            literal = self.QUERY.replace("$who", "'%s'" % who)
            assert rows == sorted(NaiveMatcher(graph).match(literal))
            runs = run_multiset(metrics)
            if who in seen:
                # nothing of the first execution is replayed or cached
                assert (rows, runs) == seen[who]
            seen[who] = (rows, runs)
        assert seen["a"][0] != seen["c"][0]
        assert not seen["zz"][0]
        assert Counter(run[1] for run in seen["zz"][1])[1] == 0
        assert Counter(run[1] for run in seen["c"][1])[1] > 0


def write_goldens(goldens, handle):
    """One case header and one run per line, so fixture diffs stay readable."""
    cases = []
    for case in sorted(goldens):
        runs = ",\n".join(json.dumps(run) for run in goldens[case]["runs"])
        cases.append('%s: {"rows": %d, "runs": [\n%s]}' % (
            json.dumps(case), goldens[case]["rows"], runs))
    handle.write("{\n" + ",\n".join(cases) + "\n}\n")


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        write_goldens(record_goldens(), handle)
    print("wrote", GOLDEN_PATH)

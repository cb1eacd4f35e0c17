"""The cost of variable-length expansion on the real execution path.

Two contracts that keep ``ExpandEmbeddings`` cheap without touching the
simulated cost stream:

* its edge relation is loop-invariant: the edge flat-map runs once per
  matching edge per *execution*, not once per superstep;
* frontier records and edge triples know their shuffle size, and it is
  exactly the structural estimate of the equivalent plain tuples, so the
  O(1) accounting charges the same bytes as the recursive walk.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.operators.expand as expand_module
from repro.dataflow import ExecutionEnvironment
from repro.dataflow.sizing import estimate_size
from repro.engine import CypherRunner, Embedding
from repro.engine.operators.expand import _EdgeTuple, _FrontierItem
from repro.epgm import GradoopId, PropertyValue
from repro.epgm.io.gdl import parse_gdl

#: a 4-cycle of ``r`` edges plus a chord and a foreign ``s`` edge: every
#: superstep of a ``*1..4`` expansion from ``a`` has a non-empty frontier
GDL = """g[
(a:P {name: "a"})-[:r]->(b:P {name: "b"})-[:r]->(c:P {name: "c"})-[:r]->(d:P {name: "d"})-[:r]->(a),
(b)-[:r]->(d),
(c)-[:s]->(a)
]"""

R_EDGES = 5


def _counting_compile(calls):
    """A ``compile_cnf`` whose compiled predicates count their calls."""
    compile_cnf = expand_module.compile_cnf

    def compile_counting(predicates):
        keep = compile_cnf(predicates)

        def counted(bindings):
            calls.append(bindings)
            return keep(bindings)

        return counted

    return compile_counting


class TestLoopInvariantEdgeRelation:
    def _run(self, monkeypatch, fused, executions):
        calls = []
        monkeypatch.setattr(
            expand_module, "compile_cnf", _counting_compile(calls)
        )
        graph = parse_gdl(ExecutionEnvironment(parallelism=4), GDL)
        statement = CypherRunner(graph, fused=fused).prepare(
            "MATCH (x:P {name: $who})-[e:r*1..4]->(y) RETURN *"
        )
        supersteps = set()
        for _ in range(executions):
            embeddings, _, metrics = statement.run({"who": "a"})
            assert embeddings
            supersteps.update(
                run.iteration for run in metrics.runs
                if run.name.startswith("ExpandEmbeddings(e):edges")
            )
        return calls, supersteps

    def test_edge_flat_map_runs_once_per_edge_per_execution(self, monkeypatch):
        for fused in (True, False):
            calls, supersteps = self._run(monkeypatch, fused, executions=1)
            # the edge relation's runs are still reported per superstep
            assert supersteps == {1, 2, 3, 4}
            assert len(calls) == R_EDGES, fused

    def test_each_execution_reevaluates_the_edge_relation(self, monkeypatch):
        calls, _ = self._run(monkeypatch, fused=True, executions=3)
        assert len(calls) == 3 * R_EDGES


_ids = st.integers(min_value=0, max_value=2**40)
_embeddings = st.lists(
    st.one_of(
        st.tuples(st.just("id"), _ids),
        st.tuples(st.just("path"), st.lists(_ids, max_size=5)),
        st.tuples(
            st.just("props"),
            st.lists(st.one_of(st.none(), st.integers(-2**63, 2**63 - 1),
                               st.text(max_size=8)),
                     max_size=3),
        ),
    ),
    max_size=6,
)
_id_sets = st.frozensets(_ids, max_size=4)


def _build(operations):
    embedding = Embedding()
    for kind, payload in operations:
        if kind == "id":
            embedding = embedding.append_id(GradoopId(payload))
        elif kind == "path":
            embedding = embedding.append_path(payload)
        else:
            embedding = embedding.append_properties(
                [PropertyValue(value) for value in payload]
            )
    return embedding


class TestRecordSizes:
    @settings(max_examples=200, deadline=None)
    @given(
        operations=_embeddings,
        hops=st.integers(min_value=0, max_value=10),
        path_ids=st.lists(_ids, min_size=20, max_size=20),
        end=_ids,
        vertex_ids=_id_sets,
        edge_ids=_id_sets,
    )
    def test_frontier_size_equals_structural_estimate(
        self, operations, hops, path_ids, end, vertex_ids, edge_ids
    ):
        # a path of h hops holds h edge ids and h - 1 internal vertices
        path = tuple(path_ids[:max(2 * hops - 1, 0)])
        plain = (_build(operations), path, end, vertex_ids, edge_ids)
        item = _FrontierItem(plain)
        assert estimate_size(item) == estimate_size(plain)
        assert item == plain

    @given(st.tuples(_ids, _ids, _ids))
    def test_edge_triple_size_is_forty(self, triple):
        assert estimate_size(_EdgeTuple(triple)) == 40
        assert estimate_size(triple) == 40

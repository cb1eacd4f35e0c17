"""Columnar embedding chunks: codec exactness, kernels, shuffle, joins.

The columnar layer (``repro.engine.columnar``) re-encodes batches of
same-shape §3.3 embeddings as contiguous column arrays plus offset
tables.  Everything downstream leans on one invariant: the chunk codec
is an *exact* bijection with the per-record layout — decoding always
reproduces the original ``(id_data, path_data, prop_data)`` bytes, in
order.  Property-based tests pin that invariant (variable-length paths,
empty property maps, null values); model-based tests pin shuffle
placement and byte accounting against the per-record
``stable_hash`` loop; a differential suite pins end-to-end columnar
execution against the per-record interpreter for every paper query ×
planner × morphism strategy, including sanitized runs.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import ExecutionEnvironment, partition_index
from repro.engine import CypherRunner, GraphStatistics, MatchStrategy
from repro.engine.columnar import (
    ColumnarPartition,
    EmbeddingChunk,
    chunk_from_embeddings,
    shuffle_split,
)
from repro.engine.embedding import Embedding, iter_property_records
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.epgm import GradoopId, PropertyValue
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator

_ids = st.integers(min_value=0, max_value=2**40)
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.text(max_size=8),
)
_paths = st.lists(_ids, max_size=5)
_shapes = st.lists(st.sampled_from(["id", "path"]), min_size=1, max_size=4)


@st.composite
def uniform_batches(draw):
    """A non-empty list of embeddings sharing one column shape.

    Rows differ in everything the shape does not fix: path lengths vary
    per row (including empty), property maps vary per row (including
    absent), and property values include nulls.
    """
    shape = draw(_shapes)
    count = draw(st.integers(min_value=1, max_value=12))
    rows = []
    for _ in range(count):
        embedding = Embedding()
        for kind in shape:
            if kind == "id":
                embedding = embedding.append_id(GradoopId(draw(_ids)))
            else:
                embedding = embedding.append_path(
                    [GradoopId(v) for v in draw(_paths)]
                )
        props = draw(st.lists(_values, max_size=3))
        if props:
            embedding = embedding.append_properties(
                [PropertyValue(v) for v in props]
            )
        rows.append(embedding)
    return rows


def _canon(records):
    return [(r.id_data, r.path_data, r.prop_data) for r in records]


# --- codec exactness ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rows=uniform_batches())
def test_roundtrip_reproduces_exact_bytes(rows):
    chunk = chunk_from_embeddings(rows)
    assert chunk is not None
    assert chunk.count == len(rows)
    assert _canon(chunk.to_embeddings()) == _canon(rows)
    # total size is conserved: columnar is a re-arrangement, not a recode
    assert chunk.byte_size() == sum(r.serialized_size() for r in rows)


@settings(max_examples=100, deadline=None)
@given(rows=uniform_batches())
def test_partition_quacks_like_the_record_list(rows):
    partition = ColumnarPartition([chunk_from_embeddings(rows)])
    assert len(partition) == len(rows)
    assert _canon(list(partition)) == _canon(rows)
    assert partition[0] == rows[0]
    assert partition[-1] == rows[-1]


@settings(max_examples=100, deadline=None)
@given(rows=uniform_batches())
def test_prop_spans_match_per_record_walk(rows):
    chunk = chunk_from_embeddings(rows)
    spans = chunk.prop_spans()
    assert len(spans) == chunk.count
    for row, record in enumerate(rows):
        base = chunk.prop_offsets[row]
        # iter_property_records yields (payload_start, payload_length);
        # a chunk span covers the whole record, length prefix included
        expected = [
            (base + start - 2, base + start + length)
            for start, length in iter_property_records(record.prop_data)
        ]
        assert list(spans[row]) == expected
        assert len(spans[row]) == record.property_count


@settings(max_examples=100, deadline=None)
@given(rows=uniform_batches(), data=st.data())
def test_gather_matches_row_selection(rows, data):
    chunk = chunk_from_embeddings(rows)
    picks = data.draw(
        st.lists(
            st.integers(0, len(rows) - 1), max_size=2 * len(rows)
        )
    )
    gathered = chunk.gather(picks)
    assert _canon(gathered.to_embeddings()) == _canon(
        [rows[i] for i in picks]
    )


def test_non_uniform_batches_fall_back():
    one = Embedding().append_id(GradoopId(1))
    two = one.append_id(GradoopId(2))
    assert chunk_from_embeddings([]) is None
    assert chunk_from_embeddings([one, two]) is None  # mixed widths
    assert chunk_from_embeddings([("frontier", 1)]) is None
    assert chunk_from_embeddings([one, ("frontier", 1)]) is None


# --- shuffle placement and byte accounting ----------------------------------


def _make_rows(count, columns, with_payload):
    """Uniform-shape rows; with payload, a path column plus properties.

    Path lengths and property maps vary per row (some empty) without
    changing the column shape, so the batch stays chunkable.
    """
    rows = []
    for index in range(count):
        embedding = Embedding()
        for column in range(columns):
            embedding = embedding.append_id(
                GradoopId(index * 31 + column * 7 + 1)
            )
        if with_payload:
            hops = index % 3
            embedding = embedding.append_path(
                [GradoopId(index + 2 + hop) for hop in range(hops)]
            )
            if index % 2:
                embedding = embedding.append_properties(
                    [PropertyValue("p%d" % index)]
                )
        rows.append(embedding)
    return rows


@pytest.mark.parametrize("count", [8, 64])  # pure-Python and numpy paths
@pytest.mark.parametrize("key_columns", [(0,), (0, 2)])
@pytest.mark.parametrize("with_payload", [False, True])
def test_shuffle_split_matches_per_record_model(
    count, key_columns, with_payload
):
    parallelism = 4
    source = 1
    rows = _make_rows(count, columns=3, with_payload=with_payload)
    chunk = chunk_from_embeddings(rows)

    # the per-record model: stable_hash of the raw id key (tuple for
    # multi-column keys), cross-worker moves counted by serialized size
    expected = [[] for _ in range(parallelism)]
    moved_records = 0
    moved_bytes = 0
    bytes_in = [0] * parallelism
    for row in rows:
        raw = tuple(row.raw_id_at(c) for c in key_columns)
        key = raw[0] if len(raw) == 1 else raw
        target = partition_index(key, parallelism)
        expected[target].append(row)
        if target != source:
            moved_records += 1
            moved_bytes += row.serialized_size()
            bytes_in[target] += row.serialized_size()

    splits, got_records, got_bytes, got_in = shuffle_split(
        [chunk], key_columns, parallelism, source
    )
    assert got_records == moved_records
    assert got_bytes == moved_bytes
    assert list(got_in) == bytes_in
    for target in range(parallelism):
        decoded = [
            row
            for piece in splits[target]
            for row in piece.to_embeddings()
        ]
        assert _canon(decoded) == _canon(expected[target])


def test_shuffle_split_keeps_whole_chunk_without_slicing():
    # all rows share one key ⇒ one target gets the original chunk object
    rows = [
        Embedding().append_id(GradoopId(42)).append_id(GradoopId(i))
        for i in range(40)
    ]
    chunk = chunk_from_embeddings(rows)
    splits, _, _, _ = shuffle_split([chunk], (0,), 4, 0)
    placed = [chunks for chunks in splits if chunks]
    assert len(placed) == 1
    assert placed[0][0] is chunk


# --- end-to-end differential -------------------------------------------------

PLANNERS = (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner)
STRATEGIES = (
    MatchStrategy.HOMOMORPHISM,
    MatchStrategy.ISOMORPHISM,
)


@pytest.fixture(scope="module")
def graphs():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    columnar_env = ExecutionEnvironment(parallelism=4, columnar=True)
    plain_env = ExecutionEnvironment(parallelism=4)
    columnar_graph = dataset.to_logical_graph(columnar_env)
    plain_graph = dataset.to_logical_graph(plain_env)
    return (
        dataset,
        (columnar_graph, GraphStatistics.from_graph(columnar_graph)),
        (plain_graph, GraphStatistics.from_graph(plain_graph)),
    )


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("planner_cls", PLANNERS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_columnar_equals_per_record(graphs, name, planner_cls, strategy):
    dataset, (columnar_graph, columnar_stats), (plain_graph, plain_stats) = (
        graphs
    )
    query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
    columnar = CypherRunner(
        columnar_graph,
        statistics=columnar_stats,
        planner_cls=planner_cls,
        vertex_strategy=strategy,
        edge_strategy=strategy,
        fused=True,
    )
    per_record = CypherRunner(
        plain_graph,
        statistics=plain_stats,
        planner_cls=planner_cls,
        vertex_strategy=strategy,
        edge_strategy=strategy,
        fused=False,
    )
    columnar_embeddings, _ = columnar.execute_embeddings(query)
    per_record_embeddings, _ = per_record.execute_embeddings(query)
    # byte-exact, same order: the kernels are drop-in replacements
    assert _canon(columnar_embeddings) == _canon(per_record_embeddings)


def test_sanitized_run_equals_columnar(graphs):
    dataset, (columnar_graph, columnar_stats), _ = graphs
    query = instantiate(ALL_QUERIES["Q1"], dataset.first_name("medium"))
    plain = CypherRunner(columnar_graph, statistics=columnar_stats)
    sanitized = CypherRunner(
        columnar_graph, statistics=columnar_stats, sanitize="collect"
    )
    plain_embeddings, _ = plain.execute_embeddings(query)
    sanitized_embeddings, _ = sanitized.execute_embeddings(query)
    assert Counter(plain_embeddings) == Counter(sanitized_embeddings)

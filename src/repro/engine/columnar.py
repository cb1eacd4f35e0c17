"""Columnar embedding chunks: batch execution over the §3.3 layout.

A :class:`EmbeddingChunk` stores a batch of embeddings column-wise instead
of row-wise: the fixed-width id entries of all rows live in two flat
tuples (``flags``, ``values``), while the variable-width ``path_data`` /
``prop_data`` payloads are concatenated into single buffers with per-row
offset tables.  Because every §3.3 id entry is exactly
``ENTRY_WIDTH`` bytes, the whole id column block decodes with **one**
``struct.unpack`` and a column projects as a tuple slice
(``values[c::columns]``) — no per-record dispatch, no per-record
``Embedding`` allocation.

The codec is exact and bidirectional: ``chunk_from_embeddings``
followed by ``to_embeddings`` reproduces every record byte-for-byte.
PATH entry values stay *row-relative* (offsets into the row's own
``path_data`` slice), so concatenating rows into a chunk — and slicing
them back out — never rewrites offsets.

Operators gain *columnar kernels* built here and attached as plain
attributes (``columnar_kernel`` / ``columnar_leaf`` / ``columnar_join`` /
``columnar_shuffle``) on the per-record closures the engine already hands
to the dataflow layer.  The dataflow layer discovers them with
``getattr`` — it never imports this module at module scope — and falls
back to the per-record closures whenever a kernel is missing, the input
is not columnar, or the run is sanitized (sanitized runs are per-record
by construction, so the sanitizer always validates the decoded view).

The per-row property *span tables* (:meth:`EmbeddingChunk.prop_spans`)
are the precomputed offset tables that replace the per-call length-field
walks of the per-record accessors on hot paths;
:func:`repro.engine.embedding.iter_property_records` remains the public
walk for the sanitizer and tests.
"""

import struct
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.epgm import GradoopId, PropertyValue
from repro.epgm.property_value import NULL_VALUE
from repro.locks import named_lock

from .embedding import (
    ENTRY_WIDTH,
    FLAG_ID,
    PROP_LEN_WIDTH,
    ElementBindings,
    Embedding,
    _ENTRY,
    _PROP_LEN,
)
from .morphism import MatchStrategy

try:  # vectorized shuffle hashing; the pure-Python loops below are the
    # always-available fallback (the module must import without numpy)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the standard image
    _np = None

_MASK = (1 << 64) - 1

# Compiled struct formats are keyed by entry count, which varies with every
# tail-chunk length — the cache is bounded so pathological batch sizes
# cannot grow it without limit.  Leaf lock role (see docs/architecture.md,
# "Lock hierarchy"): nothing is acquired while it is held.
_struct_lock = named_lock("engine.columnar")
_STRUCT_CACHE_LIMIT = 256
_entry_structs: Dict[int, struct.Struct] = {}  # guarded-by: _struct_lock


def entry_struct(n: int) -> struct.Struct:
    """The big-endian struct of ``n`` consecutive §3.3 id entries."""
    with _struct_lock:
        compiled = _entry_structs.get(n)
    if compiled is None:
        compiled = struct.Struct(">" + "BQ" * n)
        with _struct_lock:
            if len(_entry_structs) < _STRUCT_CACHE_LIMIT:
                _entry_structs[n] = compiled
    return compiled


class EmbeddingChunk:
    """A batch of same-shape embeddings in columnar form.

    ``flags`` and ``values`` are row-major flat tuples of length
    ``count * columns``; row ``r``'s ``path_data`` is
    ``path_buf[path_offsets[r]:path_offsets[r + 1]]`` (``prop_data``
    likewise).  Instances are immutable once built and may be shared
    between partitions (broadcast) without copying.
    """

    __slots__ = (
        "count",
        "columns",
        "flags",
        "values",
        "path_buf",
        "path_offsets",
        "prop_buf",
        "prop_offsets",
        "_id_buf",
        "_prop_spans",
    )

    def __init__(
        self,
        count: int,
        columns: int,
        flags: Tuple[int, ...],
        values: Tuple[int, ...],
        path_buf: bytes,
        path_offsets: Tuple[int, ...],
        prop_buf: bytes,
        prop_offsets: Tuple[int, ...],
        id_buf: Optional[bytes] = None,
    ) -> None:
        self.count = count
        self.columns = columns
        self.flags = flags
        self.values = values
        self.path_buf = path_buf
        self.path_offsets = path_offsets
        self.prop_buf = prop_buf
        self.prop_offsets = prop_offsets
        self._id_buf = id_buf
        self._prop_spans: Optional[Tuple[Tuple[Tuple[int, int], ...], ...]] = None

    def id_buf(self) -> bytes:
        """The canonical §3.3 id bytes of all rows, concatenated."""
        buf = self._id_buf
        if buf is None:
            n = self.count * self.columns
            flat: List[int] = [0] * (2 * n)
            flat[0::2] = self.flags
            flat[1::2] = self.values
            buf = entry_struct(n).pack(*flat)
            self._id_buf = buf
        return buf

    def byte_size(self) -> int:
        """Total serialized size — equals the sum of per-row sizes."""
        return (
            self.count * self.columns * ENTRY_WIDTH
            + len(self.path_buf)
            + len(self.prop_buf)
        )

    def prop_spans(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per-row tuples of absolute ``(start, end)`` property-record spans.

        Built once per chunk by walking the length fields a single time;
        every columnar property access afterwards is a table lookup plus a
        buffer slice (the payload of record ``(s, e)`` is
        ``prop_buf[s + PROP_LEN_WIDTH:e]``).
        """
        table = self._prop_spans
        if table is None:
            buf = self.prop_buf
            unpack_from = _PROP_LEN.unpack_from
            offsets = self.prop_offsets
            rows: List[Tuple[Tuple[int, int], ...]] = []
            for row in range(self.count):
                cursor = offsets[row]
                end = offsets[row + 1]
                spans: List[Tuple[int, int]] = []
                while cursor < end:
                    nxt = cursor + PROP_LEN_WIDTH + unpack_from(buf, cursor)[0]
                    spans.append((cursor, nxt))
                    cursor = nxt
                rows.append(tuple(spans))
            table = tuple(rows)
            self._prop_spans = table
        return table

    def to_embeddings(self) -> List[Embedding]:
        """Decode every row back to the exact per-record §3.3 layout."""
        id_buf = self.id_buf()
        width = self.columns * ENTRY_WIDTH
        path_buf = self.path_buf
        prop_buf = self.prop_buf
        path_offsets = self.path_offsets
        prop_offsets = self.prop_offsets
        out = []
        append = out.append
        for row in range(self.count):
            append(
                Embedding(
                    id_buf[row * width:(row + 1) * width],
                    path_buf[path_offsets[row]:path_offsets[row + 1]],
                    prop_buf[prop_offsets[row]:prop_offsets[row + 1]],
                )
            )
        return out

    def gather(self, rows: Sequence[int]) -> "EmbeddingChunk":
        """A new chunk holding ``rows`` (in the given order).

        Row-relative path offsets make this pure slicing — no entry is
        unpacked or rewritten.
        """
        columns = self.columns
        flags = self.flags
        values = self.values
        if columns == 1:
            new_flags = tuple(flags[row] for row in rows)
            new_values = tuple(values[row] for row in rows)
        else:
            if self.path_buf:
                gathered_flags: List[int] = []
                extend_flags = gathered_flags.extend
                for row in rows:
                    base = row * columns
                    extend_flags(flags[base:base + columns])
                new_flags = tuple(gathered_flags)
            else:
                # no paths ⇒ every entry is a plain id
                new_flags = (FLAG_ID,) * (len(rows) * columns)
            gathered: List[int] = []
            extend = gathered.extend
            for row in rows:
                base = row * columns
                extend(values[base:base + columns])
            new_values = tuple(gathered)
        path_buf, path_offsets = _gather_buffer(
            self.path_buf, self.path_offsets, rows
        )
        prop_buf, prop_offsets = _gather_buffer(
            self.prop_buf, self.prop_offsets, rows
        )
        return EmbeddingChunk(
            len(rows),
            columns,
            new_flags,
            new_values,
            path_buf,
            path_offsets,
            prop_buf,
            prop_offsets,
        )

    def __repr__(self) -> str:
        return "EmbeddingChunk(%d rows x %d columns)" % (self.count, self.columns)


def _gather_buffer(
    buf: bytes, offsets: Tuple[int, ...], rows: Sequence[int]
) -> Tuple[bytes, Tuple[int, ...]]:
    if not buf:
        return b"", (0,) * (len(rows) + 1)
    parts = []
    new_offsets = [0]
    total = 0
    for row in rows:
        start = offsets[row]
        end = offsets[row + 1]
        if end > start:
            parts.append(buf[start:end])
            total += end - start
        new_offsets.append(total)
    return b"".join(parts), tuple(new_offsets)


def chunk_from_embeddings(records: Sequence[Any]) -> Optional[EmbeddingChunk]:
    """Encode a batch of embeddings; ``None`` if the batch is not uniform.

    Uniform means: non-empty, every record an :class:`Embedding`, every
    record with the same column count.  Mixed batches (or batches of
    non-embedding records, e.g. expansion frontier tuples) return ``None``
    and the caller stays on the per-record path.
    """
    count = len(records)
    if count == 0:
        return None
    first = records[0]
    if type(first) is not Embedding:
        return None
    width = len(first.id_data)
    columns, remainder = divmod(width, ENTRY_WIDTH)
    if remainder:
        return None
    id_parts = []
    path_parts = []
    prop_parts = []
    path_offsets = [0]
    prop_offsets = [0]
    path_total = 0
    prop_total = 0
    for record in records:
        if type(record) is not Embedding or len(record.id_data) != width:
            return None
        id_parts.append(record.id_data)
        path_parts.append(record.path_data)
        path_total += len(record.path_data)
        path_offsets.append(path_total)
        prop_parts.append(record.prop_data)
        prop_total += len(record.prop_data)
        prop_offsets.append(prop_total)
    id_buf = b"".join(id_parts)
    flat = entry_struct(count * columns).unpack(id_buf)
    return EmbeddingChunk(
        count,
        columns,
        flat[0::2],
        flat[1::2],
        b"".join(path_parts),
        tuple(path_offsets),
        b"".join(prop_parts),
        tuple(prop_offsets),
        id_buf=id_buf,
    )


class ColumnarPartition:
    """A partition stored as a list of chunks, decoding lazily.

    Quacks like the list of embeddings it encodes: ``len``, iteration,
    indexing and slicing all work (decoding at most once, cached), so
    every operator without a columnar kernel — and every consumer like
    ``DataSet.collect`` — reads it transparently.  The dataflow layer
    recognizes columnar partitions by their ``chunks`` attribute.
    """

    __slots__ = ("chunks", "_rows")

    def __init__(self, chunks: Sequence[EmbeddingChunk]) -> None:
        self.chunks = list(chunks)
        self._rows: Optional[List[Embedding]] = None

    def rows(self) -> List[Embedding]:
        rows = self._rows
        if rows is None:
            rows = []
            for chunk in self.chunks:
                rows.extend(chunk.to_embeddings())
            self._rows = rows
        return rows

    def byte_size(self) -> int:
        return sum(chunk.byte_size() for chunk in self.chunks)

    def __len__(self) -> int:
        return sum(chunk.count for chunk in self.chunks)

    def __iter__(self) -> Iterator[Embedding]:
        return iter(self.rows())

    def __getitem__(self, item: Any) -> Any:
        return self.rows()[item]

    def __repr__(self) -> str:
        return "ColumnarPartition(%d chunks, %d rows)" % (
            len(self.chunks),
            len(self),
        )


# Kernels ---------------------------------------------------------------------
#
# A *chunk kernel* is ``EmbeddingChunk -> EmbeddingChunk``; a *leaf kernel*
# is ``list[element] -> EmbeddingChunk``.  All kernels are semantically
# identical to the per-record closures they shadow — the decoded output of
# the kernel equals the per-record outputs byte-for-byte, in the same
# order — which the columnar-vs-per-record differential suite pins.


class ChunkRowBindings:
    """CNF bindings over one chunk row (no Embedding materialization).

    Property reads go through the chunk's precomputed span table instead
    of a per-call length-field walk.
    """

    __slots__ = ("chunk", "row", "_prop_indexes", "_id_columns", "_spans")

    def __init__(self, chunk, row, prop_indexes, id_columns, spans):
        self.chunk = chunk
        self.row = row
        self._prop_indexes = prop_indexes
        self._id_columns = id_columns
        self._spans = spans

    def property_value(self, variable, key):
        index = self._prop_indexes.get((variable, key))
        if index is None:
            return NULL_VALUE
        start, end = self._spans[index]
        buf = self.chunk.prop_buf
        return PropertyValue.from_bytes(buf[start + PROP_LEN_WIDTH:end])[0]

    def label(self, variable):
        raise KeyError(
            "label of %r is not available after the leaf operators" % variable
        )

    def element_id(self, variable):
        column = self._id_columns.get(variable)
        if column is None:
            raise KeyError("variable %r not in embedding" % variable)
        chunk = self.chunk
        return GradoopId(chunk.values[self.row * chunk.columns + column])


def select_kernel(evaluate, meta):
    """Chunk kernel of ``SelectEmbeddings``: keep rows satisfying the CNF."""
    prop_indexes = {
        pair: index for index, pair in enumerate(meta.property_entries())
    }
    id_columns = {
        variable: meta.entry_column(variable)
        for variable in meta.variables
        if meta.entry_kind(variable) != "p"
    }

    def kernel(chunk):
        spans = chunk.prop_spans()
        kept = [
            row
            for row in range(chunk.count)
            if evaluate(
                ChunkRowBindings(chunk, row, prop_indexes, id_columns, spans[row])
            )
        ]
        if len(kept) == chunk.count:
            return chunk
        return chunk.gather(kept)

    return kernel


def project_kernel(keep_indices):
    """Chunk kernel of ``ProjectEmbeddings``: slice kept property records."""
    keep = tuple(keep_indices)

    def kernel(chunk):
        span_table = chunk.prop_spans()
        buf = chunk.prop_buf
        parts = []
        offsets = [0]
        total = 0
        for row in range(chunk.count):
            spans = span_table[row]
            for index in keep:
                start, end = spans[index]
                parts.append(buf[start:end])
                total += end - start
            offsets.append(total)
        return EmbeddingChunk(
            chunk.count,
            chunk.columns,
            chunk.flags,
            chunk.values,
            chunk.path_buf,
            chunk.path_offsets,
            b"".join(parts),
            tuple(offsets),
            id_buf=chunk._id_buf,
        )

    return kernel


def _encode_properties(element, keys, parts):
    """Append ``element``'s property records for ``keys``; returns byte count."""
    total = 0
    for key in keys:
        value = element.get_property(key)
        if not isinstance(value, PropertyValue):
            value = PropertyValue(value)
        payload = value.to_bytes()
        parts.append(_PROP_LEN.pack(len(payload)))
        parts.append(payload)
        total += PROP_LEN_WIDTH + len(payload)
    return total


def leaf_vertex_kernel(variable, keep, keys):
    """Leaf kernel of ``SelectAndProjectVertices``: elements → one chunk.

    The per-element CNF (including the label-equality fast path, which
    needs the element at hand) still runs per vertex, but surviving rows
    are written straight into column buffers — no intermediate
    ``Embedding`` objects, no per-record ``struct.pack``.
    """
    keys = tuple(keys)

    def kernel(elements):
        values = []
        append_value = values.append
        prop_parts: List[bytes] = []
        prop_offsets = [0]
        total = 0
        for vertex in elements:
            if not keep(ElementBindings(variable, vertex)):
                continue
            append_value(vertex.id.value)
            if keys:
                total += _encode_properties(vertex, keys, prop_parts)
            prop_offsets.append(total)
        count = len(values)
        return EmbeddingChunk(
            count,
            1,
            (FLAG_ID,) * count,
            tuple(values),
            b"",
            (0,) * (count + 1),
            b"".join(prop_parts),
            tuple(prop_offsets),
        )

    return kernel


def leaf_edge_kernel(variable, keep, keys, is_loop, undirected, distinct_endpoints):
    """Leaf kernel of ``SelectAndProjectEdges``: elements → one chunk."""
    keys = tuple(keys)
    columns = 2 if is_loop else 3

    def kernel(elements):
        values: List[int] = []
        extend_values = values.extend
        prop_parts: List[bytes] = []
        prop_offsets = [0]
        total = 0
        count = 0
        for edge in elements:
            if not keep(ElementBindings(variable, edge)):
                continue
            source = edge.source_id.value
            target = edge.target_id.value
            if distinct_endpoints and source == target:
                continue
            if is_loop:
                if source != target:
                    continue
                orientations = ((source, edge.id.value),)
            elif undirected and source != target:
                orientations = (
                    (source, edge.id.value, target),
                    (target, edge.id.value, source),
                )
            else:
                orientations = ((source, edge.id.value, target),)
            for ids in orientations:
                extend_values(ids)
                count += 1
                if keys:
                    total += _encode_properties(edge, keys, prop_parts)
                prop_offsets.append(total)
        return EmbeddingChunk(
            count,
            columns,
            (FLAG_ID,) * (count * columns),
            tuple(values),
            b"",
            (0,) * (count + 1),
            b"".join(prop_parts),
            tuple(prop_offsets),
        )

    return kernel


# Shuffle ---------------------------------------------------------------------


#: below this row count the fixed numpy conversion overhead outweighs the
#: vectorization win and the pure-Python loops run instead
_VECTOR_MIN_ROWS = 32


def _splitmix64_np(z):
    """Vectorized splitmix64 finalizer over a uint64 array (wrapping)."""
    z = z + _np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return z ^ (z >> _np.uint64(31))


def _shuffle_targets(chunk, key_columns, single, parallelism):
    """Per-row target workers of one chunk, as a uint64 numpy array.

    Vectorizes the exact arithmetic of
    :func:`repro.dataflow.partitioner.stable_hash` — int keys through the
    splitmix64 finalizer, tuple keys through the chained accumulator — so
    the placement matches the per-record shuffle bit for bit.
    """
    columns = chunk.columns
    arr = _np.array(chunk.values, dtype=_np.uint64)
    if single is not None:
        keys = arr[single::columns] if columns > 1 else arr
        hashed = _splitmix64_np(keys)
    else:
        hashed = _np.full(chunk.count, 0x345678, dtype=_np.uint64)
        for column in key_columns:
            part = arr[column::columns] if columns > 1 else arr
            hashed = _splitmix64_np(hashed ^ _splitmix64_np(part))
    return hashed % _np.uint64(parallelism)


def shuffle_split(chunks, key_columns, parallelism, source):
    """Split one partition's chunks by join-key hash, without decoding.

    Returns ``(splits, moved_records, moved_bytes, bytes_in)``:
    ``splits[target]`` is the list of chunks routed to ``target`` (rows
    in input order, gathered by slicing).  The splitmix64 avalanche of
    :func:`repro.dataflow.partitioner.stable_hash` runs vectorized over
    the raw key column(s) (pure-Python loops without numpy), and
    multi-column keys replicate the tuple accumulator chain exactly, so
    placement matches the per-record shuffle bit for bit.  Byte
    accounting is identical too — per-row serialized sizes, cross-worker
    moves only.
    """
    key_columns = tuple(key_columns)
    single = key_columns[0] if len(key_columns) == 1 else None
    out_chunks: List[List[EmbeddingChunk]] = [[] for _ in range(parallelism)]
    moved_records = 0
    moved_bytes = 0
    bytes_in = [0] * parallelism
    for chunk in chunks:
        columns = chunk.columns
        values = chunk.values
        row_width = columns * ENTRY_WIDTH
        path_offsets = chunk.path_offsets
        prop_offsets = chunk.prop_offsets
        if _np is not None and chunk.count >= _VECTOR_MIN_ROWS:
            targets = _shuffle_targets(
                chunk, key_columns, single, parallelism
            )
            moved_mask = targets != _np.uint64(source)
            moved = int(moved_mask.sum())
            if moved:
                moved_records += moved
                if not chunk.path_buf and not chunk.prop_buf:
                    # fixed-width rows: counting is enough
                    moved_bytes += moved * row_width
                    counted = _np.bincount(
                        targets[moved_mask].astype(_np.int64),
                        minlength=parallelism,
                    )
                    for target in range(parallelism):
                        bytes_in[target] += (
                            int(counted[target]) * row_width
                        )
                else:
                    sizes = row_width + _np.diff(
                        _np.array(path_offsets, dtype=_np.int64)
                    ) + _np.diff(
                        _np.array(prop_offsets, dtype=_np.int64)
                    )
                    moved_sizes = sizes[moved_mask]
                    moved_bytes += int(moved_sizes.sum())
                    counted = _np.bincount(
                        targets[moved_mask].astype(_np.int64),
                        weights=moved_sizes,
                        minlength=parallelism,
                    )
                    for target in range(parallelism):
                        bytes_in[target] += int(counted[target])
            for target in range(parallelism):
                rows = _np.nonzero(targets == _np.uint64(target))[0]
                if not rows.size:
                    continue
                if rows.size == chunk.count:
                    out_chunks[target].append(chunk)
                else:
                    out_chunks[target].append(
                        chunk.gather(rows.tolist())
                    )
            continue
        buckets: List[List[int]] = [[] for _ in range(parallelism)]
        if single is not None:
            keys = (
                values[single::columns] if columns > 1 else values
            )
            row_targets = []
            for key in keys:
                # splitmix64(key & _MASK) % parallelism, inlined
                z = (key + 0x9E3779B97F4A7C15) & _MASK
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                row_targets.append(
                    ((z ^ (z >> 31)) & _MASK) % parallelism
                )
        else:
            row_targets = []
            for row in range(chunk.count):
                base = row * columns
                # stable_hash of the key tuple: acc chained through
                # splitmix64 over each part's own splitmix64 hash
                acc = 0x345678
                for c in key_columns:
                    part = values[base + c]
                    z = (part + 0x9E3779B97F4A7C15) & _MASK
                    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                    z = acc ^ ((z ^ (z >> 31)) & _MASK)
                    z = (z + 0x9E3779B97F4A7C15) & _MASK
                    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                    acc = (z ^ (z >> 31)) & _MASK
                row_targets.append(acc % parallelism)
        for row, target in enumerate(row_targets):
            buckets[target].append(row)
            if target != source:
                size = (
                    row_width
                    + path_offsets[row + 1]
                    - path_offsets[row]
                    + prop_offsets[row + 1]
                    - prop_offsets[row]
                )
                moved_records += 1
                moved_bytes += size
                bytes_in[target] += size
        for target, rows in enumerate(buckets):
            if not rows:
                continue
            if len(rows) == chunk.count:
                out_chunks[target].append(chunk)
            else:
                out_chunks[target].append(chunk.gather(rows))
    return out_chunks, moved_records, moved_bytes, bytes_in


def shuffle_kernel(key_columns):
    """Columnar hash-repartition over one or more id key columns.

    Splits every chunk by slicing columns (:func:`shuffle_split`) — no
    record is decoded and placement/accounting match the per-record
    shuffle bit for bit.  Returns ``(partitions, moved_records,
    moved_bytes, bytes_in)``.
    """
    key_columns = tuple(key_columns)

    def shuffle(partitions, parallelism):
        out_chunks: List[List[EmbeddingChunk]] = [[] for _ in range(parallelism)]
        moved_records = 0
        moved_bytes = 0
        bytes_in = [0] * parallelism
        for source, partition in enumerate(partitions):
            splits, split_moved, split_bytes, split_in = shuffle_split(
                partition.chunks, key_columns, parallelism, source
            )
            moved_records += split_moved
            moved_bytes += split_bytes
            for target in range(parallelism):
                bytes_in[target] += split_in[target]
                out_chunks[target].extend(splits[target])
        out = [ColumnarPartition(chunks) for chunks in out_chunks]
        return out, moved_records, moved_bytes, bytes_in

    return shuffle


# Hash join -------------------------------------------------------------------


class ColumnarJoinSpec:
    """Compiled columnar hash-join: key columns, merge shape, morphism.

    Exists only for path-free join shapes (PATH-bearing sides fall back to
    the per-record merge, which must rewrite offsets).  ``vertex_columns``
    / ``edge_columns`` are the merged-layout columns each isomorphism
    strategy watches — empty when the check is vacuous, mirroring
    :func:`repro.engine.morphism.compile_morphism_check`.
    """

    __slots__ = (
        "left_count",
        "left_columns",
        "right_columns",
        "keep_columns",
        "vertex_columns",
        "edge_columns",
    )

    def __init__(
        self,
        left_count,
        left_columns,
        right_columns,
        keep_columns,
        vertex_columns,
        edge_columns,
    ):
        self.left_count = left_count
        self.left_columns = left_columns
        self.right_columns = right_columns
        self.keep_columns = keep_columns
        self.vertex_columns = vertex_columns
        self.edge_columns = edge_columns

    def _build_table(self, build_chunks, build_is_left):
        """Key → list of pre-sliced ``(merge_values, prop_bytes)`` pairs.

        Build rows are sliced once here instead of once per match in the
        probe loop: a left-side build stores the full left row tuple, a
        right-side build stores only its kept columns.
        """
        key_columns = self.left_columns if build_is_left else self.right_columns
        keep = self.keep_columns
        table: Dict[Any, List[Tuple[Tuple[int, ...], bytes]]] = {}
        setdefault = table.setdefault
        single = key_columns[0] if len(key_columns) == 1 else None
        has_props = False
        for chunk in build_chunks:
            columns = chunk.columns
            values = chunk.values
            prop_buf = chunk.prop_buf
            prop_offsets = chunk.prop_offsets
            if prop_buf:
                has_props = True
            for row in range(chunk.count):
                base = row * columns
                if single is not None:
                    key = values[base + single]
                else:
                    key = tuple(values[base + c] for c in key_columns)
                if build_is_left:
                    merge_values = values[base:base + columns]
                else:
                    merge_values = tuple(values[base + c] for c in keep)
                start = prop_offsets[row]
                end = prop_offsets[row + 1]
                setdefault(key, []).append(
                    (merge_values, prop_buf[start:end] if end > start else b"")
                )
        return table, has_props

    def hash_join(self, build_chunks, probe_chunks, build_is_left, token=None):
        """Join two chunk lists; returns the output chunks.

        Output rows appear in exactly the order of the per-record
        ``_hash_join`` loop: probe rows in input order, each matched
        against build rows in build-insertion order.
        """
        table, build_has_props = self._build_table(build_chunks, build_is_left)
        if not table:
            return []
        get = table.get
        keep = self.keep_columns
        vertex_watch = self.vertex_columns
        edge_watch = self.edge_columns
        out_columns = self.left_count + len(keep)
        probe_key_columns = (
            self.right_columns if build_is_left else self.left_columns
        )
        single = (
            probe_key_columns[0] if len(probe_key_columns) == 1 else None
        )
        # distinctness as short-circuit pairwise comparisons: for the small
        # watch sets real patterns produce this beats building a set per
        # candidate row; large sets (quadratic pairs) keep the set check
        pairs = [
            (watch[i], watch[j])
            for watch in (vertex_watch, edge_watch)
            for i in range(len(watch))
            for j in range(i + 1, len(watch))
        ]
        check_pairs = tuple(pairs) if len(pairs) <= 8 else None
        # selective single-key joins skip most probe rows: an exact-integer
        # ``isin`` against the build keys drops the misses at C speed and
        # leaves the Python loop only the rows that actually match
        build_keys_arr = None
        if _np is not None and single is not None and len(table) > 0:
            build_keys_arr = _np.fromiter(
                table.keys(), dtype=_np.uint64, count=len(table)
            )
        out_chunks = []
        for chunk in probe_chunks:
            if token is not None:
                # batch boundary: one poll per probe chunk
                token.poll()
            columns = chunk.columns
            values = chunk.values
            prop_buf = chunk.prop_buf
            prop_offsets = chunk.prop_offsets
            # with no prop bytes on either side the whole prop bookkeeping
            # collapses to a zero offset table
            track_props = build_has_props or bool(prop_buf)
            if single is not None:
                probe_keys = (
                    values[single::columns] if columns > 1 else values
                )
            elif len(probe_key_columns) == 2:
                c0, c1 = probe_key_columns
                probe_keys = list(
                    zip(values[c0::columns], values[c1::columns])
                )
            else:
                probe_keys = [
                    tuple(
                        values[row * columns + c]
                        for c in probe_key_columns
                    )
                    for row in range(chunk.count)
                ]
            if (
                build_keys_arr is not None
                and chunk.count >= _VECTOR_MIN_ROWS
            ):
                keys_arr = _np.array(probe_keys, dtype=_np.uint64)
                hit_rows = _np.nonzero(
                    _np.isin(keys_arr, build_keys_arr)
                )[0].tolist()
                probe_items = [(row, probe_keys[row]) for row in hit_rows]
            else:
                probe_items = enumerate(probe_keys)
            out_values: List[int] = []
            extend = out_values.extend
            prop_parts: List[bytes] = []
            out_prop_offsets = [0]
            total = 0
            count = 0
            probe_prop = b""
            if not track_props and check_pairs == ():
                # fast path: no prop payloads, vacuous morphism — every
                # match merges unconditionally
                if build_is_left:
                    for row, key in probe_items:
                        matches = get(key)
                        if not matches:
                            continue
                        base = row * columns
                        probe_values = tuple(
                            values[base + c] for c in keep
                        )
                        for build_values, _ in matches:
                            extend(build_values)
                            extend(probe_values)
                        count += len(matches)
                else:
                    for row, key in probe_items:
                        matches = get(key)
                        if not matches:
                            continue
                        base = row * columns
                        probe_values = values[base:base + columns]
                        for build_values, _ in matches:
                            extend(probe_values)
                            extend(build_values)
                        count += len(matches)
                if count:
                    out_chunks.append(
                        EmbeddingChunk(
                            count,
                            out_columns,
                            (FLAG_ID,) * (count * out_columns),
                            tuple(out_values),
                            b"",
                            (0,) * (count + 1),
                            b"",
                            (0,) * (count + 1),
                        )
                    )
                continue
            if not track_props and check_pairs:
                # no prop payloads, small watch set: pairwise distinctness
                # with the build_is_left branch hoisted out of the loops
                if build_is_left:
                    for row, key in probe_items:
                        matches = get(key)
                        if not matches:
                            continue
                        base = row * columns
                        probe_values = tuple(
                            values[base + c] for c in keep
                        )
                        for build_values, _ in matches:
                            merged = build_values + probe_values
                            for a, b in check_pairs:
                                if merged[a] == merged[b]:
                                    break
                            else:
                                extend(merged)
                                count += 1
                else:
                    for row, key in probe_items:
                        matches = get(key)
                        if not matches:
                            continue
                        base = row * columns
                        probe_values = values[base:base + columns]
                        for build_values, _ in matches:
                            merged = probe_values + build_values
                            for a, b in check_pairs:
                                if merged[a] == merged[b]:
                                    break
                            else:
                                extend(merged)
                                count += 1
                if count:
                    out_chunks.append(
                        EmbeddingChunk(
                            count,
                            out_columns,
                            (FLAG_ID,) * (count * out_columns),
                            tuple(out_values),
                            b"",
                            (0,) * (count + 1),
                            b"",
                            (0,) * (count + 1),
                        )
                    )
                continue
            for row, key in probe_items:
                matches = get(key)
                if not matches:
                    continue
                # the probe row's merge slice and prop bytes, once per row
                base = row * columns
                if build_is_left:
                    probe_values = tuple(values[base + c] for c in keep)
                else:
                    probe_values = values[base:base + columns]
                if track_props:
                    start = prop_offsets[row]
                    end = prop_offsets[row + 1]
                    probe_prop = prop_buf[start:end] if end > start else b""
                for build_values, build_prop in matches:
                    if build_is_left:
                        merged = build_values + probe_values
                        left_prop, right_prop = build_prop, probe_prop
                    else:
                        merged = probe_values + build_values
                        left_prop, right_prop = probe_prop, build_prop
                    if check_pairs is not None:
                        collision = False
                        for a, b in check_pairs:
                            if merged[a] == merged[b]:
                                collision = True
                                break
                        if collision:
                            continue
                    else:
                        if vertex_watch and len(
                            {merged[c] for c in vertex_watch}
                        ) != len(vertex_watch):
                            continue
                        if edge_watch and len(
                            {merged[c] for c in edge_watch}
                        ) != len(edge_watch):
                            continue
                    extend(merged)
                    count += 1
                    if track_props:
                        if left_prop:
                            prop_parts.append(left_prop)
                            total += len(left_prop)
                        if right_prop:
                            prop_parts.append(right_prop)
                            total += len(right_prop)
                        out_prop_offsets.append(total)
            if count:
                out_chunks.append(
                    EmbeddingChunk(
                        count,
                        out_columns,
                        (FLAG_ID,) * (count * out_columns),
                        tuple(out_values),
                        b"",
                        (0,) * (count + 1),
                        b"".join(prop_parts) if track_props else b"",
                        tuple(out_prop_offsets)
                        if track_props
                        else (0,) * (count + 1),
                    )
                )
        return out_chunks


def columnar_join_spec(
    left_meta,
    right_meta,
    join_variables,
    drop_columns,
    merged_meta,
    vertex_strategy,
    edge_strategy,
):
    """The :class:`ColumnarJoinSpec` of a join shape, or ``None``.

    Unsupported (``None``): any PATH column on either side — the merge
    would rewrite offsets and the morphism check would walk paths, both of
    which stay on the per-record fallback.
    """
    for meta in (left_meta, right_meta):
        for variable in meta.variables:
            if meta.entry_kind(variable) == "p":
                return None
    drop = frozenset(drop_columns)
    keep_columns = tuple(
        column
        for column in range(right_meta.column_count)
        if column not in drop
    )
    vertex_iso = vertex_strategy is MatchStrategy.ISOMORPHISM
    edge_iso = edge_strategy is MatchStrategy.ISOMORPHISM
    vertex_columns: Tuple[int, ...] = ()
    edge_columns: Tuple[int, ...] = ()
    if vertex_iso:
        watched = tuple(
            merged_meta.entry_column(variable)
            for variable in merged_meta.variables
            if merged_meta.entry_kind(variable) == "v"
        )
        if len(watched) > 1:
            vertex_columns = watched
    if edge_iso:
        watched = tuple(
            merged_meta.entry_column(variable)
            for variable in merged_meta.variables
            if merged_meta.entry_kind(variable) == "e"
        )
        if len(watched) > 1:
            edge_columns = watched
    return ColumnarJoinSpec(
        left_meta.column_count,
        tuple(left_meta.entry_column(v) for v in join_variables),
        tuple(right_meta.entry_column(v) for v in join_variables),
        keep_columns,
        vertex_columns,
        edge_columns,
    )

"""Operator fusion: chunked execution of partition-local operator chains.

Flink chains pipelined operators into single tasks so records never cross
an operator boundary through a function-call-per-record indirection.  This
module reproduces that optimization for the simulated dataflow: a *fusion
pass* (:func:`plan_fusion`) collapses maximal chains of partition-local
operators (map / filter / flat-map) into one :class:`FusedChainOperator`
whose execution is one pass per partition.  When the engine attached
columnar kernels to every stage (or a leaf builder feeding kernels), the
chain runs over columnar embedding chunks — the fast path of every fused
run.  Otherwise, and for partitions whose shape the kernels do not fit,
the records flow through a compiled list-batch loop in chunks of
``batch_size``.  Both poll cancellation once per chunk, and the per-stage
metrics are reconstructed from counters afterwards — bit-identical to
what per-record execution records, so the simulated cost accounting does
not change.

What fuses: ``MapOperator``, ``FilterOperator``, ``FlatMapOperator`` (the
exact classes — subclasses may override ``execute`` and are left alone).
Everything else — sources, shuffles, joins, unions, ``map_partition``,
bulk iterations — is a pipeline break.  Operators already materialized in
the evaluation cache, and operators feeding more than one consumer, break
the chain as well: their output must exist as a standalone partition set.
"""

from typing import Any, Callable, Dict, Tuple

from .cancellation import POLL_INTERVAL  # noqa: F401  (re-export context)
from .errors import JobExecutionError
from .operators import (
    FilterOperator,
    FlatMapOperator,
    MapOperator,
    Operator,
)

from repro.locks import named_lock

#: default chunk length of fused execution; roughly amortizes the
#: per-chunk bookkeeping without hurting cache locality of the records
DEFAULT_BATCH_SIZE = 1024

#: the fusable operator classes and their loop-template role
_STAGE_KINDS = {
    MapOperator: "map",
    FilterOperator: "filter",
    FlatMapOperator: "flatmap",
}

_template_lock = named_lock("dataflow.fusion")
#: chain shape (e.g. ``('flatmap', 'filter', 'map')``) → compiled chunk
#: loop; shared by every environment in the process.
_templates: Dict[Tuple[str, ...], Callable[..., tuple]] = {}  # guarded-by: _template_lock

#: lazily-bound ColumnarPartition class — the dataflow layer never imports
#: the engine at module scope (layering), so the columnar execute path
#: resolves it on first use; single-assignment, benign under races
_columnar_partition_cls = None


def _render_template(shape: Tuple[str, ...]) -> str:
    """Source of the fused chunk loop for one chain ``shape``.

    The generated function walks one chunk of records through every stage
    without per-record dispatch; ``append`` collects survivors and the
    returned tuple carries one output counter per record-count-changing
    stage (filter / flat-map) so per-stage metrics can be reconstructed.
    """
    pad = "    "
    names = ["f%d" % index for index in range(len(shape))]
    counters = ["c%d" % index for index, kind in enumerate(shape)
                if kind != "map"]
    lines = ["def _fused_chunk(chunk, append, %s):" % ", ".join(names)]
    if counters:
        lines.append(pad + " = ".join(counters) + " = 0")
    lines.append(pad + "for r0 in chunk:")
    depth = 2
    var = "r0"
    for index, kind in enumerate(shape):
        fn = "f%d" % index
        if kind == "map":
            nxt = "r%d" % (index + 1)
            lines.append(pad * depth + "%s = %s(%s)" % (nxt, fn, var))
            var = nxt
        elif kind == "filter":
            lines.append(pad * depth + "if not %s(%s):" % (fn, var))
            lines.append(pad * (depth + 1) + "continue")
            lines.append(pad * depth + "c%d += 1" % index)
        else:  # flatmap
            nxt = "r%d" % (index + 1)
            lines.append(pad * depth + "for %s in %s(%s):" % (nxt, fn, var))
            depth += 1
            lines.append(pad * depth + "c%d += 1" % index)
            var = nxt
    lines.append(pad * depth + "append(%s)" % var)
    if counters:
        lines.append(pad + "return (%s,)" % ", ".join(counters))
    else:
        lines.append(pad + "return ()")
    return "\n".join(lines) + "\n"


def _chunk_template(shape: Tuple[str, ...]) -> Callable[..., tuple]:
    """The compiled chunk loop for ``shape`` (process-wide, cached)."""
    with _template_lock:
        compiled = _templates.get(shape)
    if compiled is not None:
        return compiled
    source = _render_template(shape)
    namespace: Dict[str, Any] = {}
    exec(  # noqa: S102 — the source is generated above, never user input
        compile(source, "<fused:%s>" % "+".join(shape), "exec"), namespace
    )
    compiled = namespace["_fused_chunk"]
    with _template_lock:
        # setdefault keeps the first compile if another thread raced us,
        # so every caller observes one stable function per shape
        return _templates.setdefault(shape, compiled)


class FusedChainOperator(Operator):
    """One compiled loop standing in for a chain of map/filter/flat-maps.

    The chain's stages keep their identity for metrics and error
    attribution: the loop counts per-stage outputs and
    :meth:`ExecutionContext.record_stage_run` emits one
    :class:`~repro.dataflow.metrics.OperatorRun` per stage, identical to
    what per-record execution would have recorded; a failing chunk is
    replayed record-by-record through the original operators so the raised
    :class:`JobExecutionError` names the stage that actually failed.
    """

    display = "fused-chain"

    def __init__(self, environment, parent, stages, batch_size):
        super().__init__(
            environment,
            [parent],
            "fused[%s]" % "+".join(stage.name for stage in stages),
        )
        self.stages = list(stages)
        #: id of the chain's last stage; the evaluator aliases this node's
        #: result under it so downstream parent lookups resolve
        self.terminal_id = stages[-1].id
        self.batch_size = batch_size
        self._shape = tuple(_STAGE_KINDS[type(stage)] for stage in stages)
        self._fns = tuple(
            stage.predicate if isinstance(stage, FilterOperator) else stage.fn
            for stage in stages
        )
        self._chunk = _chunk_template(self._shape)
        # columnar kernels ride on the stage closures as plain attributes
        # (attached by the engine layer).  A chain is chunk-capable when
        # every stage carries a chunk→chunk kernel, and leaf-capable when
        # some flat-map stage carries an elements→chunk builder, every
        # stage after it has a chunk kernel, and the stages before it are
        # element-level (they run per-element over the batch — e.g. the
        # label scan feeding a leaf transform).
        self._kernels = tuple(
            getattr(fn, "columnar_kernel", None) for fn in self._fns
        )
        self._chunk_capable = all(
            kernel is not None for kernel in self._kernels
        )
        self._leaf_index = None
        self._leaf_kernel = None
        for index, (kind, fn) in enumerate(zip(self._shape, self._fns)):
            leaf = getattr(fn, "columnar_leaf", None)
            if kind == "flatmap" and leaf is not None:
                if all(
                    kernel is not None
                    for kernel in self._kernels[index + 1:]
                ):
                    self._leaf_index = index
                    self._leaf_kernel = leaf
                break
        self._leaf_capable = self._leaf_index is not None

    def execute(self, ctx, parent_partition_sets):
        (partitions,) = parent_partition_sets
        token = ctx.cancellation
        batch = self.batch_size
        chunk_fn = self._chunk
        fns = self._fns
        zeros = (0,) * sum(1 for kind in self._shape if kind != "map")
        out = []
        worker_counts = []
        for partition in partitions:
            result = self._execute_columnar(token, partition, zeros)
            if result is not None:
                columnar_out, totals = result
                out.append(columnar_out)
                worker_counts.append(totals)
                continue
            produced = []
            append = produced.append
            totals = zeros
            for start in range(0, len(partition), batch):
                # one cancellation poll per chunk, not per record
                if token is not None:
                    token.poll()
                chunk = (
                    partition
                    if start == 0 and len(partition) <= batch
                    else partition[start:start + batch]
                )
                try:
                    counts = chunk_fn(chunk, append, *fns)
                except Exception as exc:  # noqa: BLE001 — re-attributed below
                    self._replay_chunk(chunk, exc)
                totals = tuple(a + b for a, b in zip(totals, counts))
            out.append(produced)
            worker_counts.append(totals)
        self._record_stage_runs(ctx, partitions, worker_counts)
        return out

    def _execute_columnar(self, token, partition, zeros):
        """Run the chain as chunk kernels over one partition.

        Returns ``(ColumnarPartition, stage_totals)`` or ``None`` when the
        partition's shape does not fit the compiled kernels (a plain
        record list feeding a chain without a leaf builder, or chunks
        feeding a chain with a kernel gap) — the caller falls back to the
        per-record loop for that partition.  Stage totals count chunk rows
        after each non-map stage, matching the per-record counters.
        """
        chunks_in = getattr(partition, "chunks", None)
        if chunks_in is not None:
            if not self._chunk_capable:
                return None
            sources = chunks_in
            leaf_index = None
        else:
            if not self._leaf_capable:
                return None
            leaf_index = self._leaf_index
            batch = self.batch_size
            if len(partition) <= batch:
                sources = [partition]
            else:
                sources = [
                    partition[start:start + batch]
                    for start in range(0, len(partition), batch)
                ]
        global _columnar_partition_cls
        if _columnar_partition_cls is None:
            from repro.engine.columnar import ColumnarPartition

            _columnar_partition_cls = ColumnarPartition
        shape = self._shape
        kernels = self._kernels
        fns = self._fns
        leaf = self._leaf_kernel
        totals = list(zeros)
        produced = []
        for source in sources:
            # one cancellation poll per chunk, like the per-record loop
            if token is not None:
                token.poll()
            current = source
            counter = 0
            try:
                for index, (kind, kernel) in enumerate(zip(shape, kernels)):
                    if leaf_index is not None and index < leaf_index:
                        # element-level prefix (e.g. the label scan):
                        # per-element, exactly like the per-record loop
                        fn = fns[index]
                        if kind == "map":
                            current = [fn(element) for element in current]
                        elif kind == "filter":
                            current = [
                                element for element in current
                                if fn(element)
                            ]
                            totals[counter] += len(current)
                            counter += 1
                        else:
                            flattened = []
                            for element in current:
                                flattened.extend(fn(element))
                            current = flattened
                            totals[counter] += len(current)
                            counter += 1
                        continue
                    if index == leaf_index:
                        current = leaf(current)
                    else:
                        current = kernel(current)
                    if kind != "map":
                        totals[counter] += current.count
                        counter += 1
            except Exception as exc:  # noqa: BLE001 — re-attributed below
                records = (
                    list(source) if leaf_index is not None
                    else source.to_embeddings()
                )
                self._replay_chunk(records, exc)
            if current.count:
                produced.append(current)
        return _columnar_partition_cls(produced), tuple(totals)

    def _replay_chunk(self, chunk, original):
        """Reproduce a chunk failure with per-record error attribution.

        The fused loop cannot tell which stage raised; replaying the chunk
        through the original operators' ``_call`` raises the exact
        :class:`JobExecutionError` (naming the failing stage) that
        per-record execution would have raised, and respects
        ``propagate_unwrapped`` errors like cancellation.
        """
        if getattr(original, "propagate_unwrapped", False):
            raise original
        records = list(chunk)
        for stage, kind in zip(self.stages, self._shape):
            produced = []
            if kind == "map":
                for record in records:
                    produced.append(stage._call(stage.fn, record))
            elif kind == "filter":
                for record in records:
                    if stage._call(stage.predicate, record):
                        produced.append(record)
            else:
                for record in records:
                    produced.extend(stage._call(stage.fn, record))
            records = produced
        # the replay did not fail (a non-deterministic function?) — fall
        # back to attributing the original error to the whole chain
        raise JobExecutionError(self.name, original) from original

    def _record_stage_runs(self, ctx, partitions, worker_counts):
        """Emit one OperatorRun per stage, matching per-record execution."""
        worker_in = [len(partition) for partition in partitions]
        counter = 0
        for stage, kind in zip(self.stages, self._shape):
            if kind == "map":
                worker_out = worker_in
            else:
                worker_out = [counts[counter] for counts in worker_counts]
                counter += 1
            ctx.record_stage_run(stage.name, worker_in, worker_out)
            worker_in = worker_out


def plan_fusion(root, batch_size: int, materialized=()) -> Dict[int, "FusedChainOperator"]:
    """The fusion pass: chains reachable from ``root`` → fused operators.

    Walks the DAG exactly like the evaluator (never descending into nodes
    already ``materialized`` in the evaluation cache), finds maximal
    chains of fusable operators whose links are single-consumer edges, and
    returns a rewrite map ``{chain terminal id: FusedChainOperator}``.
    Single-operator "chains" are fused too — even one stage saves the
    per-record ``_call`` wrapping.  The original operators are untouched;
    the evaluator resolves nodes through the rewrite map per run, so plan
    caching, ``reset()`` and unfused re-execution keep working.
    """
    materialized = set(materialized)
    if root.id in materialized:
        return {}
    fusable = {}
    sole_consumer = {}  # parent id → unique consumer node, or None if shared
    stack = [root]
    seen = {root.id}
    while stack:
        node = stack.pop()
        if type(node) in _STAGE_KINDS and node.id not in materialized:
            fusable[node.id] = node
        if node.id in materialized:
            continue
        for parent in node.parents:
            if parent.id in sole_consumer:
                if sole_consumer[parent.id] is not node:
                    sole_consumer[parent.id] = None
            else:
                sole_consumer[parent.id] = node
            if parent.id not in seen:
                seen.add(parent.id)
                stack.append(parent)

    merged = {}  # fusable op id → the fusable consumer that absorbs it
    for op_id, op in fusable.items():
        consumer = sole_consumer.get(op_id)
        if consumer is not None and consumer.id in fusable:
            merged[op_id] = consumer

    rewrites = {}
    for op_id, op in fusable.items():
        if op_id in merged:
            continue  # interior of a chain, absorbed by its consumer
        chain = [op]
        head = op
        while True:
            parent = head.parents[0]
            if parent.id in fusable and merged.get(parent.id) is head:
                chain.append(parent)
                head = parent
            else:
                break
        chain.reverse()
        rewrites[op_id] = FusedChainOperator(
            op.environment, chain[0].parents[0], chain, batch_size
        )
    return rewrites

"""Real-time engine microbenchmarks: fused (columnar) vs per-record.

The experiment runners in :mod:`repro.harness.experiments` report
*simulated* cluster runtimes from the cost model; these benchmarks
measure the actual CPU cost of the Python engine itself — the number the
fused columnar execution path (docs/architecture.md, "Columnar
execution") exists to reduce.  ``repro bench-micro`` and
``make bench-micro`` call :func:`run_microbench` and write the report as
a ``BENCH_<n>.json`` trajectory file at the repo root so successive
changes leave a comparable series of measurements behind.

Methodology, chosen for stability on noisy shared machines:

* ``time.process_time`` (CPU time) rather than wall clock;
* the GC is paused around every timed region and collected between them;
* trials of all modes are interleaved round-robin, so slow drift in
  machine load hits every mode equally;
* one untimed warm-up round per (query, mode) pays plan compilation and
  dataset partitioning up front.
"""

import gc
import json
import os
import platform
import re
import time
from statistics import median, stdev

from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner, GraphStatistics
from repro.ldbc import LDBCGenerator

from .experiments import default_cost_model
from .queries import ALL_QUERIES, instantiate

#: The acceptance pair: an operational one-hop pattern (Q1) and the
#: analytical triangle (Q5) — leaf-dominated and join-dominated work.
DEFAULT_QUERIES = ("Q1", "Q5")

#: Pinned benchmark graph scale.  SF 0.1 medians sit in the
#: single-millisecond range where scheduler noise swamps real deltas;
#: SF 0.2 is the smallest scale at which repeated runs of the same
#: build agree to a few percent, so trajectory files stay comparable.
DEFAULT_SCALE_FACTOR = 0.2

#: Pinned timed trials per (query, mode) after the untimed warm-up.
DEFAULT_REPEATS = 5

#: Execution modes timed by :func:`run_microbench`, in report order: the
#: fused fast path (columnar chunks) and the per-record reference.
MICRO_MODES = ("columnar", "per-record")


def _physical_postorder(root):
    stack = [(root, False)]
    while stack:
        operator, expanded = stack.pop()
        if expanded:
            yield operator
        else:
            stack.append((operator, True))
            for child in reversed(operator.children):
                stack.append((child, False))


def plan_bytes_moved(root):
    """Embedding bytes crossing every operator boundary of one plan.

    Executes the plan once (shared dataflow cache, per-record mode so
    every intermediate is observable) and sums the serialized size of
    each physical operator's output embeddings — the §3.3 bytes a
    distributed runtime would actually move between operators.  This is
    the number liveness-driven pruning (``CypherRunner(prune=True)``)
    exists to reduce.
    """
    cache = {}
    total = 0
    for operator in _physical_postorder(root):
        dataset = operator.evaluate()
        partitions = dataset.environment.run(
            dataset.operator, cache=cache, fused=False
        )
        total += sum(
            embedding.serialized_size()
            for partition in partitions
            for embedding in partition
        )
    return total


def _timed(environment, runner, query):
    """One execution; returns (cpu_seconds, result_count)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with environment.job("bench-micro"):
            start = time.process_time()
            embeddings, _ = runner.execute_embeddings(query)
            elapsed = time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()
    gc.collect()
    return elapsed, len(embeddings)


def run_microbench(
    queries=DEFAULT_QUERIES,
    scale_factor=DEFAULT_SCALE_FACTOR,
    seed=42,
    workers=4,
    repeats=DEFAULT_REPEATS,
    batch_size=None,
    selectivity="low",
):
    """Time each query under fused (columnar) and per-record execution.

    Returns a JSON-ready report dict whose ``results`` list holds one
    record per (query, mode): ``query``, ``mode`` (one of
    :data:`MICRO_MODES`), ``fused`` (false only for the per-record
    reference), ``median_seconds``, ``stddev_seconds``,
    ``min_seconds``, ``rows``, and the raw ``seconds`` samples.
    ``speedup`` maps each query to the per-record / columnar median
    ratio.
    """
    dataset = LDBCGenerator(scale_factor, seed).generate()
    modes = {}
    for mode in MICRO_MODES:
        environment = ExecutionEnvironment(
            cost_model=default_cost_model(workers),
            batch_size=batch_size,
            fusion=mode != "per-record",
        )
        graph = dataset.to_logical_graph(environment)
        statistics = GraphStatistics.from_graph(graph)
        modes[mode] = (environment, CypherRunner(graph, statistics=statistics))

    cases = []
    for name in queries:
        template = ALL_QUERIES[name]
        first_name = (
            dataset.first_name(selectivity) if "{firstName}" in template else None
        )
        cases.append((name, instantiate(template, first_name)))

    samples = {(name, mode): [] for name, _ in cases for mode in modes}
    rows = {}
    for trial in range(-1, repeats):  # trial -1 is the untimed warm-up
        for name, query in cases:
            for mode, (environment, runner) in modes.items():
                elapsed, count = _timed(environment, runner, query)
                if trial < 0:
                    rows[name] = count
                else:
                    samples[name, mode].append(elapsed)

    results = []
    for name, _ in cases:
        for mode in MICRO_MODES:
            data = samples[name, mode]
            results.append(
                {
                    "query": name,
                    "mode": mode,
                    "fused": mode != "per-record",
                    "median_seconds": median(data),
                    "stddev_seconds": stdev(data) if len(data) > 1 else 0.0,
                    "min_seconds": min(data),
                    "rows": rows[name],
                    "seconds": data,
                }
            )
    speedup = {}
    for name, _ in cases:
        fused = median(samples[name, "columnar"])
        plain = median(samples[name, "per-record"])
        speedup[name] = plain / fused if fused else float("inf")

    # Liveness-pruning win: embedding bytes crossing operator boundaries
    # with and without the dead-byte pruning rewriter.  Measured on the
    # per-record environment so every intermediate is observable; one
    # extra execution per (query, pruned) pair.
    environment, _ = modes["per-record"]
    graph = dataset.to_logical_graph(environment)
    statistics = GraphStatistics.from_graph(graph)
    embedding_bytes = {}
    for name, query in cases:
        measured = {}
        for pruned in (False, True):
            runner = CypherRunner(
                graph, statistics=statistics, prune=pruned
            )
            _, root = runner.compile(query)
            measured["pruned" if pruned else "unpruned"] = plan_bytes_moved(
                root
            )
        unpruned = measured["unpruned"]
        measured["reduction_percent"] = (
            100.0 * (unpruned - measured["pruned"]) / unpruned
            if unpruned else 0.0
        )
        embedding_bytes[name] = measured

    report = {
        "benchmark": "engine-microbench",
        "scale_factor": scale_factor,
        "default_scale_factor": DEFAULT_SCALE_FACTOR,
        "seed": seed,
        "workers": workers,
        "repeats": repeats,
        "default_repeats": DEFAULT_REPEATS,
        "batch_size": modes["columnar"][0].batch_size,
        "modes": list(MICRO_MODES),
        "clock": "process_time",
        "python": platform.python_version(),
        "results": results,
        "speedup": speedup,
        "embedding_bytes": embedding_bytes,
    }
    return report


def format_microbench(report):
    """Human-readable table for one :func:`run_microbench` report."""
    lines = [
        "engine-microbench: SF %s, %d worker(s), %d repeat(s), "
        "batch size %d, %s clock"
        % (
            report["scale_factor"],
            report["workers"],
            report["repeats"],
            report["batch_size"],
            report["clock"],
        ),
        "%-6s %-12s %12s %12s %12s %8s"
        % ("query", "mode", "median [s]", "stddev [s]", "min [s]", "rows"),
    ]
    for record in report["results"]:
        lines.append(
            "%-6s %-12s %12.4f %12.4f %12.4f %8d"
            % (
                record["query"],
                record["mode"],
                record["median_seconds"],
                record["stddev_seconds"],
                record["min_seconds"],
                record["rows"],
            )
        )
    for name in sorted(report["speedup"]):
        lines.append(
            "%-6s per-record median is %.2fx the columnar median"
            % (name, report["speedup"][name])
        )
    for name in sorted(report.get("embedding_bytes", {})):
        record = report["embedding_bytes"][name]
        lines.append(
            "%-6s embedding bytes moved: %d unpruned, %d pruned "
            "(%.1f%% reduction)"
            % (
                name,
                record["unpruned"],
                record["pruned"],
                record["reduction_percent"],
            )
        )
    return "\n".join(lines)


def next_trajectory_path(directory="."):
    """``BENCH_<n>.json`` one past the highest existing index."""
    highest = 0
    for entry in os.listdir(directory):
        match = re.fullmatch(r"BENCH_(\d+)\.json", entry)
        if match:
            highest = max(highest, int(match.group(1)))
    return os.path.join(directory, "BENCH_%d.json" % (highest + 1))


def write_microbench(report, path):
    """Write ``report`` to ``path`` as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

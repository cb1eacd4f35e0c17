"""The repository's end-to-end benchmark: Q1-Q6 served by ``repro serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload operational --seed 1 --seconds 30 --trace 0

One run generates the workload's LDBC graph with ``repro generate``,
computes the expected rows of every distinct request on the per-record
reference path, starts ``repro serve GRAPH --port 0`` (no other flags)
several times to time set-up, and drives the last server with one
closed-loop HTTP client for ``--seconds``.  Every response is checked
against the reference before it counts.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` also replays a fixed prefix of the same requests
in process under a span tracer, writes the spans to
``perfbench/_work/<workload>-s<seed>/spans.jsonl`` and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the exit code is 0 only if every request succeeded with the right rows.
See ``perfbench/README.md`` for the metrics.
"""

import argparse
import json
import os
import shutil
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the pinned LDBC graph seed (``repro generate``'s default); see README
GRAPH_SEED = 42

#: ``repro serve`` start-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: calibration loops timed before and after each run
CALIBRATION_REPEATS = 3

#: the fewest requests one run sends, so that p90 has ten samples beyond it
MIN_REQUESTS = 100

#: requests the traced run replays: whole rounds of the sequence
REPLAY_REQUESTS = {"operational": 36, "analytical": 36, "adhoc": 100}

TRACE_LAYERS = (
    ("cypher.parse", "cypher.parse_ms"),
    ("analysis.lint", "analysis.lint_ms"),
    ("planning.plan", "planning.plan_ms"),
    ("execute", "execute.ms"),
    ("cost.simulate", "cost.simulate_ms"),
    ("rows.build", "rows.build_ms"),
    ("protocol.encode", "protocol.encode_ms"),
)

TRACE_COUNTS = (
    ("records_in", "execute.records_in"),
    ("shuffled_bytes", "execute.shuffled_bytes"),
    ("operator_runs", "execute.operator_runs"),
    ("expand_records_in", "execute.expand_records_in"),
    ("join_records_in", "execute.join_records_in"),
    ("rows", "rows.count"),
)


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    options = parse_arguments(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no program source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = os.path.join(HERE, "_work", "%s-s%d" % (options.workload,
                                                   options.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, table = run(options, work)
    finally:
        shutil.rmtree(os.path.join(work, "graph"), ignore_errors=True)
    for line in table:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


def run(options, work):
    from reference import expected_rows, load_like_serve, person_first_names
    from stats import calibration_ms, check_name, median
    from workloads import SCALE_FACTOR, RequestSequence

    from repro.ldbc import LDBCGenerator
    import server as serving

    workload = options.workload
    calibration = [calibration_ms() for _ in range(CALIBRATION_REPEATS)]
    graph_dir = os.path.join(work, "graph")
    scale_factor = SCALE_FACTOR[workload]
    serving.generate_graph(ROOT, scale_factor, GRAPH_SEED, graph_dir)

    dataset = LDBCGenerator(scale_factor, GRAPH_SEED).generate()
    names = {s: dataset.first_name(s) for s in ("high", "medium", "low")}
    arguments, graph, statistics = load_like_serve(graph_dir)
    sequence = RequestSequence(
        workload, options.seed, names=names,
        graph_names=person_first_names(graph),
    )
    expected = expected_rows(arguments, graph, statistics, sequence.kinds)
    graph_name = arguments.name
    prepared = workload == "operational"

    setups = []
    log = os.path.join(work, "server.log")
    for attempt in range(SETUP_REPEATS):
        srv = serving.ServerProcess(ROOT, graph_dir, log)
        setups.append(srv.setup_seconds)
        if attempt < SETUP_REPEATS - 1:
            srv.stop()
    try:
        statements = {}
        if prepared:
            for _, _, text, _ in sequence.kinds:
                status, body = srv.request(
                    "POST", "/prepare", {"graph": graph_name, "query": text}
                )
                if status != 200:
                    raise RuntimeError("prepare failed: %r" % (body,))
                statements[text] = body["statement_id"]
        from loadgen import run_closed_loop

        cpu_before = srv.cpu_seconds()
        samples, window = run_closed_loop(
            srv, sequence, options.seconds, MIN_REQUESTS, graph_name,
            statements,
        )
        cpu = srv.cpu_seconds() - cpu_before
        peak_rss = srv.peak_rss_mb()
        _, service_metrics = srv.request("GET", "/metrics")
    finally:
        srv.stop()

    checked = check_samples(samples, expected)
    end_to_end = end_to_end_metrics(checked, window, cpu, peak_rss, setups)
    attempted = len(checked)
    failed = sum(1 for item in checked if not item["ok"])
    wrong = sum(1 for item in checked if item["wrong"])
    per_layer = None
    if options.trace:
        profiles, setup, replay_failed = traced_replay_profiles(
            workload, graph_dir, sequence, expected, prepared, work,
        )
        attempted += REPLAY_REQUESTS[workload]
        failed += replay_failed
        wrong += replay_failed
        per_layer = replay_metrics(profiles, setup)
        per_layer.update(served_metrics(
            checked, REPLAY_REQUESTS[workload], service_metrics, profiles,
        ))
    calibration += [calibration_ms() for _ in range(CALIBRATION_REPEATS)]
    if per_layer is not None:
        per_layer["host.calibration_ms"] = (median(calibration), "ms")
    metrics = per_layer if options.trace else end_to_end
    for name in metrics:
        check_name(name)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    table = report_table(workload, options, checked, window, end_to_end,
                         per_layer, calibration, failed)
    return result, table


def check_samples(samples, expected):
    """Decode each response and compare its rows with the reference."""
    from reference import canonical_rows

    checked = []
    for sample in samples:
        item = {"index": sample.index, "template": sample.template,
                "kind": sample.kind, "latency": sample.latency, "ok": False, "wrong": False,
                "error": sample.error}
        if sample.error is None and sample.status == 200:
            payload = json.loads(sample.body)
            item["elapsed"] = payload["elapsed_seconds"]
            item["queue"] = payload["queue_seconds"]
            item["row_count"] = payload["row_count"]
            if canonical_rows(payload["rows"]) == expected[sample.kind]:
                item["ok"] = True
            else:
                item["wrong"] = True
                item["error"] = "wrong rows for %s" % sample.kind
        elif sample.error is None:
            item["error"] = "HTTP %s: %s" % (sample.status, sample.body[:200])
        checked.append(item)
    return checked


def end_to_end_metrics(checked, window, cpu_seconds, peak_rss, setups):
    from stats import median, median_of_medians, p90
    from workloads import TEMPLATES

    good = [item for item in checked if item["ok"]]
    timed = [item for item in checked if item["latency"] is not None]
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_qps": (len(good) / window, "1/s"),
        "latency_p50_ms": (median_of_medians(
            (item["kind"], item["latency"] * 1000.0) for item in timed
        ), "ms"),
        "latency_p90_ms": (p90([item["latency"] * 1000.0 for item in timed]),
                           "ms"),
    }
    for template in TEMPLATES:
        metrics["%s_p50_ms" % template.lower()] = (median([
            item["latency"] * 1000.0 for item in timed
            if item["template"] == template
        ]), "ms")
    metrics["server_cpu_ms_per_query"] = (
        cpu_seconds * 1000.0 / max(1, len(good)), "ms"
    )
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    return metrics


def traced_replay_profiles(workload, graph_dir, sequence, expected,
                           prepared, work):
    """Replay a fixed prefix in process under a tracer; write the spans.

    Returns ``(profiles, setup, failed request count)``.
    """
    from replay import request_profiles, traced_replay
    from tracing import Tracer

    tracer = Tracer()
    failed = traced_replay(
        tracer, graph_dir, sequence.prefix(REPLAY_REQUESTS[workload]),
        expected, prepared,
    )
    tracer.write(os.path.join(work, "spans.jsonl"))
    profiles, setup = request_profiles(tracer.spans)
    return profiles, setup, len(failed)


def replay_metrics(profiles, setup):
    """Set-up, per-layer self time and exact counts of the traced replay."""
    from stats import median
    from workloads import TEMPLATES

    metrics = {
        "setup.load_s": (setup["setup.load"], "s"),
        "setup.statistics_s": (setup["setup.statistics"], "s"),
    }
    for template in TEMPLATES:
        mine = [p for p in profiles.values() if p["template"] == template]
        queries = [p for p in mine if p["phase"] == "query"]
        # a compile layer runs on some requests only (prepare, first
        # sight of a text); its figure is the median where it ran
        for layer, name in TRACE_LAYERS:
            values = [p["layers"][layer] * 1000.0 for p in mine
                      if layer in p["layers"]]
            metrics["%s.%s" % (name, template)] = (median(values), "ms")
        for key, name in TRACE_COUNTS:
            metrics["%s.%s" % (name, template)] = (
                sum(p["counts"].get(key, 0) for p in queries), "count"
            )
    return metrics


def served_metrics(checked, replayed, service_metrics, profiles):
    """Per-layer figures of the untraced run, and the trace's coverage.

    ``checked`` are the untraced run's checked responses; its first
    ``replayed`` requests are the ones the traced replay sent again.
    """
    from stats import median
    from workloads import TEMPLATES

    metrics = {}
    for template in TEMPLATES:
        metrics["protocol.row_count.%s" % template] = (sum(
            item["row_count"] for item in checked[:replayed]
            if item["template"] == template
        ), "count")
    served = [item for item in checked if item["ok"]]
    metrics["protocol.overhead_ms_p50"] = (median([
        (item["latency"] - item["elapsed"]) * 1000.0 for item in served
    ]), "ms")
    metrics["service.queue_ms_p50"] = (
        median([item["queue"] * 1000.0 for item in served]), "ms"
    )
    metrics["service.elapsed_ms_p50"] = (
        median([item["elapsed"] * 1000.0 for item in served]), "ms"
    )
    metrics["service.rejected"] = (service_metrics["rejected"], "count")
    metrics["service.plan_cache_hit_rate"] = (
        service_metrics["plan_cache"]["hit_rate"], "ratio"
    )
    # what the layer spans cover of the time the server reports per query;
    # encoding happens after the server stops its clock, so it is left out
    attributed = sum(
        p["duration"] - p["layers"]["request"]
        - p["layers"].get("protocol.encode", 0.0)
        for p in profiles.values() if p["phase"] == "query"
    )
    untraced = sum(item.get("elapsed", 0.0) for item in checked[:replayed])
    metrics["trace.coverage"] = (attributed / untraced, "ratio")
    return metrics


def report_table(workload, options, checked, window, end_to_end, per_layer,
                 calibration, failed):
    from stats import median

    lines = [
        "workload %s, seed %d, %d requests in %.2f s, error_rate %.4f, "
        "host.calibration_ms before %.2f after %.2f"
        % (workload, options.seed, len(checked), window,
           failed / max(1, len(checked)),
           median(calibration[:CALIBRATION_REPEATS]),
           median(calibration[CALIBRATION_REPEATS:])),
    ]
    for item in checked:
        if item["error"]:
            lines.append("  request %d failed: %s" % (item["index"],
                                                       item["error"]))
            break
    for title, metrics in (("end-to-end", end_to_end),
                           ("per-layer", per_layer)):
        if metrics is None:
            continue
        lines.append("%s:" % title)
        for name, (value, unit) in metrics.items():
            lines.append("  %-36s %14.4f %s" % (name, value, unit))
    return lines


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print("elapsed %.1f s" % (time.perf_counter() - started), file=sys.stderr)
    sys.exit(code)

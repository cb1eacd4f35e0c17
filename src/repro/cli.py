"""Command-line interface.

.. code-block:: bash

    python -m repro generate --scale-factor 0.1 --output /tmp/sn
    python -m repro query /tmp/sn "MATCH (p:Person) RETURN count(*) AS n"
    python -m repro explain /tmp/sn "MATCH (a:Person)-[:knows]->(b) RETURN *"
    python -m repro lint "MATCH (a) WHERE a.age > 5 AND a.age < 3 RETURN a"
    python -m repro check /tmp/sn "MATCH (a:Person)-[:knows*1..2]->(b) RETURN *"
    python -m repro livecheck /tmp/sn "MATCH (a:Person) RETURN a.firstName"
    python -m repro stats /tmp/sn
    python -m repro bench --experiment fig5
    python -m repro serve /tmp/sn --port 7474
    python -m repro bench-serve --clients 8
"""

import argparse
import sys

from repro.cypher.errors import CypherSyntaxError
from repro.dataflow import (
    ClusterCostModel,
    DEFAULT_BATCH_SIZE,
    ExecutionEnvironment,
)
from repro.engine import CypherRunner, GraphStatistics, MatchStrategy
from repro.epgm.io import CSVDataSink, CSVDataSource
from repro.harness.microbench import (
    DEFAULT_QUERIES as DEFAULT_MICRO_QUERIES,
    DEFAULT_REPEATS as DEFAULT_MICRO_REPEATS,
    DEFAULT_SCALE_FACTOR as DEFAULT_MICRO_SCALE,
)
from repro.ldbc import LDBCGenerator


def _environment(args):
    model = ClusterCostModel(workers=args.workers)
    return ExecutionEnvironment(
        cost_model=model,
        batch_size=getattr(args, "batch_size", None),
    )


def _load(args):
    import os

    if not os.path.isdir(args.graph):
        raise SystemExit(
            "error: %r is not a graph directory (run 'repro generate' first)"
            % args.graph
        )
    environment = _environment(args)
    source = CSVDataSource(args.graph)
    graph = source.get_logical_graph(environment)
    statistics = source.get_statistics()
    return environment, graph, statistics


def _strategy(text):
    return {
        "homo": MatchStrategy.HOMOMORPHISM,
        "iso": MatchStrategy.ISOMORPHISM,
    }[text]


def cmd_generate(args):
    environment = _environment(args)
    dataset = LDBCGenerator(args.scale_factor, args.seed).generate()
    graph = dataset.to_logical_graph(environment)
    CSVDataSink(args.output).write_logical_graph(graph)
    counts = dataset.counts_by_label()
    print("wrote %s" % args.output)
    for label in sorted(counts):
        print("  %-14s %6d" % (label, counts[label]))
    return 0


def cmd_query(args):
    environment, graph, statistics = _load(args)
    runner = CypherRunner(
        graph,
        vertex_strategy=_strategy(args.vertex_strategy),
        edge_strategy=_strategy(args.edge_strategy),
        statistics=statistics,
    )
    environment.reset_metrics("query")
    rows = runner.execute_table(args.cypher)
    columns = list(rows[0]) if rows else []
    if columns:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(str(row[column]) for column in columns))
    print(
        "-- %d row(s); simulated %.2f s on %d workers; %d records shuffled"
        % (
            len(rows),
            environment.simulated_runtime_seconds(),
            args.workers,
            environment.metrics.total_shuffled_records,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_explain(args):
    _, graph, statistics = _load(args)
    runner = CypherRunner(
        graph, statistics=statistics, verify_plans=args.verify
    )
    if args.analyze:
        print(runner.explain_analyze(args.cypher))
    else:
        print(runner.explain(args.cypher))
    for diagnostic in runner.last_diagnostics:
        print(diagnostic.format(args.cypher), file=sys.stderr)
    if args.verify:
        print("-- plan verified: all structural invariants hold",
              file=sys.stderr)
    return 0


def cmd_lint(args):
    """Static query diagnostics without executing.

    Exit codes: 0 clean, 1 error diagnostics, 2 syntax error,
    3 warnings only (the shared analysis-CLI contract; see
    docs/analysis.md).
    """
    from repro.analysis import lint_query

    statistics = None
    if args.graph is not None:
        import os

        if not os.path.isdir(args.graph):
            raise SystemExit("error: %r is not a graph directory" % args.graph)
        statistics = CSVDataSource(args.graph).get_statistics()
        if statistics is None:
            raise SystemExit(
                "error: %r has no statistics; re-export the graph" % args.graph
            )
    try:
        diagnostics = lint_query(args.cypher, statistics=statistics)
    except CypherSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in diagnostics:
        print(diagnostic.format(args.cypher))
    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    print(
        "-- %d error(s), %d warning(s)" % (errors, warnings), file=sys.stderr
    )
    if errors:
        return 1
    return 3 if warnings else 0


def cmd_check(args):
    """Sanitized differential check + estimate audit for one query.

    Exit codes: 0 clean, 1 error diagnostics (lint errors, sanitizer
    findings, planner disagreement), 2 syntax error, 3 warnings only.
    """
    from repro.analysis import differential_check, lint_query

    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    try:
        lint_diagnostics = lint_query(args.cypher, statistics=statistics)
    except CypherSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in lint_diagnostics:
        print(diagnostic.format(args.cypher))
    if any(d.is_blocking for d in lint_diagnostics):
        print("-- blocked: fix the binding errors above", file=sys.stderr)
        return 1

    vertex_strategy = _strategy(args.vertex_strategy)
    edge_strategy = _strategy(args.edge_strategy)
    report = differential_check(
        graph,
        args.cypher,
        statistics=statistics,
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
    )
    for run in report.runs:
        print(
            "-- %-18s %6d row(s), %6d embedding(s) sanitized, %d finding(s)"
            % (run.planner, run.row_count, run.checked, len(run.diagnostics)),
            file=sys.stderr,
        )
    runner = CypherRunner(
        graph,
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
        statistics=statistics,
    )
    audit = runner.audit_estimates(args.cypher, max_q_error=args.max_q_error)
    print(audit.format_table(), file=sys.stderr)
    dynamic_diagnostics = report.diagnostics + audit.diagnostics
    for diagnostic in dynamic_diagnostics:
        print(diagnostic.format())

    diagnostics = lint_diagnostics + dynamic_diagnostics
    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    verdict = "planners agree" if report.agree else "PLANNERS DISAGREE"
    print(
        "-- check: %s; %d error(s), %d warning(s)" % (verdict, errors, warnings),
        file=sys.stderr,
    )
    if errors:
        return 1
    return 3 if warnings else 0


def cmd_racecheck(args):
    """Static lock-discipline lint (C3xx) over our own Python source.

    Exit codes match ``repro check``: 0 clean, 1 error diagnostics,
    2 un-parseable source, 3 warnings only.
    """
    from repro.analysis.concurrency import racecheck_paths

    try:
        report = racecheck_paths(args.paths)
    except SyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in report.diagnostics:
        print(diagnostic.format())
    if args.verbose:
        print(report.format_graph(), file=sys.stderr)
    print("-- %s" % report.format_summary(), file=sys.stderr)
    if report.errors:
        return 1
    return 3 if report.warnings else 0


def cmd_flowcheck(args):
    """Static layout-flow verification (S3xx) + UDF shippability (P4xx).

    Compiles the query under all three planners, abstractly interprets
    each physical plan against the §3.3 layout contracts, and classifies
    every dataflow UDF (including the fused chain stages) as
    process-shippable or not.  Exit codes match ``repro check``: 0 proven
    and shippable, 1 error diagnostics, 2 syntax error, 3 warnings only.
    """
    from repro.analysis import lint_query
    from repro.engine.planning import (
        ExhaustivePlanner,
        GreedyPlanner,
        LeftDeepPlanner,
    )

    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    try:
        lint_diagnostics = lint_query(args.cypher, statistics=statistics)
    except CypherSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in lint_diagnostics:
        print(diagnostic.format(args.cypher))
    if any(d.is_blocking for d in lint_diagnostics):
        print("-- blocked: fix the binding errors above", file=sys.stderr)
        return 1

    vertex_strategy = _strategy(args.vertex_strategy)
    edge_strategy = _strategy(args.edge_strategy)
    diagnostics = list(lint_diagnostics)
    all_proven = True
    all_shippable = True
    for planner_cls in (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner):
        runner = CypherRunner(
            graph,
            statistics=statistics,
            planner_cls=planner_cls,
            vertex_strategy=vertex_strategy,
            edge_strategy=edge_strategy,
        )
        flow = runner.flowcheck(args.cypher)
        ship = runner.check_shippable(args.cypher)
        all_proven = all_proven and flow.proven
        all_shippable = all_shippable and ship.shippable
        diagnostics += flow.diagnostics + ship.diagnostics
        print(
            "-- %-18s %s; %s"
            % (planner_cls.__name__, flow.format_summary(),
               ship.format_summary()),
            file=sys.stderr,
        )
    for diagnostic in diagnostics[len(lint_diagnostics):]:
        print(diagnostic.format(args.cypher))

    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    verdict = []
    verdict.append("layout proven" if all_proven else "layout NOT proven")
    verdict.append("UDFs shippable" if all_shippable else "UDFs NOT shippable")
    print(
        "-- flowcheck: %s; %d error(s), %d warning(s)"
        % ("; ".join(verdict), errors, warnings),
        file=sys.stderr,
    )
    if errors:
        return 1
    return 3 if warnings else 0


def cmd_livecheck(args):
    """Backward liveness + static cost bounds (S4xx) for one query.

    Compiles the query under all three planners, propagates the RETURN
    clause's demand down each physical plan (reporting dead columns,
    dead property bytes and never-read paths), and composes the
    statically certified worst-case cost.  With ``--max-cost-bound`` the
    certificate is checked like the query service's admission control
    would.  Exit codes match ``repro check``: 0 all bytes live and
    admissible, 1 error diagnostics, 2 syntax error, 3 warnings only.
    """
    from repro.analysis import lint_query
    from repro.engine.planning import (
        ExhaustivePlanner,
        GreedyPlanner,
        LeftDeepPlanner,
    )

    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    try:
        lint_diagnostics = lint_query(args.cypher, statistics=statistics)
    except CypherSyntaxError as exc:
        print("syntax error: %s" % exc, file=sys.stderr)
        return 2
    for diagnostic in lint_diagnostics:
        print(diagnostic.format(args.cypher))
    if any(d.is_blocking for d in lint_diagnostics):
        print("-- blocked: fix the binding errors above", file=sys.stderr)
        return 1

    vertex_strategy = _strategy(args.vertex_strategy)
    edge_strategy = _strategy(args.edge_strategy)
    diagnostics = list(lint_diagnostics)
    for planner_cls in (GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner):
        runner = CypherRunner(
            graph,
            statistics=statistics,
            planner_cls=planner_cls,
            vertex_strategy=vertex_strategy,
            edge_strategy=edge_strategy,
        )
        report = runner.livecheck(args.cypher)
        certificate = runner.certify_cost(args.cypher)
        diagnostics += report.diagnostics
        admission = certificate.diagnostic(args.max_cost_bound)
        if admission is not None:
            diagnostics.append(admission)
        print(
            "-- %-18s %s; %s"
            % (planner_cls.__name__, report.format_summary(),
               certificate.format_summary()),
            file=sys.stderr,
        )
    for diagnostic in diagnostics[len(lint_diagnostics):]:
        print(diagnostic.format(args.cypher))

    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    print(
        "-- livecheck: %d error(s), %d warning(s)" % (errors, warnings),
        file=sys.stderr,
    )
    if errors:
        return 1
    return 3 if warnings else 0


def cmd_stats(args):
    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    print("vertices: %d" % statistics.vertex_count)
    for label in sorted(statistics.vertex_count_by_label):
        print("  :%-14s %6d" % (label, statistics.vertex_count_by_label[label]))
    print("edges: %d" % statistics.edge_count)
    for label in sorted(statistics.edge_count_by_label):
        print(
            "  :%-14s %6d  (distinct sources %d, targets %d)"
            % (
                label,
                statistics.edge_count_by_label[label],
                statistics.distinct_source_by_label.get(label, 0),
                statistics.distinct_target_by_label.get(label, 0),
            )
        )
    return 0


def cmd_shell(args):
    environment, graph, statistics = _load(args)
    runner = CypherRunner(graph, statistics=statistics)
    print(
        "repro shell — %d vertices, %d edges; Cypher queries, "
        "':explain <q>', ':lint <q>', ':sanitize [on|off]', ':quit'"
        % (graph.vertex_count(), graph.edge_count())
    )
    while True:
        try:
            line = input("cypher> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line in (":quit", ":exit", ":q"):
            break
        try:
            if line.startswith(":explain "):
                print(runner.explain(line[len(":explain "):]))
                continue
            if line.startswith(":lint "):
                text = line[len(":lint "):]
                diagnostics = runner.lint(text)
                for diagnostic in diagnostics:
                    print(diagnostic.format(text))
                if not diagnostics:
                    print("-- no findings")
                continue
            if line == ":sanitize" or line.startswith(":sanitize "):
                argument = line[len(":sanitize"):].strip()
                if argument in ("", "toggle"):
                    enable = not runner.sanitize
                elif argument in ("on", "raise", "collect"):
                    enable = argument if argument == "collect" else True
                elif argument == "off":
                    enable = False
                else:
                    print("usage: :sanitize [on|off|collect]")
                    continue
                runner.set_sanitize(enable)
                print(
                    "-- sanitized execution %s"
                    % ("off" if not runner.sanitize else
                       "on (%s mode)" % ("collect" if runner.sanitize ==
                                         "collect" else "raise"))
                )
                continue
            environment.reset_metrics("shell")
            rows = runner.execute_table(line)
            columns = list(rows[0]) if rows else []
            if columns:
                print("\t".join(columns))
                for row in rows:
                    print("\t".join(str(row[c]) for c in columns))
            status = "-- %d row(s), simulated %.2f s" % (
                len(rows), environment.simulated_runtime_seconds()
            )
            if runner.last_sanitizer is not None:
                status += "; %s" % runner.last_sanitizer.summary()
            print(status)
        except Exception as exc:  # noqa: BLE001 — REPL keeps running
            print("error: %s" % exc)
    return 0


def cmd_bench(args):
    from repro.harness import (
        SCALE_FACTOR_LARGE,
        SCALE_FACTOR_SMALL,
        datasize_series,
        format_table,
        intermediate_result_sizes,
        selectivity_series,
        speedup_series,
    )

    if args.experiment == "fig3":
        rows = []
        for query in ("Q1", "Q2", "Q3"):
            for point in speedup_series(query, SCALE_FACTOR_LARGE, [1, 2, 4, 8, 16], "low"):
                rows.append((query, point["workers"], point["seconds"],
                             round(point["speedup"], 1)))
        for query in ("Q4", "Q5", "Q6"):
            for point in speedup_series(query, SCALE_FACTOR_SMALL, [1, 2, 4, 8, 16]):
                rows.append((query, point["workers"], point["seconds"],
                             round(point["speedup"], 1)))
        print(format_table(["query", "workers", "sim s", "speedup"], rows))
    elif args.experiment == "fig4":
        table = datasize_series(
            ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"],
            16,
            [SCALE_FACTOR_SMALL, SCALE_FACTOR_LARGE],
        )
        rows = [
            (query, series[0]["seconds"], series[1]["seconds"])
            for query, series in table.items()
        ]
        print(format_table(["query", "SF-small [s]", "SF-large [s]"], rows))
    elif args.experiment == "fig5":
        table = selectivity_series(["Q1", "Q2", "Q3"], 4, SCALE_FACTOR_LARGE)
        rows = []
        for query, runs in table.items():
            for selectivity in ("high", "medium", "low"):
                run = runs[selectivity]
                rows.append(
                    (query, selectivity, run.simulated_seconds, run.result_count)
                )
        print(format_table(["query", "selectivity", "sim s", "results"], rows))
    elif args.experiment == "table3":
        table = intermediate_result_sizes(SCALE_FACTOR_LARGE)
        rows = [
            (pattern, c["high"], c["medium"], c["low"])
            for pattern, c in table.items()
        ]
        print(format_table(["pattern", "high", "medium", "low"], rows))
    else:
        raise SystemExit("unknown experiment %r" % args.experiment)
    return 0


def cmd_serve(args):
    """Serve one graph over HTTP/JSON via the concurrent query service."""
    from repro.server import GraphRegistry, QueryHTTPServer, QueryService

    environment, graph, statistics = _load(args)
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    registry = GraphRegistry()
    registry.register(args.name, graph, statistics)
    service = QueryService(
        registry,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        default_timeout=args.default_timeout,
        vertex_strategy=_strategy(args.vertex_strategy),
        edge_strategy=_strategy(args.edge_strategy),
        result_cache_size=args.result_cache,
    )
    server = QueryHTTPServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.address
    # the smoke test (scripts/serve_smoke.py) parses this exact line
    print("repro-serve listening on %s:%d" % (host, port), flush=True)
    print(
        "-- graph %r: %d vertices, %d edges; %d workers, queue %d; "
        "POST /query {graph, query, parameters}, POST /shutdown to stop"
        % (args.name, statistics.vertex_count, statistics.edge_count,
           args.max_concurrency, args.max_queue),
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    print("repro-serve: shut down cleanly", flush=True)
    return 0


def cmd_bench_serve(args):
    """Closed-loop concurrent load over the query service (Q1-Q6)."""
    import json

    from repro.server.bench import run_bench

    def progress(message):
        print("-- %s" % message, file=sys.stderr)

    report = run_bench(
        clients=args.clients,
        rounds=args.rounds,
        scale_factor=args.scale_factor,
        seed=args.seed,
        timeout=args.timeout,
        result_cache_size=args.result_cache,
        progress=progress,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_bench_micro(args):
    """Real CPU-time microbenchmarks: fused (columnar) vs per-record."""
    from repro.harness.microbench import (
        format_microbench,
        next_trajectory_path,
        run_microbench,
        write_microbench,
    )

    report = run_microbench(
        queries=tuple(args.queries),
        scale_factor=args.scale_factor,
        seed=args.seed,
        workers=args.workers,
        repeats=args.repeats,
        batch_size=args.batch_size,
    )
    print(format_microbench(report))
    output = args.output
    if output is None:
        output = next_trajectory_path()
    if output != "-":
        write_microbench(report, output)
        print("-- wrote %s" % output, file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cypher pattern matching on a simulated distributed "
        "dataflow engine (Gradoop reproduction)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="simulated cluster size"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate an LDBC-like graph")
    generate.add_argument("--scale-factor", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--output", required=True, help="target directory")
    generate.set_defaults(handler=cmd_generate)

    query = commands.add_parser("query", help="run a Cypher query on a CSV graph")
    query.add_argument("graph", help="graph directory (CSV format)")
    query.add_argument("cypher", help="the query text")
    query.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    query.add_argument("--edge-strategy", choices=["homo", "iso"], default="iso")
    query.set_defaults(handler=cmd_query)

    explain = commands.add_parser("explain", help="show the physical query plan")
    explain.add_argument("graph")
    explain.add_argument("cypher")
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan and show actual row counts",
    )
    explain.add_argument(
        "--verify",
        action="store_true",
        help="check the plan against the structural invariants",
    )
    explain.set_defaults(handler=cmd_explain)

    lint = commands.add_parser(
        "lint", help="static query diagnostics without executing"
    )
    lint.add_argument("cypher", help="the query text")
    lint.add_argument(
        "--graph",
        help="graph directory; enables statistics-based warnings "
        "(unknown labels and edge types)",
    )
    lint.set_defaults(handler=cmd_lint)

    check = commands.add_parser(
        "check",
        help="sanitized differential check: lint, run the query under all "
        "three planners with embedding validation, compare result "
        "multisets and audit cardinality estimates",
    )
    check.add_argument("graph")
    check.add_argument("cypher")
    check.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    check.add_argument("--edge-strategy", choices=["homo", "iso"], default="iso")
    check.add_argument(
        "--max-q-error",
        type=float,
        default=10.0,
        help="estimate q-error above which S211 warnings are emitted",
    )
    check.set_defaults(handler=cmd_check)

    racecheck = commands.add_parser(
        "racecheck",
        help="static lock-discipline lint (C3xx) over Python source: "
        "guarded-by violations, lock-order inversions, blocking calls "
        "under locks, per-call locks",
    )
    racecheck.add_argument(
        "paths", nargs="+",
        help="Python files or directories (e.g. src/repro)",
    )
    racecheck.add_argument(
        "--verbose", action="store_true",
        help="also print the static lock-order graph",
    )
    racecheck.set_defaults(handler=cmd_racecheck)

    flowcheck = commands.add_parser(
        "flowcheck",
        help="static layout-flow verification: abstractly interpret the "
        "physical plan under every planner, proving the §3.3 embedding "
        "layout contracts (S3xx) and certifying every dataflow UDF "
        "process-shippable (P4xx)",
    )
    flowcheck.add_argument("graph")
    flowcheck.add_argument("cypher")
    flowcheck.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    flowcheck.add_argument(
        "--edge-strategy", choices=["homo", "iso"], default="iso"
    )
    flowcheck.set_defaults(handler=cmd_flowcheck)

    livecheck = commands.add_parser(
        "livecheck",
        help="backward liveness and static cost bounds: propagate the "
        "RETURN clause's demand down every planner's physical plan "
        "(dead columns, dead property bytes, never-read paths — S4xx) "
        "and certify the worst-case output cardinality and bytes moved",
    )
    livecheck.add_argument("graph")
    livecheck.add_argument("cypher")
    livecheck.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    livecheck.add_argument(
        "--edge-strategy", choices=["homo", "iso"], default="iso"
    )
    livecheck.add_argument(
        "--max-cost-bound", type=float, default=None,
        help="emit S405 when any operator's certified output "
        "cardinality exceeds this bound (the admission-control check)",
    )
    livecheck.set_defaults(handler=cmd_livecheck)

    stats = commands.add_parser("stats", help="show graph statistics")
    stats.add_argument("graph")
    stats.set_defaults(handler=cmd_stats)

    shell = commands.add_parser("shell", help="interactive Cypher shell")
    shell.add_argument("graph")
    shell.set_defaults(handler=cmd_shell)

    bench = commands.add_parser("bench", help="run one paper experiment")
    bench.add_argument(
        "--experiment",
        choices=["fig3", "fig4", "fig5", "table3"],
        default="fig5",
    )
    bench.set_defaults(handler=cmd_bench)

    serve = commands.add_parser(
        "serve",
        help="serve a CSV graph over HTTP/JSON: concurrent queries, "
        "prepared statements, plan caching, admission control and "
        "per-query deadlines",
    )
    serve.add_argument("graph", help="graph directory (CSV format)")
    serve.add_argument("--name", default="default", help="registry name")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument("--max-concurrency", type=int, default=4)
    serve.add_argument("--max-queue", type=int, default=16)
    serve.add_argument(
        "--default-timeout", type=float, default=None,
        help="per-query deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--result-cache", type=int, default=0,
        help="result cache entries (0 disables result caching)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=None,
        help="chunk length of fused execution "
        "(default: %d)" % DEFAULT_BATCH_SIZE,
    )
    serve.add_argument(
        "--vertex-strategy", choices=["homo", "iso"], default="homo"
    )
    serve.add_argument("--edge-strategy", choices=["homo", "iso"], default="iso")
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(handler=cmd_serve)

    bench_serve = commands.add_parser(
        "bench-serve",
        help="closed-loop multi-client load over the query service, "
        "differentially verified against serial execution",
    )
    bench_serve.add_argument("--clients", type=int, default=8)
    bench_serve.add_argument("--rounds", type=int, default=2)
    bench_serve.add_argument("--scale-factor", type=float, default=0.03)
    bench_serve.add_argument("--seed", type=int, default=11)
    bench_serve.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-query deadline during the load phase",
    )
    bench_serve.add_argument(
        "--result-cache", type=int, default=0,
        help="result cache entries for the service under test",
    )
    bench_serve.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    bench_serve.set_defaults(handler=cmd_bench_serve)

    bench_micro = commands.add_parser(
        "bench-micro",
        help="real CPU-time engine microbenchmarks: each query timed "
        "under fused (columnar) and per-record execution; "
        "writes a BENCH_<n>.json trajectory file for regression "
        "tracking",
    )
    bench_micro.add_argument(
        "--queries", nargs="+", default=list(DEFAULT_MICRO_QUERIES),
        choices=["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"],
        help="paper queries to time",
    )
    bench_micro.add_argument(
        "--scale-factor", type=float, default=DEFAULT_MICRO_SCALE,
        help="LDBC graph scale (pinned default: %s, so successive "
        "BENCH_<n>.json files stay comparable)" % DEFAULT_MICRO_SCALE,
    )
    bench_micro.add_argument("--seed", type=int, default=42)
    bench_micro.add_argument(
        "--repeats", type=int, default=DEFAULT_MICRO_REPEATS,
        help="timed trials per (query, mode) after one warm-up "
        "(pinned default: %d)" % DEFAULT_MICRO_REPEATS,
    )
    bench_micro.add_argument(
        "--batch-size", type=int, default=None,
        help="chunk length of fused execution "
        "(default: %d)" % DEFAULT_BATCH_SIZE,
    )
    bench_micro.add_argument(
        "--output", default=None,
        help="JSON report path; default picks the next BENCH_<n>.json "
        "in the current directory, '-' skips the file",
    )
    bench_micro.set_defaults(handler=cmd_bench_micro)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())

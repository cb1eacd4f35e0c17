"""The traced run: the same requests, in process, through a real QueryService.

The replay loads the CSV graph and builds the service the way
``repro serve`` does with no flags, then sends a fixed prefix of the
workload's request sequence one at a time, each inside a request span.
Prepared statements are prepared first, each in a span of its own, as the
HTTP run prepares them before its window.  Each response is encoded as the
HTTP handler encodes it (``protocol.encode``) and checked against the
reference rows.
"""

import json

from reference import canonical_rows, load_like_serve
from tracing import install, self_times


def build_service(arguments, graph, statistics):
    """A :class:`QueryService` configured as ``cmd_serve`` configures it."""
    from repro.cli import _strategy
    from repro.server import GraphRegistry, QueryService

    registry = GraphRegistry()
    registry.register(arguments.name, graph, statistics)
    return QueryService(
        registry,
        max_concurrency=arguments.max_concurrency,
        max_queue=arguments.max_queue,
        default_timeout=arguments.default_timeout,
        vertex_strategy=_strategy(arguments.vertex_strategy),
        edge_strategy=_strategy(arguments.edge_strategy),
        result_cache_size=arguments.result_cache,
    )


def traced_replay(tracer, graph_dir, requests, expected, prepared):
    """Replay ``requests`` under ``tracer``; returns the failed request ids.

    ``prepared`` is true when the workload sends prepared statements.
    """
    uninstall = install(tracer)
    try:
        arguments, graph, statistics = load_like_serve(graph_dir)
        service = build_service(arguments, graph, statistics)
        try:
            return _replay(tracer, service, arguments.name, requests,
                           expected, prepared)
        finally:
            service.close()
    finally:
        uninstall()


def _replay(tracer, service, graph_name, requests, expected, prepared):
    statements = {}
    if prepared:
        for template, _, text, _ in requests:
            if text in statements:
                continue
            request_id = "prepare-%d" % len(statements)
            with tracer.request(request_id, template=template,
                                phase="prepare"):
                statements[text] = service.prepare(
                    graph_name, text
                ).statement_id
    failed = []
    for index, (template, kind, text, parameters) in enumerate(requests):
        with tracer.request(index, template=template, kind=kind,
                            phase="query"):
            if text in statements:
                result = service.execute_prepared(
                    statements[text], parameters=parameters
                )
            else:
                result = service.execute(
                    graph_name, text, parameters=parameters
                )
            with tracer.span("protocol.encode"):
                json.dumps(result.to_dict(), default=str).encode("utf-8")
        if canonical_rows(result.rows) != expected[kind]:
            failed.append(index)
    return failed


def request_profiles(spans):
    """Per request span: its attributes, duration and per-layer self time.

    Returns ``(profiles, setup)``: ``profiles`` maps a request id to a dict
    with ``template``, ``phase``, ``duration``, ``layers`` (span name ->
    summed self seconds; ``request`` is the time no layer span covers) and
    ``counts`` (summed span attributes); ``setup`` maps the name of each
    span outside a request to its summed self seconds.
    """
    own = self_times(spans)
    profiles = {}
    setup = {}
    for span in spans:
        if span.request is None:
            setup[span.name] = setup.get(span.name, 0.0) + own[span.span_id]
            continue
        profile = profiles.setdefault(span.request,
                                      {"layers": {}, "counts": {}})
        layers = profile["layers"]
        layers[span.name] = layers.get(span.name, 0.0) + own[span.span_id]
        if span.name == "request":
            profile.update(span.attributes)
            profile["duration"] = span.end - span.start
            continue
        counts = profile["counts"]
        for key, value in span.attributes.items():
            counts[key] = counts.get(key, 0) + value
    return profiles, setup

"""In-memory spans around the program's public calls, reduced to self time.

A :class:`Tracer` records one :class:`Span` per timed call: name, start,
end, parent span and the id of the request it belongs to.  Spans nest
through a per-thread stack.  The query service runs each query on its own
worker thread, so a span opened on a thread with an empty stack takes the
request span the replay opened (:meth:`Tracer.request`) as its parent;
the replay keeps one request in flight at a time.

:func:`install` wraps the public calls of each layer from outside the
program.  The wrappers live here, in the benchmark; nothing in ``src``
knows it is being traced.
"""

import contextlib
import functools
import json
import sys
import threading
import time


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "request",
                 "attributes")

    def __init__(self, span_id, name, start, parent, request):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.attributes = {}

    def to_dict(self):
        return {
            "id": self.span_id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "request": self.request,
            "attributes": self.attributes,
        }


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request_span = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._request_span
        with self._lock:
            span = Span(
                len(self.spans), name, self._clock(),
                parent.span_id if parent is not None else None,
                parent.request if parent is not None else None,
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span):
        span.end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError("span %r closed out of order" % span.name)
        stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.start(name)
        try:
            yield span
        finally:
            self.finish(span)

    @contextlib.contextmanager
    def request(self, request_id, **attributes):
        """A root span; later spans on any thread nest under it until it ends."""
        if self._request_span is not None or self._stack():
            raise RuntimeError("a request span is already open")
        span = self.start("request")
        span.request = request_id
        span.attributes.update(attributes)
        self._request_span = span
        try:
            yield span
        finally:
            self._request_span = None
            self.finish(span)

    def write(self, path):
        """One JSON object per line, in start order."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans):
    """``{span_id: self seconds}``: duration minus the time children cover.

    Children are the spans whose ``parent`` is the span.  Overlapping
    children (which sequential calls never produce) are merged so covered
    time is not counted twice.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = (span.end - span.start) - covered
    return result


# Wrapping the program's public calls ----------------------------------------

def _wrap(tracer, name, function, on_result=None, on_call=None):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            if on_call is not None:
                on_call(span, args, kwargs)
            result = function(*args, **kwargs)
            if on_result is not None:
                on_result(span, result)
            return result

    return traced


def _rebind_function(module_name, attribute, replacement):
    """Replace a module-level function everywhere ``repro`` imported it."""
    original = getattr(sys.modules[module_name], attribute)
    restore = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(module, attribute, None) is original:
            setattr(module, attribute, replacement)
            restore.append((module, attribute, original))
    return restore


def install(tracer):
    """Wrap each layer's public call in a span; returns an undo function.

    ============================ =========================================
    span                         public call
    ============================ =========================================
    ``cypher.parse``             ``QueryHandler(...)`` and
                                 ``repro.cypher.parser.parse``
    ``analysis.lint``            ``repro.analysis.linter.lint_query``
    ``planning.plan``            ``GreedyPlanner.plan``
    ``execute``                  ``DataSet.collect``
    ``cost.simulate``            ``ExecutionEnvironment.simulated_runtime_seconds``
    ``rows.build``               ``CypherRunner.build_rows``
    ``setup.load``               ``CSVDataSource.get_logical_graph``
    ``setup.statistics``         ``CSVDataSource.get_statistics``
    ============================ =========================================

    ``cost.simulate`` records the query's :class:`JobMetrics` counts and
    ``rows.build`` the number of rows it built, as span attributes.
    """
    # imported here so that importing this module loads nothing of repro;
    # the modules that import parse/lint_query by name are loaded first so
    # that rebinding reaches (and uninstalling restores) them all
    import repro.analysis.linter
    import repro.cypher.parser
    import repro.engine.prepared  # noqa: F401
    import repro.server  # noqa: F401
    from repro.cypher.query_graph import QueryHandler
    from repro.dataflow.dataset import DataSet
    from repro.dataflow.environment import ExecutionEnvironment
    from repro.engine.planning import GreedyPlanner
    from repro.engine.runner import CypherRunner
    from repro.epgm.io import CSVDataSource

    undo = []
    undo += _rebind_function(
        "repro.cypher.parser", "parse",
        _wrap(tracer, "cypher.parse", repro.cypher.parser.parse),
    )
    undo += _rebind_function(
        "repro.analysis.linter", "lint_query",
        _wrap(tracer, "analysis.lint", repro.analysis.linter.lint_query),
    )

    def record_job(span, args, kwargs):
        metrics = args[1] if len(args) > 1 else kwargs.get("metrics")
        if metrics is not None:
            span.attributes.update(job_counts(metrics))

    def record_rows(span, rows):
        span.attributes["rows"] = len(rows)

    for owner, attribute, name, hooks in (
        (QueryHandler, "__init__", "cypher.parse", {}),
        (GreedyPlanner, "plan", "planning.plan", {}),
        (DataSet, "collect", "execute", {}),
        (ExecutionEnvironment, "simulated_runtime_seconds", "cost.simulate",
         {"on_call": record_job}),
        (CypherRunner, "build_rows", "rows.build", {"on_result": record_rows}),
        (CSVDataSource, "get_logical_graph", "setup.load", {}),
        (CSVDataSource, "get_statistics", "setup.statistics", {}),
    ):
        original = owner.__dict__[attribute]
        setattr(owner, attribute, _wrap(tracer, name, original, **hooks))
        undo.append((owner, attribute, original))

    def uninstall():
        for target, attribute, original in reversed(undo):
            setattr(target, attribute, original)

    return uninstall


def job_counts(metrics):
    """The exact per-query counts of one :class:`JobMetrics`."""
    runs = metrics.runs
    return {
        "records_in": sum(run.records_in for run in runs),
        "shuffled_bytes": sum(run.shuffled_bytes for run in runs),
        "operator_runs": len(runs),
        "expand_records_in": sum(
            run.records_in for run in runs
            if run.name.startswith("ExpandEmbeddings")
        ),
        "join_records_in": sum(
            run.records_in for run in runs
            if run.name.startswith("JoinEmbeddings")
        ),
    }

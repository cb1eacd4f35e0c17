"""The concurrent query service: admission control, deadlines, caching.

:class:`QueryService` turns the single-threaded engine into a shared
service.  Queries run on a bounded thread pool; admission is *fast-fail*
— when ``max_concurrency`` workers are busy and ``max_queue`` queries
wait, a new submission raises :class:`AdmissionError` immediately
instead of stacking unbounded work (the client sees back-pressure, the
service keeps its latency profile).  Every query runs under its own
:class:`~repro.dataflow.CancellationToken`; operators poll it at batch
boundaries, so a deadline cancels a running query cooperatively within
one batch of work and frees the worker.

Concurrency model, in one paragraph: compiled plans are *immutable* DAG
descriptions — each execution calls ``environment.run`` which builds a
fresh per-run dataset cache and threads a per-job scope (metrics +
cancellation) through thread-local state, so any number of workers can
execute the same cached plan simultaneously without sharing mutable
state.  The two exceptions are serialized explicitly: prepared
statements share one mutable parameter binding (the statement's RLock
serializes executions per statement) and compilation mutates runner
bookkeeping (one compile lock per runner).
"""

import itertools
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cache import LRUCache
from repro.dataflow.cancellation import CancellationToken, QueryTimeout
from repro.engine import CypherRunner, GreedyPlanner
from repro.engine.runner import _graph_cache_token
from repro.locks import named_lock

from .cache import ResultCache, prepared_cache_key
from .metrics import ServiceMetrics
from .registry import GraphRegistry

#: plans are small (operator trees), so the shared default can be generous
DEFAULT_PLAN_CACHE_SIZE = 256


class AdmissionError(RuntimeError):
    """The service is saturated; the query was rejected, not queued."""


class CostAdmissionError(AdmissionError):
    """The query's statically certified cost exceeds the service bound.

    Raised *before any operator executes*: the static cost-bound analyzer
    (:mod:`repro.analysis.costbound`) proved that some operator in the
    plan may emit more rows than the service's ``max_cost_bound`` allows
    for any data consistent with the graph statistics.  Carries the
    :class:`~repro.analysis.CostCertificate` and the ``S405`` diagnostic
    naming the offending operator.
    """

    def __init__(self, certificate, diagnostic):
        super().__init__(str(diagnostic))
        self.certificate = certificate
        self.diagnostic = diagnostic


class ServiceClosedError(RuntimeError):
    """The service has been shut down and accepts no new queries."""


class QueryResult:
    """Everything the service reports about one completed query."""

    __slots__ = (
        "graph",
        "query",
        "parameters",
        "rows",
        "elapsed_seconds",
        "queue_seconds",
        "simulated_seconds",
        "plan_cache_hit",
        "result_cache_hit",
        "prepared",
    )

    def __init__(self, graph, query, parameters, rows, elapsed_seconds,
                 queue_seconds, simulated_seconds, plan_cache_hit,
                 result_cache_hit, prepared):
        self.graph = graph
        self.query = query
        self.parameters = parameters
        self.rows = rows
        self.elapsed_seconds = elapsed_seconds
        self.queue_seconds = queue_seconds
        self.simulated_seconds = simulated_seconds
        self.plan_cache_hit = plan_cache_hit
        self.result_cache_hit = result_cache_hit
        self.prepared = prepared

    @property
    def row_count(self):
        return len(self.rows)

    def to_dict(self):
        return {
            "graph": self.graph,
            "rows": self.rows,
            "row_count": self.row_count,
            "elapsed_seconds": self.elapsed_seconds,
            "queue_seconds": self.queue_seconds,
            "simulated_seconds": self.simulated_seconds,
            "plan_cache_hit": self.plan_cache_hit,
            "result_cache_hit": self.result_cache_hit,
            "prepared": self.prepared,
        }

    def __repr__(self):
        return "QueryResult(%d rows, %.3fs, plan_hit=%s)" % (
            self.row_count, self.elapsed_seconds, self.plan_cache_hit,
        )


class PreparedHandle:
    """What :meth:`QueryService.prepare` returns: id + declared parameters."""

    __slots__ = ("statement_id", "graph", "parameter_names", "plan_cache_hit")

    def __init__(self, statement_id, graph, parameter_names, plan_cache_hit):
        self.statement_id = statement_id
        self.graph = graph
        self.parameter_names = parameter_names
        self.plan_cache_hit = plan_cache_hit

    def to_dict(self):
        return {
            "statement_id": self.statement_id,
            "graph": self.graph,
            "parameter_names": list(self.parameter_names),
            "plan_cache_hit": self.plan_cache_hit,
        }


class QueryService:
    """A thread-pooled Cypher query executor over a graph registry."""

    def __init__(
        self,
        registry=None,
        max_concurrency=4,
        max_queue=16,
        default_timeout=None,
        planner_cls=GreedyPlanner,
        vertex_strategy=None,
        edge_strategy=None,
        plan_cache_size=DEFAULT_PLAN_CACHE_SIZE,
        result_cache_size=0,
        lint=True,
        verify_plans=False,
        max_cost_bound=None,
        prune=False,
    ):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.registry = registry if registry is not None else GraphRegistry()
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        self.planner_cls = planner_cls
        self.vertex_strategy = vertex_strategy
        self.edge_strategy = edge_strategy
        self.lint = lint
        self.verify_plans = verify_plans
        #: statically certified admission control: a query whose proven
        #: worst-case per-operator output cardinality exceeds this bound
        #: is rejected with :class:`CostAdmissionError` at submit time,
        #: before any operator executes.  ``None`` disables the check.
        self.max_cost_bound = max_cost_bound
        #: liveness-driven dead-byte pruning for every runner's plans
        self.prune = prune
        #: one LRU shared by every runner the service creates; holds both
        #: ("plan", ...) entries and ("prepared", ...) statements
        self.plan_cache = LRUCache(plan_cache_size, name="cache.plan")
        #: materialized rows; off unless result_cache_size > 0
        self.result_cache = ResultCache(result_cache_size)
        self.metrics = ServiceMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-query"
        )
        self._capacity = max_concurrency + max_queue
        self._admission_lock = named_lock("service.admission")
        self._occupancy = 0  # guarded-by: _admission_lock
        self._closed = False  # guarded-by: _admission_lock
        # (graph name, graph token) -> CypherRunner; a replaced graph gets
        # a new token and therefore a fresh runner
        self._runner_lock = named_lock("service.runner")
        self._runners = {}  # guarded-by: _runner_lock
        self._compile_locks = {}  # guarded-by: _runner_lock
        self._statement_lock = named_lock("service.statement")
        self._statements = {}  # guarded-by: _statement_lock
        # itertools.count.__next__ is atomic under the GIL
        self._statement_ids = itertools.count(1)  # unsynchronized: atomic count

    # Graph management --------------------------------------------------------

    def register_graph(self, name, graph, statistics=None):
        return self.registry.register(name, graph, statistics)

    def _runner(self, entry):
        key = (entry.name, _graph_cache_token(entry.graph))
        with self._runner_lock:
            runner = self._runners.get(key)
            if runner is None:
                runner = CypherRunner(
                    entry.graph,
                    statistics=entry.statistics,
                    planner_cls=self.planner_cls,
                    vertex_strategy=self.vertex_strategy,
                    edge_strategy=self.edge_strategy,
                    lint=self.lint,
                    verify_plans=self.verify_plans,
                    plan_cache=self.plan_cache,
                    prune=self.prune,
                )
                self._runners[key] = runner
                self._compile_locks[key] = named_lock("service.compile")
            return runner, self._compile_locks[key]

    # Submission --------------------------------------------------------------

    def submit(self, graph, query, parameters=None, timeout=None,
               prepared=False):
        """Admit a query and return its ``Future`` (non-blocking).

        Raises :class:`AdmissionError` *immediately* when
        ``max_concurrency + max_queue`` queries are already in the
        service — fast-fail back-pressure instead of unbounded queueing.
        """
        with self._admission_lock:
            if self._closed:
                raise ServiceClosedError("query service is shut down")
            if self._occupancy >= self._capacity:
                self.metrics.on_reject()
                raise AdmissionError(
                    "service saturated: %d queries in flight or queued "
                    "(capacity %d = %d workers + %d queue slots)"
                    % (self._occupancy, self._capacity,
                       self.max_concurrency, self.max_queue)
                )
            self._occupancy += 1
        self.metrics.on_submit()
        submitted = time.perf_counter()
        try:
            return self._executor.submit(
                self._run, graph, query, parameters, timeout, prepared,
                submitted,
            )
        except BaseException:
            self.metrics.on_abandon()
            with self._admission_lock:
                self._occupancy -= 1
            raise

    def execute(self, graph, query, parameters=None, timeout=None,
                prepared=False):
        """Admit, run and wait: the blocking convenience wrapper."""
        return self.submit(
            graph, query, parameters=parameters, timeout=timeout,
            prepared=prepared,
        ).result()

    # Prepared statements -----------------------------------------------------

    def prepare(self, graph, query):
        """Compile ``query`` once; returns a :class:`PreparedHandle`.

        The statement itself lives in the shared plan cache, so preparing
        the same query on the same graph twice returns a second handle to
        the *same* compiled plan (``plan_cache_hit=True``).
        """
        entry = self.registry.get(graph)
        runner, compile_lock = self._runner(entry)
        statement, hit = self._prepared_statement(runner, compile_lock, query)
        statement_id = "stmt-%d" % next(self._statement_ids)
        with self._statement_lock:
            self._statements[statement_id] = (graph, query)
        return PreparedHandle(
            statement_id, graph, statement.parameter_names, hit
        )

    def execute_prepared(self, statement_id, parameters=None, timeout=None):
        """Run a previously prepared statement with fresh bindings."""
        try:
            with self._statement_lock:
                graph, query = self._statements[statement_id]
        except KeyError:
            raise KeyError("unknown statement id %r" % statement_id)
        return self.execute(
            graph, query, parameters=parameters, timeout=timeout,
            prepared=True,
        )

    def _prepared_statement(self, runner, compile_lock, query):
        """``(statement, was_cached)`` from the shared plan cache."""
        key = prepared_cache_key(runner, query)
        statement = self.plan_cache.get(key)
        if statement is not None:
            return statement, True
        with compile_lock:
            statement = self.plan_cache.get(key)
            if statement is not None:
                return statement, True
            statement = runner.prepare(query)
            self.plan_cache.put(key, statement)
            return statement, False

    # Execution (worker side) -------------------------------------------------

    def _run(self, graph, query, parameters, timeout, prepared, submitted):
        started = time.perf_counter()
        self.metrics.on_start(started - submitted)
        outcome = "failed"
        try:
            result = self._execute_query(
                graph, query, parameters, timeout, prepared, submitted,
                started,
            )
            outcome = "completed"
            return result
        except QueryTimeout:
            outcome = "timeout"
            raise
        finally:
            self.metrics.on_finish(time.perf_counter() - submitted, outcome)
            with self._admission_lock:
                self._occupancy -= 1

    def _execute_query(self, graph, query, parameters, timeout, prepared,
                       submitted, started):
        entry = self.registry.get(graph)
        runner, compile_lock = self._runner(entry)
        if timeout is None:
            timeout = self.default_timeout
        token = (
            CancellationToken.with_timeout(timeout)
            if timeout is not None
            else CancellationToken()
        )
        # the deadline may already have passed while the query queued
        token.poll()
        queue_seconds = started - submitted

        hit, rows = self.result_cache.get(runner, query, parameters)
        if hit:
            return QueryResult(
                graph, query, parameters, rows,
                elapsed_seconds=time.perf_counter() - submitted,
                queue_seconds=queue_seconds,
                simulated_seconds=0.0,
                plan_cache_hit=True,
                result_cache_hit=True,
                prepared=False,
            )

        environment = entry.graph.environment
        use_prepared = bool(prepared or parameters or "$" in query)
        if use_prepared:
            statement, plan_hit = self._prepared_statement(
                runner, compile_lock, query
            )
            self._admit_cost(statement.cost_certificate)
            embeddings, meta, job_metrics = statement.run(
                parameters, cancellation=token
            )
            rows = runner.build_rows(statement.handler, embeddings, meta)
        else:
            # __contains__ does not touch hit/miss stats, so probing here
            # keeps the plan-hit flag accurate without double counting
            plan_hit = runner.plan_cache_key(query, parameters) in (
                self.plan_cache
            )
            with compile_lock:
                handler, root = runner.compile(query, parameters)
            if self.max_cost_bound is not None:
                from repro.analysis.costbound import certify_plan

                self._admit_cost(certify_plan(root, runner.statistics))
            with environment.job(
                "service:%s" % graph, cancellation=token
            ) as job_metrics:
                embeddings = root.evaluate().collect()
            rows = runner.build_rows(handler, embeddings, root.meta)

        self.result_cache.put(runner, query, parameters, rows)
        return QueryResult(
            graph, query, parameters, rows,
            elapsed_seconds=time.perf_counter() - submitted,
            queue_seconds=queue_seconds,
            simulated_seconds=environment.simulated_runtime_seconds(
                job_metrics
            ),
            plan_cache_hit=plan_hit,
            result_cache_hit=False,
            prepared=use_prepared,
        )

    def _admit_cost(self, certificate):
        """Reject a plan whose certified bound exceeds the service limit."""
        if self.max_cost_bound is None or certificate is None:
            return
        diagnostic = certificate.diagnostic(self.max_cost_bound)
        if diagnostic is not None:
            self.metrics.on_reject()
            raise CostAdmissionError(certificate, diagnostic)

    # Introspection / lifecycle ----------------------------------------------

    def metrics_snapshot(self):
        snapshot = self.metrics.snapshot(
            plan_cache=self.plan_cache,
            result_cache=(
                self.result_cache._cache if self.result_cache.enabled else None
            ),
        )
        snapshot["graphs"] = self.registry.names()
        snapshot["capacity"] = {
            "max_concurrency": self.max_concurrency,
            "max_queue": self.max_queue,
        }
        with self._statement_lock:
            snapshot["statements"] = len(self._statements)
        return snapshot

    @property
    def closed(self):
        with self._admission_lock:
            return self._closed

    def close(self, wait=True):
        """Stop admitting queries; optionally wait for in-flight ones."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

"""Plan/result caching: LRU bounds, eviction, stats-version invalidation."""

from repro.cache import LRUCache
from repro.engine import CypherRunner
from repro.server import ResultCache, prepared_cache_key, result_cache_key

QUERIES = [
    "MATCH (p:Person) RETURN p.name",
    "MATCH (c:City) RETURN c.name",
    "MATCH (u:University) RETURN u.name",
]


class TestLRUCache:
    def test_get_miss_returns_default(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("k") is None
        assert cache.get("k", "fallback") == "fallback"
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_put_get_roundtrip(self):
        cache = LRUCache(maxsize=2)
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats.hits == 1

    def test_evicts_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" — "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_contains_does_not_touch_stats(self):
        # the service probes with `in` for its plan-hit flag; that probe
        # must not double-count against the hit/miss counters
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.lookups == 0

    def test_maxsize_zero_disables_storage(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_invalidate_all_and_by_predicate(self):
        cache = LRUCache(maxsize=8)
        for index in range(4):
            cache.put(("tag", index), index)
        removed = cache.invalidate(lambda key: key[1] % 2 == 0)
        assert removed == 2
        assert len(cache) == 2
        assert cache.stats.invalidations == 2
        cache.clear()
        assert len(cache) == 0


class TestRunnerPlanCache:
    """Satellite: the runner's plan cache is a bounded shared LRU."""

    def test_default_plan_cache_is_bounded(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        assert isinstance(runner.plan_cache, LRUCache)
        assert runner.plan_cache.maxsize > 0

    def test_compile_populates_and_reuses_cache(self, figure1_graph):
        runner = CypherRunner(figure1_graph, plan_cache=LRUCache(maxsize=4))
        handler, root = runner.compile(QUERIES[0])
        assert len(runner.plan_cache) == 1
        handler2, root2 = runner.compile(QUERIES[0])
        assert handler2 is handler
        assert root2 is root
        assert runner.plan_cache.stats.hits == 1

    def test_small_cache_evicts_oldest_plan(self, figure1_graph):
        runner = CypherRunner(figure1_graph, plan_cache=LRUCache(maxsize=2))
        for query in QUERIES:
            runner.compile(query)
        assert len(runner.plan_cache) == 2
        assert runner.plan_cache.stats.evictions == 1
        assert runner.plan_cache_key(QUERIES[0]) not in runner.plan_cache
        assert runner.plan_cache_key(QUERIES[2]) in runner.plan_cache
        # recompiling the evicted query misses, then lands back in cache
        _, root = runner.compile(QUERIES[0])
        assert runner.plan_cache_key(QUERIES[0]) in runner.plan_cache
        assert root is not None

    def test_shared_cache_across_runners(self, figure1_graph):
        shared = LRUCache(maxsize=8)
        first = CypherRunner(figure1_graph, plan_cache=shared)
        second = CypherRunner(figure1_graph, plan_cache=shared)
        handler, root = first.compile(QUERIES[0])
        handler2, root2 = second.compile(QUERIES[0])
        assert root2 is root  # same graph + settings -> same cached plan

    def test_statistics_version_bump_invalidates_by_construction(
        self, figure1_graph
    ):
        runner = CypherRunner(figure1_graph, plan_cache=LRUCache(maxsize=8))
        _, old_root = runner.compile(QUERIES[0])
        old_key = runner.plan_cache_key(QUERIES[0])

        runner.statistics.version += 1  # "the graph changed underneath us"

        new_key = runner.plan_cache_key(QUERIES[0])
        assert new_key != old_key
        _, new_root = runner.compile(QUERIES[0])
        assert new_root is not old_root  # old plan was unreachable
        assert len(runner.plan_cache) == 2  # old entry ages out via LRU

    def test_execution_still_correct_after_version_bump(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        before = runner.execute_table(QUERIES[0])
        runner.statistics.version += 1
        after = runner.execute_table(QUERIES[0])
        assert sorted(row["p.name"] for row in before) == [
            "Alice", "Bob", "Eve",
        ]
        assert before == after


class TestCacheKeys:
    def test_key_families_are_disjoint(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        query = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"
        parameters = {"name": "Alice"}
        plan_key = runner.plan_cache_key(query, parameters)
        prepared_key = prepared_cache_key(runner, query)
        result_key = result_cache_key(runner, query, parameters)
        assert plan_key[0] == "plan"
        assert prepared_key[0] == "prepared"
        assert result_key[0] == "result"
        assert len({plan_key, prepared_key, result_key}) == 3

    def test_prepared_key_ignores_parameters(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        query = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"
        assert prepared_cache_key(runner, query) == prepared_cache_key(
            runner, query
        )

    def test_result_key_depends_on_parameters(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        query = "MATCH (p:Person) WHERE p.name = $name RETURN p.name"
        alice = result_cache_key(runner, query, {"name": "Alice"})
        eve = result_cache_key(runner, query, {"name": "Eve"})
        assert alice != eve


class TestResultCache:
    def test_disabled_cache_never_hits_and_keeps_stats_clean(
        self, figure1_graph
    ):
        runner = CypherRunner(figure1_graph)
        cache = ResultCache(maxsize=0)
        assert not cache.enabled
        hit, rows = cache.get(runner, QUERIES[0], None)
        assert hit is False and rows is None
        cache.put(runner, QUERIES[0], None, [{"x": 1}])
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_enabled_cache_roundtrip(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        cache = ResultCache(maxsize=4)
        hit, _ = cache.get(runner, QUERIES[0], None)
        assert hit is False
        cache.put(runner, QUERIES[0], None, [{"x": 1}])
        hit, rows = cache.get(runner, QUERIES[0], None)
        assert hit is True
        assert rows == [{"x": 1}]

    def test_version_bump_makes_cached_rows_unreachable(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        cache = ResultCache(maxsize=4)
        cache.put(runner, QUERIES[0], None, [{"x": 1}])
        runner.statistics.version += 1
        hit, _ = cache.get(runner, QUERIES[0], None)
        assert hit is False

    def test_invalidate_and_clear(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        cache = ResultCache(maxsize=4)
        cache.put(runner, QUERIES[0], None, [])
        cache.put(runner, QUERIES[1], None, [])
        assert len(cache) == 2
        cache.invalidate()
        assert len(cache) == 0


class TestCachedEmptyResults:
    def test_empty_row_sets_are_cached_hits(self, figure1_graph):
        # regression guard: the sentinel-based get must distinguish "cached
        # empty list" from "not cached" — `if rows:` would not
        runner = CypherRunner(figure1_graph)
        cache = ResultCache(maxsize=4)
        cache.put(runner, QUERIES[0], None, [])
        hit, rows = cache.get(runner, QUERIES[0], None)
        assert hit is True
        assert rows == []

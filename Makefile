.PHONY: install test check flowcheck livecheck lint typecheck racecheck \
	bench bench-micro paper-figures docs-codes examples reports clean \
	serve-smoke bench-serve

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# the dynamic analysis battery: sanitized LDBC differential across all
# three planners, corruption fixtures, estimate-audit checks
check:
	pytest tests/analysis/test_sanitizer.py tests/analysis/test_differential.py
	pytest benchmarks/test_microbench_engine.py -k "q1_plain or q1_sanitized" --benchmark-disable

# the static analysis battery: layout-flow verification (S3xx) and UDF
# shippability certification (P4xx) over the LDBC plans and the planted
# violation fixtures
flowcheck:
	pytest tests/analysis/test_flow.py tests/analysis/test_udfcheck.py \
		tests/analysis/test_flow_soundness.py

# the backward analysis battery: liveness (S4xx) and the planted dead-byte
# fixtures, the pruning rewriter's equivalence suite, and the static
# cost-bound/admission-control checks
livecheck:
	pytest tests/analysis/test_liveness.py tests/analysis/test_prune.py \
		tests/analysis/test_costbound.py

lint:
	@command -v ruff >/dev/null 2>&1 || { \
		echo "error: ruff not installed — pip install -e '.[dev]'" >&2; \
		exit 1; }
	ruff check src tests

typecheck:
	@command -v mypy >/dev/null 2>&1 || { \
		echo "error: mypy not installed — pip install -e '.[dev]'" >&2; \
		exit 1; }
	mypy src/repro/analysis src/repro/dataflow src/repro/engine/embedding.py \
		src/repro/engine/columnar.py

# regenerate the diagnostic-code table in docs/analysis.md from the
# CODES registry (tests/analysis/test_docs_codes.py pins the two in sync)
docs-codes:
	python scripts/gen_code_docs.py

# the concurrency battery: static lock-discipline lint over our own
# source, then the server suite under the runtime lock-order witness,
# then the interleaving fuzzer's long (stress-marked) schedules
racecheck:
	python -m repro racecheck src/repro
	REPRO_LOCK_WITNESS=1 pytest tests/server tests/analysis/test_witness.py
	pytest -m stress tests/

bench:
	pytest benchmarks/ --benchmark-only

# real CPU-time engine microbenchmarks, fused (columnar) vs per-record;
# appends the next BENCH_<n>.json trajectory file at the repo root.
# The columnar-vs-per-record comparison is informational
# (non-blocking): the target succeeds regardless of the measured ratio
# so noisy machines never fail CI — regressions are caught by eye from
# the BENCH_<n>.json series instead.
bench-micro:
	python -m repro bench-micro

# the paper-figure shape tests (Figs. 3-5, Tables 3-4, appendix): they
# assert shapes of the simulated cost model, so they are deterministic
# and catch any change to the recorded metric stream (~20 s)
paper-figures:
	pytest -q --benchmark-disable benchmarks/test_fig3_speedup.py \
		benchmarks/test_fig4_datasize.py benchmarks/test_fig5_selectivity.py \
		benchmarks/test_table3_intermediate.py \
		benchmarks/test_table4_runtimes.py \
		benchmarks/test_appendix_cardinalities.py

# start `repro serve` as a subprocess, run a parameterized query over the
# wire, prepare/execute with two bindings, shut down cleanly
serve-smoke:
	python scripts/serve_smoke.py

# closed-loop concurrent load (8 clients, Q1-Q6) with differential
# verification, deadline and admission-control checks
bench-serve:
	python -m repro bench-serve --clients 8 --rounds 1 --scale-factor 0.02

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

reports: bench
	@echo "reports in benchmarks/_reports/"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

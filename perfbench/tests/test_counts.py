"""The exact per-template counts repeat across two traced runs of one seed.

Each traced run is its own process with its own string-hash seed, as two
benchmark runs are.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

SCALE_FACTOR = 0.1
GRAPH_SEED = 42


def traced_counts(graph_dir, workload, seed, count):
    """``{metric: value}`` of every count metric of one traced replay."""
    from reference import expected_rows, load_like_serve, person_first_names
    from repro.ldbc import LDBCGenerator
    from run import replay_metrics
    from replay import request_profiles, traced_replay
    from tracing import Tracer
    from workloads import RequestSequence

    dataset = LDBCGenerator(SCALE_FACTOR, GRAPH_SEED).generate()
    names = {s: dataset.first_name(s) for s in ("high", "medium", "low")}
    arguments, graph, statistics = load_like_serve(graph_dir)
    sequence = RequestSequence(workload, seed, names=names,
                               graph_names=person_first_names(graph))
    expected = expected_rows(arguments, graph, statistics, sequence.kinds)
    tracer = Tracer()
    failed = traced_replay(tracer, graph_dir, sequence.prefix(count),
                           expected, workload == "operational")
    assert not failed
    metrics = replay_metrics(*request_profiles(tracer.spans))
    return {name: value for name, (value, unit) in metrics.items()
            if unit == "count"}


def run_in_subprocess(graph_dir, workload, seed, count, hash_seed):
    code = (
        "import json, sys; sys.path[:0] = %r; import test_counts; "
        "print(json.dumps(test_counts.traced_counts(%r, %r, %d, %d)))"
        % ([os.path.dirname(os.path.abspath(__file__)), BENCH,
            os.path.join(ROOT, "src")], graph_dir, workload, seed, count)
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    output = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    from server import generate_graph

    path = str(tmp_path_factory.mktemp("graph") / "sf")
    generate_graph(ROOT, SCALE_FACTOR, GRAPH_SEED, path)
    return path


@pytest.mark.parametrize("workload,count", [
    ("operational", 36), ("analytical", 36), ("adhoc", 12),
])
def test_counts_repeat_exactly(graph_dir, workload, count):
    first = run_in_subprocess(graph_dir, workload, 3, count, hash_seed=1)
    second = run_in_subprocess(graph_dir, workload, 3, count, hash_seed=2)
    assert first == second
    assert any(value > 0 for name, value in first.items()
               if name.startswith("execute.records_in."))

"""Static inputs of a bulk iteration: evaluated once, recorded per superstep."""

from collections import Counter

import pytest

from repro.dataflow import ExecutionEnvironment


def _run_key(run):
    return (run.name, run.iteration, run.records_in, run.records_out,
            tuple(run.worker_records_in), tuple(run.worker_records_out),
            run.shuffled_records, run.shuffled_bytes)


def _expand(env, start, static):
    """Walk a chain 1→2→3→4 for three supersteps; count edge evaluations."""
    calls = []
    edges = env.from_collection([(1, 2), (2, 3), (3, 4)]).map(
        lambda edge: calls.append(edge) or edge, name="edges"
    )

    def step(working, iteration):
        expanded = working.join(
            edges, lambda v: v, lambda e: e[0], join_fn=lambda v, e: [e[1]]
        )
        return expanded, expanded

    with env.job("iterate") as metrics:
        result = env.iterate(
            env.from_collection(start), step, max_iterations=3,
            static=(edges,) if static else (),
        ).collect()
    return sorted(result), len(calls), Counter(map(_run_key, metrics.runs))


@pytest.mark.parametrize("fusion", [True, False])
def test_static_input_runs_once_and_its_metrics_replay(fusion):
    env = ExecutionEnvironment(parallelism=2, fusion=fusion)
    per_superstep = _expand(env, [1], static=False)
    once = _expand(env, [1], static=True)
    assert once[0] == per_superstep[0] == [2, 3, 4]
    assert (per_superstep[1], once[1]) == (9, 3)
    # the replayed runs equal what per-superstep evaluation records
    assert once[2] == per_superstep[2]
    assert {key[1] for key in once[2] if key[0] == "edges"} == {1, 2, 3}


def test_empty_working_set_never_evaluates_static_inputs():
    env = ExecutionEnvironment(parallelism=2)
    result, calls, runs = _expand(env, [], static=True)
    assert (result, calls) == ([], 0)
    assert all(key[1] is None for key in runs)


def test_each_evaluation_reevaluates_static_inputs():
    env = ExecutionEnvironment(parallelism=2)
    calls = []
    edges = env.from_collection([(1, 2)]).map(
        lambda edge: calls.append(edge) or edge
    )
    iteration = env.iterate(
        env.from_collection([1]),
        lambda working, i: working.join(
            edges, lambda v: v, lambda e: e[0], join_fn=lambda v, e: [e[1]]
        ),
        max_iterations=2,
        collect_emissions=False,
        static=(edges,),
    )
    assert iteration.collect() == []
    assert iteration.collect() == []
    assert len(calls) == 2

"""Request sequences: seeded, repeatable, and (adhoc) never cached."""

import pytest

from workloads import (
    ADHOC_POOL,
    TEMPLATES,
    WORKLOADS,
    RequestSequence,
    adhoc_pool,
    balanced_order,
)

NAMES = {"high": "Ursa", "medium": "Ben", "low": "Jan"}
GRAPH_NAMES = ["Ann", "Ben", "Eve", "Ingo", "Jan", "Lena", "Ursa", "Vito"]


def sequence(workload, seed):
    return RequestSequence(workload, seed, names=NAMES,
                           graph_names=GRAPH_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_sequence(workload):
    assert sequence(workload, 7).prefix(300) == sequence(workload, 7).prefix(300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_sequence(workload):
    assert sequence(workload, 7).prefix(300) != sequence(workload, 8).prefix(300)


def test_index_order_does_not_matter():
    forward = sequence("operational", 3)
    backward = sequence("operational", 3)
    expected = [forward[index] for index in range(60)]
    assert [backward[index] for index in reversed(range(60))] == expected[::-1]


@pytest.mark.parametrize("workload", ("operational", "analytical"))
def test_whole_rounds_hold_every_request_equally(workload):
    requests = sequence(workload, 5)
    length = requests.round_length
    for rounds in (1, 3):
        kinds = [kind for _, kind, _, _ in requests.prefix(rounds * length)]
        assert len({kinds.count(kind) for kind in set(kinds)}) == 1
        assert set(kinds) == {kind for _, kind, _, _ in requests.kinds}


@pytest.mark.parametrize("workload", ("operational", "analytical"))
def test_each_template_follows_each_template_once_per_round(workload):
    requests = sequence(workload, 9)
    length = requests.round_length
    templates = [template for template, _, _, _ in requests.prefix(3 * length + 1)]
    for start in (0, length, 2 * length):
        pairs = list(zip(templates[start:start + length],
                         templates[start + 1:start + length + 1]))
        assert sorted(pairs) == sorted(
            (a, b) for a in TEMPLATES for b in TEMPLATES
        )


@pytest.mark.parametrize("count", (1, 2, 6))
def test_balanced_order_is_an_eulerian_circuit(count):
    import random

    order = balanced_order(count, random.Random(count), start=count - 1)
    assert order[0] == count - 1
    cyclic = list(zip(order, order[1:] + order[:1]))
    assert sorted(cyclic) == [(a, b) for a in range(count) for b in range(count)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_issues_all_six_templates(workload):
    templates = {template for template, _, _, _ in sequence(workload, 1).kinds}
    assert templates == set(TEMPLATES)


def test_adhoc_texts_are_distinct_and_outnumber_the_plan_cache():
    from repro.server.service import DEFAULT_PLAN_CACHE_SIZE

    pool = adhoc_pool(11, GRAPH_NAMES, ADHOC_POOL)
    texts = [text for _, _, text, _ in pool]
    assert len(set(texts)) == len(texts) == ADHOC_POOL
    assert ADHOC_POOL > DEFAULT_PLAN_CACHE_SIZE


def test_adhoc_texts_parse_and_lint_clean():
    from repro.analysis.linter import lint_query

    for _, _, text, _ in adhoc_pool(2, GRAPH_NAMES, 60):
        assert not [d for d in lint_query(text) if d.is_blocking], text

"""Every emitted metric name is legal and is exactly a listed metric."""

import json
import os

import pytest

from conftest import ROOT
from run import TRACE_LAYERS, end_to_end_metrics, replay_metrics, served_metrics
from stats import NAME_PATTERN
from workloads import TEMPLATES, WORKLOADS


@pytest.fixture(scope="module")
def listing():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def listed(listing, section):
    return [metric["name"] for metric in listing[section]]


def checked_responses(count=120):
    return [
        {"index": index, "template": TEMPLATES[index % len(TEMPLATES)],
         "kind": "k%d" % (index % 9),
         "latency": 0.1 + index / 1000.0, "elapsed": 0.05, "queue": 0.001,
         "row_count": 3, "ok": True, "wrong": False, "error": None}
        for index in range(count)
    ]


def traced_profiles():
    profiles = {}
    for index, template in enumerate(TEMPLATES * 2):
        layers = {layer: 0.001 for layer, _ in TRACE_LAYERS}
        layers["request"] = 0.0005
        profiles[index] = {
            "template": template, "phase": "query", "duration": 0.01,
            "layers": layers,
            "counts": {"records_in": 10, "shuffled_bytes": 100,
                       "operator_runs": 4, "expand_records_in": 0,
                       "join_records_in": 5, "rows": 3},
        }
    return profiles


def test_listed_names_are_legal_and_unique(listing):
    names = listed(listing, "end_to_end") + listed(listing, "per_layer")
    assert all(NAME_PATTERN.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in listing["workloads"]} <= set(WORKLOADS)


def test_end_to_end_names_are_exactly_the_listed_ones(listing):
    metrics = end_to_end_metrics(
        checked_responses(), window=10.0, cpu_seconds=5.0, peak_rss=60.0,
        setups=[0.7, 0.8, 0.6],
    )
    assert list(metrics) == listed(listing, "end_to_end")
    units = {m["name"]: m["unit"] for m in listing["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_per_layer_names_are_exactly_the_listed_ones(listing):
    profiles = traced_profiles()
    metrics = replay_metrics(
        profiles, {"setup.load": 0.2, "setup.statistics": 0.001}
    )
    metrics.update(served_metrics(
        checked_responses(), 12,
        {"rejected": 0, "plan_cache": {"hit_rate": 1.0}}, profiles,
    ))
    metrics["host.calibration_ms"] = (20.0, "ms")
    assert list(metrics) == listed(listing, "per_layer")
    units = {m["name"]: m["unit"] for m in listing["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units

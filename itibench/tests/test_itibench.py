"""Self-test of the benchmark: seeded inputs, the metric contract, and that
wrong outputs are counted.

    python3 -m pytest itibench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_program()

import requests  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from itiguard import model, validation  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def quick(monkeypatch):
    """Short runs: a handful of timed ops and one setup probe are enough to check the output shape."""
    monkeypatch.setattr(run, "MIN_SAMPLES", 10)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", ["generate-repair", "live-cache-cold"])
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    build = workloads.WORKLOADS[name]
    first, again, other = build(7, tmp_path), build(7, tmp_path), build(8, tmp_path)
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_corpus_bench_inputs_are_the_bundled_corpus(tmp_path):
    build = workloads.CorpusBench
    assert build(7, tmp_path).digest == build(8, tmp_path).digest


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, quick):
    result = run.measure(name, seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # Layers a workload bypasses report no calls.
        assert (values["correction.correct_calls"] > 0) == (name == "generate-repair")
        assert (values["model.parse_calls"] > 0) == (name != "live-cache-cold")
        assert (values["durations.cache_writes"] > 0) == (name == "live-cache-cold")
    else:
        assert all(v > 0 for v in values.values())


def test_planted_wrong_output_counts_in_error_ratio(quick, monkeypatch):
    original = model.render_itinerary
    monkeypatch.setattr(model, "render_itinerary", lambda itin: original(model.Itinerary(itin.stops[::-1])))
    result = run.measure("generate-repair", seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0


def test_a_swallowed_network_call_counts_as_a_failed_op(quick, monkeypatch):
    original = validation.validate

    def phones_home(*args, **kwargs):
        try:
            requests.get("http://durations.invalid/")
        except RuntimeError:
            pass
        return original(*args, **kwargs)

    monkeypatch.setattr(validation, "validate", phones_home)
    result = run.measure("live-cache-cold", seed=3, seconds=0, trace=False)
    assert result["failed"] == result["attempted"]


def test_histogram_quantiles_match_exact_ranks_within_a_bucket():
    rng = random.Random(5)
    values = sorted(rng.lognormvariate(13, 1.5) for _ in range(5000))
    histogram = run.Histogram()
    for value in values:
        histogram.add(value)
    assert histogram.total == len(values) and len(histogram.counts) == run.Histogram.BUCKETS
    for share in (0.5, 0.9):
        exact = values[math.ceil(share * len(values)) - 1]
        assert histogram.quantile(share) == pytest.approx(exact, rel=run.Histogram.RATIO - 1)

"""The percentile helper, and BENCHMARK.json against the metric registry."""

import json
import re
from pathlib import Path

import pytest

from bench import metrics
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it():
    samples = list(range(100))
    assert metrics.percentile(samples, 50) == 49
    assert metrics.percentile(samples, 90) == 89  # ten beyond: 90..99
    with pytest.raises(ValueError):
        metrics.percentile(samples, 95)  # only five beyond
    with pytest.raises(ValueError):
        metrics.percentile(list(range(15)), 60)


def test_tail_percentile_is_the_highest_grid_point_with_ten_samples_beyond():
    assert metrics.tail_percentile(320) == 95.0
    assert metrics.tail_percentile(200) == 95.0
    assert metrics.tail_percentile(199) == 90.0
    assert metrics.tail_percentile(160) == 90.0
    assert metrics.tail_percentile(99) == 75.0
    assert metrics.tail_percentile(40) == 75.0
    assert metrics.tail_percentile(39) is None
    for count in (40, 41, 99, 100, 101, 160, 199, 200, 201, 1000):
        p = metrics.tail_percentile(count)
        value = metrics.percentile(list(range(count)), p)  # must not refuse
        assert count - 1 - value >= 10
    # Too few samples for any tail: the summary falls back to the median.
    assert metrics.latency_summary([3.0, 1.0, 2.0], guaranteed=3) == (2.0, 2.0, 50.0)


def test_the_tail_is_read_where_the_guaranteed_sample_count_allows():
    samples = [float(i) for i in range(400)]
    # 400 samples would carry a p95, but a run is only sure of 40: p75 it is,
    # however many passes a faster program fits into the run.
    assert metrics.latency_summary(samples, guaranteed=40) == (199.5, 299.0, 75.0)
    assert metrics.latency_summary(samples, guaranteed=320) == (199.5, 379.0, 95.0)
    # A smoke run has fewer samples than guaranteed and must not be refused.
    assert metrics.latency_summary(samples[:30], guaranteed=320)[2] == 50.0


def test_benchmark_json_matches_the_registry_and_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["bench"]
    assert document["command"] == ["python3", "bench/run.py"]
    assert 1 <= document["run_seconds"] <= 60

    workloads = document["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(metrics.ALL) == list(WORKLOADS)
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    end_to_end = document["end_to_end"]
    assert 1 <= len(end_to_end) <= 16
    assert end_to_end == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end)
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)

    per_layer = document["per_layer"]
    assert 1 <= len(per_layer) <= 128
    assert per_layer == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]

    names = [m["name"] for m in workloads + end_to_end + per_layer]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in end_to_end + per_layer)
    assert all(m["better"] in ("lower", "higher") for m in end_to_end + per_layer)


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in metrics.END_TO_END}
    for layer in metrics.PER_LAYER:
        moved, on = layer.moves
        assert moved in end_to_end, layer.name
        assert on and set(on) <= set(metrics.ALL), layer.name


def test_every_span_and_count_feeds_a_registered_layer_metric():
    from bench import layers, trace

    registered = {m.name for m in metrics.PER_LAYER}
    assert set(trace.SPAN_NAMES) <= registered
    assert set(trace.SPAN_COUNTS) <= registered
    assert {f"mpc.engine.{c}" for c in layers.ENGINE_COUNTERS} <= registered

"""Span arithmetic, the tail statistic, and agreement between the metric
names the benchmark emits and the ones BENCHMARK.json declares."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from vssenhance.tensor import Tensor


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def at(t):
        clock.now = t

    at(0.0); tr.enter("outer")
    at(1.0); tr.enter("a")
    at(4.0); tr.exit()                      # a: 3 s, no children
    at(5.0); tr.enter("b", "b.alias")
    at(5.2); tr.enter("leaf")
    at(5.7); tr.exit()                      # leaf: 0.5 s
    at(6.0); tr.exit()                      # b: 1 s, 0.5 s of it in leaf
    at(10.0); tr.exit()                     # outer: 10 s, 4 s in a and b

    assert tr.total["outer"] == pytest.approx(10.0)
    assert tr.self_time["outer"] == pytest.approx(6.0)
    assert tr.self_time["a"] == pytest.approx(3.0)
    assert tr.total["b"] == pytest.approx(1.0)
    assert tr.self_time["b"] == pytest.approx(0.5)
    assert tr.self_time["leaf"] == pytest.approx(0.5)
    # a span credited to two names counts fully under each, once toward its parent
    assert tr.total["b.alias"] == tr.total["b"]
    assert tr.self_time["b.alias"] == tr.self_time["b"]
    assert tr.calls == {"outer": 1, "a": 1, "b": 1, "b.alias": 1, "leaf": 1}


def test_self_times_sum_to_root_duration():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    for t, action in [(0, "root"), (1, "x"), (2, "y"), (3, None), (7, None), (8, "z"),
                      (9, None), (12, None)]:
        clock.now = float(t)
        tr.enter(action) if action else tr.exit()
    assert sum(tr.self_time.values()) == pytest.approx(tr.total["root"])


def test_graph_footprint_counts_interior_nodes_once():
    x = Tensor(np.arange(4.0), requires_grad=True)
    y = x * 2.0            # interior: 32 bytes, the constant 2.0 is a leaf
    z = (y * y).sum()      # interior: y*y (32 bytes) and the sum (8 bytes)
    nodes, nbytes = spans.graph_footprint(z)
    assert nodes == 3
    assert nbytes == 32 + 32 + 8


def test_tail_is_the_value_with_ten_beyond_it():
    values = list(range(1, 31))  # 30 ops
    value, pct = run.tail(values)
    assert value == 20 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([5.0, 1.0, 3.0]) == (3.0, 50.0)  # too few ops: the median
    assert run.tail(list(range(1, 21))) == (10.5, 50.0)  # 20 ops: still the median


def test_metric_names_render_keyed_spans():
    assert spans.metric_names("align.pcd") == ("align.pcd_ms", "align.pcd_self_ms")
    assert spans.metric_names("align.dcn:level0") == (
        "align.dcn_ms.level0", "align.dcn_self_ms.level0")


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        spans.per_layer_specs()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    for span in spans.EXPECTED["train-step"] + spans.EXPECTED["enhance-stream"]:
        assert span in spans.SPANS

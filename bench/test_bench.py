"""Tests of the benchmark's own arithmetic: run with ``python3 -m pytest bench``."""
from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_stats, self_times  # noqa: E402


def hand_built_tree() -> list[Span]:
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    return [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),
        Span("c", 5.0, 9.0, parent=0, failed=True),
        Span("a", 6.0, 8.0, parent=3),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(hand_built_tree()) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_self_times_add_up_to_the_root_duration():
    spans = hand_built_tree()
    assert math.fsum(self_times(spans)) == spans[0].duration


def test_layer_stats_totals_per_name():
    stats = layer_stats(hand_built_tree())
    a = stats["a"]
    assert (a.calls, a.busy_s, a.self_s, a.failed) == (2, 5.0, 4.0, 0)
    assert (stats["c"].calls, stats["c"].self_s, stats["c"].failed) == (1, 2.0, 1)
    assert stats["root"].self_s / stats["root"].busy_s == 0.3


def test_wrappers_nest_count_failures_and_restore():
    module = types.SimpleNamespace()
    module.inner = lambda x: x * 2

    def outer(x):
        if x < 0:
            raise ValueError("negative")
        return module.inner(x) + 1

    module.outer = outer
    original_inner = module.inner
    tracer = Tracer()
    tracer.wrap(module, "inner", "m.inner", size=lambda args, kwargs, result: float(result))
    tracer.wrap(module, "outer", "m.outer", when=lambda x: x != 0)
    assert tracer.call("root", module.outer, 3) == 7
    assert module.outer(0) == 1  # skipped by ``when``; the inner call is still seen
    with pytest.raises(ValueError):
        module.outer(-1)
    tracer.unwrap_all()
    assert module.inner is original_inner and module.outer is outer

    spans = tracer.take()
    assert [(s.name, s.parent, s.failed) for s in spans] == [
        ("root", None, False), ("m.outer", 0, False), ("m.inner", 1, False),
        ("m.inner", None, False), ("m.outer", None, True),
    ]
    assert spans[2].size == 6.0
    assert tracer.take() == []


def test_gate_applies_criterion_3_at_the_default_knee_only():
    assert workloads.gate_report("F_SSI_log", 3.5, 0.95, 0.5, 16.0) is None
    assert workloads.gate_report("F_SSI_log", 3.5, 0.89, 0.5, 16.0) is not None
    assert workloads.gate_report("F_SSI_log", 3.5, 0.95, 0.81, 16.0) is not None
    assert workloads.gate_report("F_SSI_log", 0.5, 0.80, 1.2, 16.0) is None
    assert workloads.gate_report("F_log", 3.5, 0.50, 2.0, 16.0) is None
    assert workloads.gate_report("F_log", 3.5, math.nan, 2.0, 16.0) is not None


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.per_layer_schema()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)

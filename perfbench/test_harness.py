"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ------------------------------------------------------------ tail rule

@pytest.mark.parametrize("n, pct", [(21, 4), (40, 50), (85, 76), (100, 80),
                                    (597, 96), (5000, 99)])
def test_tail_percentile_leaves_enough_beyond(n, pct):
    assert stats.TAIL_BEYOND >= 10
    assert stats.tail_percentile(n) == pct
    beyond = n - -(-pct * n // 100)
    assert beyond >= stats.TAIL_BEYOND
    if pct < 99:
        next_rank = -(-(pct + 1) * n // 100)
        assert n - next_rank < stats.TAIL_BEYOND


def test_tail_needs_more_samples_than_beyond():
    assert stats.tail_percentile(20) is None
    assert stats.tail_percentile(11, beyond=10) == 9
    with pytest.raises(ValueError):
        stats.tail([1.0] * 20)
    pct, value = stats.tail([float(v) for v in range(1, 101)])
    assert (pct, value) == (80, 80.0)


# -------------------------------------------------------- span arithmetic

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter_ns", clock)
    tracer = tracing.Tracer()

    def inner():
        clock.now += 10

    def outer():
        clock.now += 5
        traced_inner()
        clock.now += 3
        traced_inner()
        clock.now += 2

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    agg = tracer.aggregate()
    assert agg["outer"]["calls"] == 1
    assert agg["outer"]["busy_s"] == pytest.approx(30e-9)
    assert agg["outer"]["self_s"] == pytest.approx(10e-9)
    assert agg["inner"]["calls"] == 2
    assert agg["inner"]["busy_s"] == pytest.approx(20e-9)
    assert agg["inner"]["self_s"] == pytest.approx(20e-9)


def test_reentrant_span_counts_busy_time_once(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter_ns", clock)
    tracer = tracing.Tracer()

    def recurse(depth):
        clock.now += 4
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(recurse, "recurse")
    traced(2)
    row = tracer.aggregate()["recurse"]
    assert row["calls"] == 3
    assert row["busy_s"] == pytest.approx(12e-9)
    assert row["self_s"] == pytest.approx(12e-9)


def test_notes_and_failures_are_recorded():
    tracer = tracing.Tracer()
    box = {"size": 0}

    def grow(obj):
        obj["size"] += 3

    def boom():
        raise KeyError("x")

    tracer.wrap(grow, "grow", delta=lambda o: o["size"])(box)
    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    agg = tracer.aggregate()
    assert agg["grow"]["note"] == 3
    assert agg["boom"]["failures"] == 1


def test_instrument_restores_every_patch():
    from repro.core import executor, ioutil
    from repro.sim.engine import TaggedCallback
    from repro.sim.hooks import HookBus

    before = (HookBus.__dict__["emit"], TaggedCallback.__dict__["__call__"],
              executor.compile_plan, ioutil.atomic_write_text)
    with tracing.instrument(tracing.Tracer()):
        assert HookBus.__dict__["emit"] is not before[0]
        assert executor.compile_plan is not before[2]
    after = (HookBus.__dict__["emit"], TaggedCallback.__dict__["__call__"],
             executor.compile_plan, ioutil.atomic_write_text)
    assert after == before


# ------------------------------------------------------------ the gate

def _reps_from(pins, workload):
    return [(int(seed), {"outputs": copy.deepcopy(outputs), "errors": []})
            for seed, outputs in pins[workload].items()]


def test_pins_pass_the_gate_untampered():
    pins = run.load_pins()
    for workload in run.WORKLOAD_NAMES:
        assert run.gate(workload, run.DEFAULT_SEED,
                        _reps_from(pins, workload), pins) == []


@pytest.mark.parametrize("workload, key", [
    ("fig6-cell", "total_cost"), ("fig6-cell", "rounds"),
    ("serve-durable", "digest"), ("serve-durable", "dropped")])
def test_tampered_pin_fails_the_gate(workload, key):
    pins = run.load_pins()
    reps = _reps_from(pins, workload)
    tampered = copy.deepcopy(pins)
    entry = tampered[workload][str(run.input_seeds(run.DEFAULT_SEED)[0])]
    entry[key] = entry[key] + (1 if isinstance(entry[key], (int, float))
                               else "0")
    errors = run.gate(workload, run.DEFAULT_SEED, reps, tampered)
    assert errors and "differ from pin" in errors[0]
    # Away from the default seed the pins are not consulted.
    assert run.gate(workload, 1, reps, tampered) == []


def test_disagreeing_repetitions_fail_the_gate():
    reps = [(3, {"outputs": {"digest": "a"}, "errors": []}),
            (3, {"outputs": {"digest": "b"}, "errors": []})]
    errors = run.gate("serve-durable", 1, reps, {})
    assert errors and "disagree" in errors[0]


# --------------------------------------------------------- metric names

def test_metric_names_and_units_are_well_formed():
    specs = [{"name": n, "unit": u} for n, u in run.END_TO_END.items()]
    specs += layers.metric_specs()
    names = [s["name"] for s in specs]
    assert len(names) == len(set(names))
    for spec in specs:
        assert NAME.fullmatch(spec["name"]), spec
        assert UNIT.fullmatch(spec["unit"]), spec


def test_benchmark_json_lists_what_the_driver_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = [{k: m[k] for k in ("name", "unit", "better")}
                 for m in bench["per_layer"]]
    assert per_layer == layers.metric_specs()
    assert [w["name"] for w in bench["workloads"]] == \
        list(run.WORKLOAD_NAMES)


# ---------------------------------------------------- workloads (small)

def test_self_check_finds_identical_outputs_in_one_process():
    assert run.self_check("serve-durable", 0, events=25) == []


def test_tracing_never_changes_outputs():
    plain = workloads.serve_durable(0, events=25, scratch=run.OUT)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = workloads.serve_durable(0, tracer=tracer, events=25,
                                         scratch=run.OUT)
    assert traced.outputs == plain.outputs
    values = layers.per_layer(tracer.aggregate(), traced.counters, 0.0,
                              len(tracer))
    assert values["sim.pipeline.maybe_round.rounds"] == traced.rounds
    assert values["sched.select.calls"] == traced.rounds
    assert values["sim.journal.append.calls"] == 2 * 25
    assert values["core.compile.compile_plan.calls"] >= 25
    assert set(values) == {m["name"] for m in layers.metric_specs()}


def test_rates_divide_total_work_by_total_run_time():
    def record(run_s, rounds):
        return {"setup_s": 1.0, "run_s": run_s, "events": 30,
                "rounds": rounds, "engine_events": 100,
                "peak_rss_mb": 50.0, "round_ms": [1.0] * 11}

    values, _ = run.end_to_end([(0, record(1.0, 10)), (1, record(3.0, 30)),
                                (0, record(2.0, 10))])
    assert values["rounds_per_s"] == pytest.approx(50 / 6)
    assert values["events_per_s"] == pytest.approx(90 / 6)
    assert values["run_s"] == 2.0

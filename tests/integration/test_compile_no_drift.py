"""The executor compiles each plan against the state it was planned on.

``PlanExecutor._execute_compiled`` relies on this: a round plans, admits
and executes its events inside one round callback, so no churn or fault
callback can move the network in between, and compiling at execute time
yields the plan's own step order with no transient overshoot. This test
pins that on an audited ``repro serve`` with staged compiling and
background churn on, for every plan the executor compiles.
"""

from repro.cli import build_serve_parser, build_service
from repro.core import executor
from repro.core.ordering import plan_steps
from repro.experiments.runner import hermetic_ids
from repro.sim.churn import ChurnDriver


def step_keys(steps):
    return [(step.kind, id(step.payload)) for step in steps]


def test_staged_serve_compiles_every_plan_in_plan_order(monkeypatch):
    compiled_plans = []
    churned = []
    compile_plan = executor.compile_plan
    on_finish = ChurnDriver._on_background_finish

    def recording_compile(state, plan, config=None):
        compiled = compile_plan(state, plan, config)
        compiled_plans.append((plan, compiled))
        return compiled

    def recording_finish(driver, flow_id):
        churned.append(flow_id)
        return on_finish(driver, flow_id)

    monkeypatch.setattr(executor, "compile_plan", recording_compile)
    monkeypatch.setattr(ChurnDriver, "_on_background_finish",
                        recording_finish)
    with hermetic_ids():
        args = build_serve_parser().parse_args([
            "--seed", "2", "--events", "150", "--rate", "0.5",
            "--scheduler", "plmtf", "--k", "4", "--utilization", "0.6",
            "--min-flows", "4", "--max-flows", "12",
            "--compile-mode", "staged",
            "--snapshot-every", "0", "--stats-every", "0"])
        __, service = build_service(args)
        report = service.serve()

    assert report.completed == report.ingested == 150
    assert report.audits == report.rounds > 0
    assert churned, "background churn never fired"
    assert len(compiled_plans) == report.completed
    for plan, compiled in compiled_plans:
        assert step_keys(compiled.steps) == step_keys(plan_steps(plan))
        assert compiled.max_transient_overload == 0.0
    assert any(compiled.stage_count > 1 for __, compiled in compiled_plans)

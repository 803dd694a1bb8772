"""The benchmark's workloads, each one repetition in this process.

A workload function builds its inputs from ``seed``, times a set-up phase
and a run phase with the wall clock, and returns a :class:`Rep` holding the
timings, the work counts the end-to-end rates divide by, the outputs the
correctness gate pins, and any invariant violations found afterwards
(outside the timed phases). Every repetition runs inside
:func:`repro.experiments.runner.hermetic_ids`, so flow and event ids — which
feed the ECMP path hash — never depend on what ran earlier in the process.

``tracer`` is None for the timed runs. With a tracer the scheduler's
``select`` is wrapped on its instance (the class-level wrappers are
installed by :func:`tracing.instrument` around the call).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Iterator

from repro.core.exceptions import ReproError
from repro.experiments.common import Scenario
from repro.experiments.runner import hermetic_ids
from repro.sched import build_scheduler
from repro.sim.audit import AuditError, LifecycleAuditor
from repro.sim.lifecycle import EventState
from repro.traces.events import heterogeneous_config

from tracing import Tracer, wrap_instance

ALPHA = 4
#: Offset from the benchmark seed to the fig6 cell's scenario seed: seed 0
#: is Fig. 6's 30-event cell (``seed + count`` in ``experiments/fig6``).
FIG6_SEED_OFFSET = 30
FIG6_EVENTS = 30
SERVE_EVENTS = 1000


@dataclass
class Rep:
    """One timed repetition of a workload."""

    setup_s: float
    run_s: float
    #: Events completed in the run phase.
    events: int
    #: Events the run phase tried to complete, and those it dropped or
    #: left incomplete (the dropped share is ``failed / attempted``).
    attempted: int
    failed: int
    rounds: int
    engine_events: int
    round_ms: list[float]
    outputs: dict[str, Any]
    #: Layer counters the program keeps itself (probe cache, stages).
    counters: dict[str, int]
    #: ``(label, check)`` invariant checks, run by :meth:`verify` after
    #: the repetition (and outside any tracing).
    checks: list[tuple[str, Callable[[], Any]]]
    errors: list[str] = field(default_factory=list)

    def verify(self) -> "Rep":
        """Run the checks, recording each failure in ``errors``."""
        for label, fn in self.checks:
            try:
                fn()
            except (AssertionError, AuditError, ReproError, ValueError) as exc:
                self.errors.append(f"{label}: {exc}")
        return self

    def to_dict(self) -> dict[str, Any]:
        record = dict(self.__dict__)
        del record["checks"]
        return record


class RoundTimer:
    """Times each ``maybe_round`` call that settled a round.

    Shadows the pipeline's ``maybe_round`` on the instance, which every
    caller (engine callbacks, churn, the service) resolves through
    ``self.maybe_round``. Samples are kept only while ``active``.
    """

    def __init__(self, pipeline: Any) -> None:
        self.samples: list[float] = []
        self.active = True
        inner = pipeline.maybe_round

        def timed() -> None:
            before = pipeline.round_count
            start = perf_counter_ns()
            inner()
            if self.active and pipeline.round_count > before:
                self.samples.append((perf_counter_ns() - start) / 1e6)

        pipeline.maybe_round = timed


def sha256_of(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def probe_counters(sim: Any) -> dict[str, int]:
    """Probe-cache and compiled-stage totals over the rounds so far."""
    rounds = sim.pipeline.rounds
    return {
        "probe_cache_hits": sum(r.cache_hits for r in rounds),
        "probe_cache_misses": sum(r.cache_misses for r in rounds),
        "probe_cache_invalidations": sum(r.cache_invalidations
                                         for r in rounds),
        "total_stages": sim.metrics_collector.total_stages,
    }


def audit_now(sim: Any) -> None:
    """Cross-check the simulator's drained ledgers once, after the timed
    phase."""
    auditor = LifecycleAuditor()
    auditor.attach(sim)
    auditor.audit()
    auditor.assert_drained()


def all_terminal(sim: Any) -> None:
    counts = sim.lifecycle.counts()
    live = len(sim.lifecycle) - counts[EventState.COMPLETED] \
        - counts[EventState.DROPPED]
    if live:
        raise AssertionError(f"{live} events not terminal")


def audited_every_round(report: Any) -> None:
    if report.audits != report.rounds:
        raise AssertionError(f"{report.audits} audits over "
                             f"{report.rounds} rounds")


def fig6_cell(seed: int, tracer: Tracer | None = None,
              events: int = FIG6_EVENTS, **_: Any) -> Rep:
    """P-LMTF over one Fig. 6 cell: k=8 Fat-Tree at 70% load, churn on."""
    with hermetic_ids():
        start = perf_counter()
        scenario = Scenario(utilization=0.7, seed=FIG6_SEED_OFFSET + seed,
                            events=events, churn=True,
                            event_config=heterogeneous_config())
        queue = scenario.generate_events()
        scheduler = build_scheduler(
            {"kind": "plmtf", "alpha": ALPHA, "seed": seed + 9})
        if tracer is not None:
            wrap_instance(tracer, scheduler, "select", "sched.select")
        sim = scenario.simulator(scheduler)
        sim.submit(queue)
        timer = RoundTimer(sim.pipeline)
        ready = perf_counter()
        metrics = sim.run()
        done = perf_counter()
    per_event = list(zip(metrics.per_event_cost, metrics.per_event_ect,
                         metrics.per_event_delay))
    return Rep(
        setup_s=ready - start, run_s=done - ready,
        events=metrics.event_count, attempted=len(queue),
        failed=len(queue) - metrics.event_count,
        rounds=metrics.rounds, engine_events=sim.engine.processed,
        round_ms=timer.samples,
        outputs={"total_cost": metrics.total_cost,
                 "rounds": metrics.rounds,
                 "per_event_sha256": sha256_of(per_event)},
        counters=probe_counters(sim),
        checks=[("network invariants", sim.network.check_invariants),
                ("every event terminal", lambda: all_terminal(sim)),
                ("ledger audit", lambda: audit_now(sim))])


@contextmanager
def capture_simulator() -> Iterator[list[Any]]:
    """Collect the simulators ``Scenario.simulator`` builds in a block
    (``build_service`` keeps its simulator private)."""
    built: list[Any] = []
    original = Scenario.simulator

    def capture(self: Scenario, *args: Any, **kwargs: Any) -> Any:
        sim = original(self, *args, **kwargs)
        built.append(sim)
        return sim

    Scenario.simulator = capture  # type: ignore[method-assign]
    try:
        yield built
    finally:
        Scenario.simulator = original  # type: ignore[method-assign]


def serve_durable(seed: int, tracer: Tracer | None = None,
                  events: int = SERVE_EVENTS, scratch: Path | None = None,
                  **_: Any) -> Rep:
    """``repro serve`` with the WAL, checkpoints and snapshots on."""
    from repro.cli import build_serve_parser, build_service

    root = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    try:
        with hermetic_ids():
            start = perf_counter()
            args = build_serve_parser().parse_args([
                "--seed", str(seed), "--events", str(events),
                "--rate", "0.5", "--scheduler", "plmtf",
                "--alpha", str(ALPHA), "--k", "4", "--utilization", "0.5",
                "--compile-mode", "staged",
                "--state-dir", str(root / "state"),
                "--snapshot-dir", str(root / "snapshots"),
                "--snapshot-every", "60", "--stats-every", "0"])
            with capture_simulator() as built:
                scheduler, service = build_service(args)
            (sim,) = built
            if tracer is not None:
                wrap_instance(tracer, scheduler, "select", "sched.select")
            timer = RoundTimer(sim.pipeline)
            ready = perf_counter()
            report = service.serve()
            done = perf_counter()
    finally:
        shutil.rmtree(root)
    return Rep(
        setup_s=ready - start, run_s=done - ready,
        events=report.completed, attempted=report.ingested,
        failed=report.ingested - report.completed,
        rounds=report.rounds, engine_events=sim.engine.processed,
        round_ms=timer.samples,
        outputs={"digest": report.digest, "completed": report.completed,
                 "dropped": report.dropped, "rounds": report.rounds},
        counters=probe_counters(sim),
        checks=[("network invariants", sim.network.check_invariants),
                ("every event terminal", lambda: all_terminal(sim)),
                ("auditor ran every round",
                 lambda: audited_every_round(report))])


WORKLOADS: dict[str, Callable[..., Rep]] = {
    "fig6-cell": fig6_cell,
    "serve-durable": serve_durable,
}

"""Replays an :class:`EventPlan` onto network state.

Planning runs on throwaway views; execution is the moment the chosen event's
migrations and placements hit real state. The executor performs the same
make-before-break order the plan was built with — migrations first (freeing
the congested links), then the event's flows — and converts the plan into
simulated time via the :class:`~repro.sim.timing.TimingModel`.

:func:`apply_plan` is the pure state-transition part, reused by P-LMTF to
mirror an already-probed plan onto its cumulative batch view so that batch
members are planned against exactly the state their predecessors will leave
behind.

Execution is no longer assumed infallible. With an unreliable
:class:`~repro.sim.controlplane.ControlPlane`, each rule install / migration
drain can fail; the executor then retries the whole plan with exponential
backoff under a :class:`RetryPolicy`, and on exhaustion (or deadline) rolls
the partial application back and raises
:class:`~repro.core.exceptions.ControlPlaneError` with the simulated time
the failed attempts consumed — the simulator requeues the event instead of
crashing the run. With the default reliable control plane the historical
single-shot path runs unchanged, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.compile import (
    CompiledPlan,
    PlanCompilerConfig,
    compile_plan,
)
from repro.core.exceptions import (
    ControlPlaneError,
    PlacementError,
    PlanningError,
    TopologyError,
)
from repro.core.ordering import Step, StepKind
from repro.core.plan import EventPlan, ExecutionRecord, FlowPlan
from repro.network.state import NetworkState
from repro.sim.crashpoint import crash_point
from repro.sim.timing import TimingModel

if TYPE_CHECKING:
    from repro.sim.controlplane import ControlPlane
    from repro.sim.hooks import HookBus

#: One applied operation and what undoes it: ``("reroute", (flow_id,
#: old_path))`` or ``("place", (flow_id,))``.
_AppliedOp = tuple[str, tuple[Any, ...]]


def apply_plan(state: NetworkState, plan: EventPlan) -> list[str]:
    """Apply a feasible plan's migrations and placements to ``state``.

    Returns the ids of the rerouted (migrated) flows. On *any* mid-way
    placement failure — insufficient bandwidth, a full rule table, a
    missing flow or invalid path — the partial application is rolled back
    before the error propagates, leaving ``state`` untouched.

    Raises:
        PlanningError: the plan has blocked flows.
        PlacementError: the state diverged from what the plan was computed
            against and the plan no longer applies (the usual case is
            ``InsufficientBandwidthError``; rule-table-limited networks
            raise its ``RuleSpaceError`` subtype).
    """
    _check_feasible(plan)
    applied: list[_AppliedOp] = []
    rerouted: list[str] = []
    try:
        for flow_plan in plan.flow_plans:
            for migration in flow_plan.migrations:
                old = state.placement(migration.flow.flow_id)
                state.reroute(migration.flow.flow_id, migration.new_path)
                applied.append(("reroute", (migration.flow.flow_id,
                                            old.path)))
                rerouted.append(migration.flow.flow_id)
            state.place(flow_plan.flow, flow_plan.path)
            applied.append(("place", (flow_plan.flow.flow_id,)))
    except (PlacementError, TopologyError):
        _rollback(state, applied)
        raise
    return rerouted


def _check_feasible(plan: EventPlan) -> None:
    if not plan.feasible:
        raise PlanningError(
            f"refusing to apply infeasible plan for event "
            f"{plan.event.event_id} ({len(plan.blocked)} blocked flows)")


def _rollback(state: NetworkState, applied: list[_AppliedOp]) -> None:
    """Undo partially applied operations, newest first."""
    for op, args in reversed(applied):
        if op == "place":
            state.remove(args[0])
        else:
            flow_id, old_path = args
            state.reroute(flow_id, old_path)


def _apply_step(state: NetworkState, step: Step,
                applied: list[_AppliedOp], rerouted: list[str]) -> None:
    """Apply one compiled step, recording its undo operation."""
    if step.kind is StepKind.MIGRATE:
        old = state.placement(step.flow_id)
        state.reroute(step.flow_id, step.path)
        applied.append(("reroute", (step.flow_id, old.path)))
        rerouted.append(step.flow_id)
    else:
        flow_plan = step.payload
        assert isinstance(flow_plan, FlowPlan)
        state.place(flow_plan.flow, step.path)
        applied.append(("place", (step.flow_id,)))


def apply_stages(state: NetworkState, compiled: CompiledPlan) -> list[str]:
    """Apply a compiled plan stage by stage; the staged analog of
    :func:`apply_plan`.

    Returns the rerouted flow ids. Rollback is *whole-plan*: a failure in
    any stage undoes every stage already applied (newest op first), so the
    caller sees the same all-or-nothing contract as :func:`apply_plan` —
    settled intermediate states never leak past a raised error. The
    ``"stage"`` crash point fires between stages for the chaos harness.
    """
    _check_feasible(compiled.plan)
    applied: list[_AppliedOp] = []
    rerouted: list[str] = []
    try:
        for index, stage in enumerate(compiled.stages):
            if index:
                crash_point("stage")
            for step in stage.steps:
                _apply_step(state, step, applied, rerouted)
    except (PlacementError, TopologyError):
        _rollback(state, applied)
        raise
    return rerouted


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for execution on an unreliable control plane.

    Attributes:
        max_retries: additional attempts after the first failure.
        backoff_s: wait before the first retry; doubles each retry
            (``backoff_s * backoff_factor ** (attempt - 1)``).
        backoff_factor: exponential backoff multiplier.
        deadline_s: per-plan budget of simulated seconds (attempt time +
            backoff). Execution aborts once the next wait would exceed it,
            even with retries remaining.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    deadline_s: float = math.inf

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


class PlanExecutor:
    """Applies event plans to a network state and accounts their time.

    Args:
        timing: simulated-time model for plan/migration/install costs.
        control_plane: per-operation failure/latency model; ``None`` (or
            any :attr:`~repro.sim.controlplane.ControlPlane.reliable`
            model) takes the historical infallible path.
        retry: retry/backoff/deadline policy used when ``control_plane``
            is unreliable.
        hooks: optional :class:`~repro.sim.hooks.HookBus`; when given, the
            executor announces burned retries as
            :class:`~repro.sim.hooks.ExecutionRetried` instead of the
            caller scraping ``attempts`` off records and exceptions. The
            hook fires once per execute with the *failed* attempt count —
            both on eventual success and right before a
            :class:`~repro.core.exceptions.ControlPlaneError` — matching
            the historical accounting exactly (a propagating
            ``PlacementError`` reports nothing, as before).
        compiler: plan-compilation config. ``None`` or ``atomic`` mode
            takes the historical one-shot path bit for bit (no compile
            call at all); ``staged``/``augmented`` compile each plan at
            execute time and apply it stage by stage, charging install
            latency per stage.
    """

    def __init__(self, timing: TimingModel | None = None,
                 control_plane: "ControlPlane | None" = None,
                 retry: RetryPolicy | None = None,
                 hooks: "HookBus | None" = None,
                 compiler: PlanCompilerConfig | None = None) -> None:
        self._timing = timing or TimingModel()
        self._control_plane = control_plane
        self._retry = retry or RetryPolicy()
        self._hooks = hooks
        if compiler is not None and compiler.mode == "atomic":
            compiler = None  # atomic IS the default path
        self._compiler = compiler

    @property
    def timing(self) -> TimingModel:
        return self._timing

    @property
    def retry(self) -> RetryPolicy:
        return self._retry

    @property
    def compiler(self) -> PlanCompilerConfig | None:
        return self._compiler

    def execute(self, state: NetworkState, plan: EventPlan,
                start_time: float) -> ExecutionRecord:
        """Apply ``plan`` to ``state`` starting at ``start_time``.

        Returns an :class:`ExecutionRecord` whose ``finish_setup_time`` is
        when all the event's flows are installed and running; their
        transmissions then complete on their own service times. On an
        unreliable control plane the record also carries the attempts made
        and the simulated time lost to retries.

        Raises:
            PlanningError: the plan has blocked flows (callers must only
                execute feasible plans).
            PlacementError: the state changed since planning and the plan
                no longer fits — the caller should replan. Not retried
                (the same state rejects the same plan); state is rolled
                back before this propagates.
            ControlPlaneError: every attempt failed on the control plane
                or the retry deadline elapsed; state is rolled back.
        """
        cp = self._control_plane
        if self._compiler is not None:
            return self._execute_compiled(state, plan, start_time, cp)
        migration_time = self._timing.migration_time(plan.migrations)
        install_time = self._timing.install_time(len(plan.flow_plans))
        if cp is None or cp.reliable:
            rerouted = apply_plan(state, plan)
            return ExecutionRecord(
                plan=plan,
                start_time=start_time,
                migration_time=migration_time,
                install_time=install_time,
                finish_setup_time=start_time + migration_time + install_time,
                rerouted_flow_ids=tuple(rerouted),
            )
        _check_feasible(plan)
        base_time = migration_time + install_time
        elapsed = 0.0
        attempts = 0
        while True:
            attempts += 1
            jitter = cp.attempt_jitter_s()
            rerouted = self._attempt(state, plan, cp)
            # A failed attempt still occupied the control plane for the
            # full issue-and-wait window; charge it like a successful one.
            elapsed += base_time + jitter
            if rerouted is not None:
                self._note_retries(plan, attempts)
                return ExecutionRecord(
                    plan=plan,
                    start_time=start_time,
                    migration_time=migration_time,
                    install_time=install_time,
                    finish_setup_time=start_time + elapsed,
                    rerouted_flow_ids=tuple(rerouted),
                    attempts=attempts,
                    retry_time=elapsed - base_time,
                )
            retries_left = self._retry.max_retries - (attempts - 1)
            backoff = (self._retry.backoff_s
                       * self._retry.backoff_factor ** (attempts - 1))
            if retries_left <= 0:
                self._note_retries(plan, attempts)
                raise ControlPlaneError(
                    f"event {plan.event.event_id}: all {attempts} "
                    f"execution attempts failed on the control plane",
                    attempts=attempts, elapsed=elapsed)
            if elapsed + backoff > self._retry.deadline_s:
                self._note_retries(plan, attempts)
                raise ControlPlaneError(
                    f"event {plan.event.event_id}: execution deadline "
                    f"{self._retry.deadline_s:.3f}s exceeded after "
                    f"{attempts} attempt(s)",
                    attempts=attempts, elapsed=elapsed)
            elapsed += backoff

    def _execute_compiled(self, state: NetworkState, plan: EventPlan,
                          start_time: float,
                          cp: "ControlPlane | None") -> ExecutionRecord:
        """Staged/augmented execution: compile, then apply stage by stage.

        The plan is compiled against the live state at execute time — the
        same state it was planned against, since a round plans, admits and
        executes inside one round callback and no churn or fault callback
        runs in between (``tests/integration/test_compile_no_drift.py``
        pins this) — so the compiled step order is the plan order and the
        settled final state is byte-identical to the atomic path's. Install
        latency is charged per stage, so longer schedules cost simulated
        time.
        """
        _check_feasible(plan)
        assert self._compiler is not None
        compiled = compile_plan(state, plan, self._compiler)
        migration_time = self._timing.migration_time(plan.migrations)
        install_time = self._timing.install_time(
            len(plan.flow_plans), stages=compiled.stage_count)
        if cp is None or cp.reliable:
            rerouted = apply_stages(state, compiled)
            return ExecutionRecord(
                plan=plan,
                start_time=start_time,
                migration_time=migration_time,
                install_time=install_time,
                finish_setup_time=start_time + migration_time + install_time,
                rerouted_flow_ids=tuple(rerouted),
                stage_count=compiled.stage_count,
                max_transient_overload=compiled.max_transient_overload,
                epsilon=compiled.epsilon,
            )
        base_time = migration_time + install_time
        elapsed = 0.0
        attempts = 0
        while True:
            attempts += 1
            jitter = cp.attempt_jitter_s()
            rerouted_attempt = self._attempt_compiled(state, compiled, cp)
            elapsed += base_time + jitter
            if rerouted_attempt is not None:
                self._note_retries(plan, attempts)
                return ExecutionRecord(
                    plan=plan,
                    start_time=start_time,
                    migration_time=migration_time,
                    install_time=install_time,
                    finish_setup_time=start_time + elapsed,
                    rerouted_flow_ids=tuple(rerouted_attempt),
                    attempts=attempts,
                    retry_time=elapsed - base_time,
                    stage_count=compiled.stage_count,
                    max_transient_overload=compiled.max_transient_overload,
                    epsilon=compiled.epsilon,
                )
            retries_left = self._retry.max_retries - (attempts - 1)
            backoff = (self._retry.backoff_s
                       * self._retry.backoff_factor ** (attempts - 1))
            if retries_left <= 0:
                self._note_retries(plan, attempts)
                raise ControlPlaneError(
                    f"event {plan.event.event_id}: all {attempts} "
                    f"execution attempts failed on the control plane",
                    attempts=attempts, elapsed=elapsed)
            if elapsed + backoff > self._retry.deadline_s:
                self._note_retries(plan, attempts)
                raise ControlPlaneError(
                    f"event {plan.event.event_id}: execution deadline "
                    f"{self._retry.deadline_s:.3f}s exceeded after "
                    f"{attempts} attempt(s)",
                    attempts=attempts, elapsed=elapsed)
            elapsed += backoff

    def _attempt_compiled(self, state: NetworkState, compiled: CompiledPlan,
                          cp: "ControlPlane") -> list[str] | None:
        """One staged execution attempt under an unreliable ``cp``.

        Consumes the same control-plane RNG sequence as :meth:`_attempt`
        whenever the compiled step order equals the plan order (the
        no-drift case): one ``migration_ok`` per migrate step and one
        ``install_ok`` per place step, in plan order.
        """
        snapshot_fn = getattr(state, "version_snapshot", None)
        restore_fn = getattr(state, "restore_versions", None)
        versions = snapshot_fn() if snapshot_fn is not None else None
        applied: list[_AppliedOp] = []
        rerouted: list[str] = []

        def undo() -> None:
            _rollback(state, applied)
            if versions is not None and restore_fn is not None:
                restore_fn(versions)

        try:
            for index, stage in enumerate(compiled.stages):
                if index:
                    crash_point("stage")
                for step in stage.steps:
                    if step.kind is StepKind.MIGRATE:
                        if not cp.migration_ok():
                            undo()
                            return None
                    elif not cp.install_ok():
                        undo()
                        return None
                    _apply_step(state, step, applied, rerouted)
        except (PlacementError, TopologyError):
            undo()
            raise
        return rerouted

    def _note_retries(self, plan: EventPlan, attempts: int) -> None:
        """Announce the failed attempts of one execute on the hook bus."""
        if attempts > 1 and self._hooks is not None:
            from repro.sim.hooks import ExecutionRetried
            self._hooks.emit(ExecutionRetried(
                event_id=plan.event.event_id, retries=attempts - 1))

    def _attempt(self, state: NetworkState, plan: EventPlan,
                 cp: "ControlPlane") -> list[str] | None:
        """One execution attempt under ``cp``.

        Returns the rerouted flow ids on success, or ``None`` when the
        control plane failed an operation — in both the failure and the
        placement-divergence case every operation already applied is rolled
        back, so the state is bit-identical to before the attempt. That
        includes the version counters (the roll-forward/roll-back pair
        would otherwise bump them with no net change), so memoized probe
        plans stay provably fresh across a failed attempt.
        """
        # Version counters are a Network extension, not part of the
        # NetworkState contract; probe for them instead of isinstance so
        # any version-tracking state benefits.
        snapshot_fn = getattr(state, "version_snapshot", None)
        restore_fn = getattr(state, "restore_versions", None)
        versions = snapshot_fn() if snapshot_fn is not None else None
        applied: list[_AppliedOp] = []
        rerouted: list[str] = []

        def undo() -> None:
            _rollback(state, applied)
            if versions is not None and restore_fn is not None:
                restore_fn(versions)

        try:
            for flow_plan in plan.flow_plans:
                for migration in flow_plan.migrations:
                    if not cp.migration_ok():
                        undo()
                        return None
                    old = state.placement(migration.flow.flow_id)
                    state.reroute(migration.flow.flow_id,
                                  migration.new_path)
                    applied.append(("reroute", (migration.flow.flow_id,
                                                old.path)))
                    rerouted.append(migration.flow.flow_id)
                if not cp.install_ok():
                    undo()
                    return None
                state.place(flow_plan.flow, flow_plan.path)
                applied.append(("place", (flow_plan.flow.flow_id,)))
        except (PlacementError, TopologyError):
            undo()
            raise
        return rerouted

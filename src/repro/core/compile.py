"""Compile an :class:`EventPlan` into a consistency-aware staged schedule.

The paper treats an event's update as one atomic reroute+install, but the
related consistency literature ("Short Schedules for Fast Flow Rerouting",
"The Augmentation-Speed Tradeoff for Consistent Network Updates") makes the
*transition* itself the object of study: order the primitive steps so no
intermediate state oversubscribes a link, and optionally trade a bounded ε
of transient over-subscription for a shorter schedule. This module is that
compilation stage, sitting between planning and execution:

* ``atomic`` (the default) — the whole plan is one stage, exactly today's
  one-shot behavior. The stage's recorded ``transient_overload`` is the
  worst one-shot flip overshoot from
  :func:`repro.core.consistency.transient_overloads` (0.0 when the plan is
  one-shot safe), so the mode doubles as the one-shot-safety probe.
* ``staged`` — strict congestion-freedom: steps are ordered by
  :func:`repro.core.ordering.find_safe_order` and greedily batched into the
  longest prefixes whose *transient* load (a migrated flow occupies both
  its old and new path until the stage commits; a placed flow sends
  immediately) stays within every link's capacity.
* ``augmented`` — like ``staged`` but any link may transiently carry up to
  ``(1 + ε) · capacity`` inside a stage, which merges stages and shortens
  the schedule; the settled state after every stage is back to
  ``≤ capacity`` because settled loads are exactly the planner-verified
  sequential states.

A plan whose sequential order is safe against the compiled-against state
(our planner guarantees this at plan time) always compiles into stages that
respect the ``(1 + ε)`` bound: a single step's transient load on the links
it adds equals its settled load, which the planner already bounded by
capacity. Under state *drift* (churn between planning and execution) a step
may not fit even alone; it is then emitted as its own stage with the
overshoot recorded in ``transient_overload`` rather than dropped — the
executor's live network still enforces hard capacity and its failure path
(rollback + requeue) handles the drift, while the compiler stays total.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

from repro.core.consistency import transient_overloads
from repro.core.ordering import (
    LinkReader,
    Step,
    StepKind,
    find_safe_order,
    plan_steps,
)
from repro.core.plan import EventPlan, Migration
from repro.network.link import EPS
from repro.network.state import NetworkState

#: Maps a path to its links' keys (see :class:`LinkReader`).
_Keys = Callable[[Sequence[str]], Sequence[Hashable]]

#: Recognized compilation modes.
COMPILE_MODES = ("atomic", "staged", "augmented")


@dataclass(frozen=True)
class PlanCompilerConfig:
    """How plans are compiled into staged schedules.

    Attributes:
        mode: one of :data:`COMPILE_MODES` — ``atomic`` (one-shot, the
            byte-identical default), ``staged`` (strict congestion-free
            stages), ``augmented`` (stages may transiently oversubscribe
            any link by ``≤ epsilon · capacity``).
        epsilon: the augmentation knob; must be 0 unless ``mode`` is
            ``augmented``.
    """

    mode: str = "atomic"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in COMPILE_MODES:
            raise ValueError(f"unknown compile mode {self.mode!r}; "
                             f"pick one of {COMPILE_MODES}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.epsilon > 0 and self.mode != "augmented":
            raise ValueError(
                f"epsilon > 0 requires mode='augmented', got {self.mode!r}")


@dataclass(frozen=True)
class Stage:
    """One batch of steps applied together, then settled.

    ``transient_overload`` is the worst-link fractional overshoot of base
    capacity while the stage is in flight: 0.0 for a congestion-free stage,
    ``≤ ε`` for an augmented stage, larger only when the compiled-against
    state had drifted so far that a single step no longer fits alone.
    """

    steps: tuple[Step, ...]
    transient_overload: float = 0.0


@dataclass(frozen=True)
class CompiledPlan:
    """An ordered sequence of stages realizing ``plan``."""

    plan: EventPlan
    mode: str
    epsilon: float
    stages: tuple[Stage, ...]

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def max_transient_overload(self) -> float:
        """Worst fractional capacity overshoot across all stages."""
        return max((s.transient_overload for s in self.stages), default=0.0)

    @property
    def steps(self) -> tuple[Step, ...]:
        """All steps in execution order (stage by stage)."""
        return tuple(s for stage in self.stages for s in stage.steps)


def compile_plan(state: NetworkState, plan: EventPlan,
                 config: PlanCompilerConfig | None = None) -> CompiledPlan:
    """Compile ``plan`` against ``state`` into a :class:`CompiledPlan`.

    Read-only on ``state``: safe ordering probes an index-keyed load
    overlay and batching reads ``state``'s link columns beside a local
    load shift, both with a view's exact float arithmetic. The
    compiled steps are a permutation of :func:`plan_steps`; when the plan's
    own sequential order is safe against ``state`` — always true when
    compiling against the state the plan was computed on — the permutation
    is the identity, so stage-by-stage execution reaches a final state
    byte-identical to the atomic :func:`repro.core.executor.apply_plan`.
    A malformed step raises as in :func:`find_safe_order`.
    """
    config = config or PlanCompilerConfig()
    steps = plan_steps(plan)
    if config.mode == "atomic":
        overloads = transient_overloads(state, plan)
        overload = max((o.excess / o.capacity
                        for o in overloads if o.capacity > 0), default=0.0)
        return CompiledPlan(
            plan=plan, mode=config.mode, epsilon=0.0,
            stages=(Stage(steps=tuple(steps),
                          transient_overload=overload),))
    ordering = find_safe_order(state, steps)
    # A safe order exists in plan order against the planned-on state; under
    # drift, stuck steps (swap deadlocks) are appended so execution still
    # attempts every step — the live network enforces capacity for real.
    sequence = ordering.order + ordering.stuck
    stages = _batch_stages(LinkReader(state), sequence, config.epsilon)
    if not stages:
        stages = (Stage(steps=()),)
    return CompiledPlan(plan=plan, mode=config.mode,
                        epsilon=config.epsilon, stages=stages)


# ----------------------------------------------------------------- internals


def _transient_additions(step: Step, keys: _Keys) -> dict[Hashable, float]:
    """Per-link load a step adds *while its stage is in flight*.

    A migrated flow occupies both paths until the stage commits, so only
    links new to its path gain load; a placed flow loads its whole path
    (simple: safe ordering validated it), its demand once per link.
    """
    demand = step.demand
    if step.kind is not StepKind.MIGRATE:
        return dict.fromkeys(keys(step.path), demand)
    migration = step.payload
    assert isinstance(migration, Migration)
    old = keys(migration.old_path)
    added: dict[Hashable, float] = {}
    for key in keys(step.path):
        if key not in old:
            added[key] = added.get(key, 0.0) + demand
    return added


def _settle(step: Step, added: dict[Hashable, float],
            delta: defaultdict[Hashable, float], keys: _Keys) -> None:
    """Fold a committed step's steady-state load shift into ``delta``;
    a placed flow's is its in-flight load ``added``."""
    if step.kind is not StepKind.MIGRATE:
        for key, add in added.items():
            delta[key] += add
        return
    demand = step.demand
    migration = step.payload
    assert isinstance(migration, Migration)
    old = frozenset(keys(migration.old_path))
    new = frozenset(keys(migration.new_path))
    for key in new - old:
        delta[key] += demand
    for key in old - new:
        delta[key] -= demand


def _batch_stages(reader: LinkReader, sequence: list[Step],
                  epsilon: float) -> tuple[Stage, ...]:
    """Greedy longest-prefix batching of ``sequence`` into stages.

    ``delta`` shadows the settled load shift of the stages already closed
    (a plain dict keyed like ``reader``, 0.0 where unset — not a
    capacity-enforcing view: augmented stages may legally exceed capacity
    mid-schedule). A step joins the current batch iff every link it loads
    stays within ``(1 + ε) · capacity``: its batch load is at most the
    headroom ``(1 + ε)·cap + EPS - used - delta``. A step that does not
    fit even in an empty batch becomes its own stage with the overshoot
    ``(used + delta + add - cap) / cap`` recorded. Both are evaluated in
    exactly that order: a stage boundary may sit on the last bit.
    """
    capacity, used, keys = reader.capacity, reader.used, reader.keys
    scale = 1.0 + epsilon
    delta: defaultdict[Hashable, float] = defaultdict(float)
    stages: list[Stage] = []
    batch: list[Step] = []
    batch_loads: list[dict[Hashable, float]] = []  # each step's additions
    batch_added: defaultdict[Hashable, float] = defaultdict(float)

    def fits(additions: dict[Hashable, float]) -> bool:
        """Every addition on top of the batch stays within headroom."""
        for key, add in additions.items():
            if not batch_added.get(key, 0.0) + add <= (
                    scale * capacity[key] + EPS - used[key] - delta[key]):
                return False
        return True

    def close(last: bool = False) -> None:
        if not batch:
            return
        overload = 0.0
        for key, add in batch_added.items():
            cap = capacity[key]
            if cap <= 0:
                continue
            excess = (used[key] + delta[key] + add - cap) / cap
            if excess > overload:
                overload = excess
        stages.append(Stage(steps=tuple(batch),
                            transient_overload=max(0.0, overload)))
        if last:
            return  # nothing reads the settled shift after the last stage
        for step, added in zip(batch, batch_loads):
            _settle(step, added, delta, keys)
        batch.clear()
        batch_loads.clear()
        batch_added.clear()

    for step in sequence:
        additions = _transient_additions(step, keys)
        ok = fits(additions)
        if not ok and batch:
            close()
            ok = fits(additions)
        for key, add in additions.items():
            batch_added[key] += add
        batch.append(step)
        batch_loads.append(additions)
        if not ok:
            close()  # drifted singleton: emit with its overshoot recorded
    close(last=True)
    return tuple(stages)

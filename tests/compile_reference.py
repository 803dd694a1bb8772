"""The pre-index plan compiler, kept verbatim as a test reference.

These are :func:`repro.core.ordering.find_safe_order` and the stage
batcher of :mod:`repro.core.compile` exactly as they stood before both
loops moved onto the link-index kernel: safe ordering probes a throwaway
:class:`~repro.network.view.NetworkView`, and batching keys its dicts by
the ``(u, v)`` link tuple and reads ``state.capacity``/``state.used``.
The differential suite (``tests/property/test_compile_differential.py``)
and the ``test_compile_plan_staged`` microbenchmark compare the kernel
compiler against them; :func:`compile_plan` mirrors the library's
``compile_plan`` with these two loops swapped in.
"""

from __future__ import annotations

from repro.core.compile import CompiledPlan, PlanCompilerConfig, Stage
from repro.core.consistency import transient_overloads
from repro.core.exceptions import InsufficientBandwidthError
from repro.core.ordering import (
    OrderingResult,
    Step,
    StepKind,
    plan_steps,
)
from repro.core.plan import EventPlan, Migration
from repro.network.link import EPS, LinkId, path_links
from repro.network.state import NetworkState
from repro.network.view import NetworkView


def compile_plan(state: NetworkState, plan: EventPlan,
                 config: PlanCompilerConfig | None = None) -> CompiledPlan:
    """``repro.core.compile.compile_plan`` on the reference loops."""
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
    sequence = ordering.order + ordering.stuck
    stages = _batch_stages(state, sequence, config.epsilon)
    if not stages:
        stages = (Stage(steps=()),)
    return CompiledPlan(plan=plan, mode=config.mode,
                        epsilon=config.epsilon, stages=stages)


# ------------------------------------------------- verbatim: core/ordering


def _try_step(view: NetworkView, step: Step) -> bool:
    """Apply one step to the view if it fits; False when it does not."""
    try:
        if step.kind is StepKind.MIGRATE:
            if not view.has_flow(step.flow_id):
                return False  # its flow left the network; nothing to move
            view.reroute(step.flow_id, step.path)
        else:
            flow = step.payload.flow
            view.place(flow, step.path)
    except InsufficientBandwidthError:
        return False
    return True


def find_safe_order(state: NetworkState, steps: list[Step],
                    apply: bool = False) -> OrderingResult:
    """Greedily order ``steps`` so each fits the state left by its
    predecessors.

    Args:
        state: the state to order against (probed on a throwaway view).
        steps: primitive steps in any order (e.g. from :func:`plan_steps`,
            possibly from several plans).
        apply: when True and a complete order is found, commit it to
            ``state``; partial orders are never committed.

    Returns:
        An :class:`OrderingResult`; ``result.order`` is a safe prefix (all
        of the steps when ``result.complete``), ``result.stuck`` are steps
        no order can schedule without splitting flows.

    The greedy loop is deterministic (steps are scanned in their given
    order each round). An exchange argument suggests it is also complete
    for this step model — applying a feasible step early only frees its old
    links earlier, and any step that also needed its new links must fit
    alongside it in every safe order anyway — so a stall indicates a swap
    deadlock (mutually dependent migrations), which unsplittable flows
    cannot break. The test suite exercises both outcomes.
    """
    view = NetworkView(state)
    pending = list(steps)
    order: list[Step] = []
    progressed = True
    while pending and progressed:
        progressed = False
        remaining: list[Step] = []
        for step in pending:
            if _try_step(view, step):
                order.append(step)
                progressed = True
            else:
                remaining.append(step)
        pending = remaining
    result = OrderingResult(order=order, stuck=pending)
    if apply and result.complete:
        view.commit()
    return result


# -------------------------------------------------- verbatim: core/compile


def _transient_additions(step: Step) -> dict[LinkId, float]:
    """Per-link load a step adds *while its stage is in flight*.

    A migrated flow occupies both paths until the stage commits, so only
    links new to its path gain load; a placed flow loads its whole path.
    """
    added: dict[LinkId, float] = {}
    if step.kind is StepKind.MIGRATE:
        migration = step.payload
        assert isinstance(migration, Migration)
        old = frozenset(path_links(migration.old_path))
        for link in path_links(step.path):
            if link not in old:
                added[link] = added.get(link, 0.0) + step.demand
    else:
        for link in path_links(step.path):
            added[link] = added.get(link, 0.0) + step.demand
    return added


def _settle(step: Step, delta: dict[LinkId, float]) -> None:
    """Fold a committed step's steady-state load shift into ``delta``."""
    if step.kind is StepKind.MIGRATE:
        migration = step.payload
        assert isinstance(migration, Migration)
        old = frozenset(path_links(migration.old_path))
        new = frozenset(path_links(migration.new_path))
        for link in new - old:
            delta[link] = delta.get(link, 0.0) + step.demand
        for link in old - new:
            delta[link] = delta.get(link, 0.0) - step.demand
    else:
        for link in path_links(step.path):
            delta[link] = delta.get(link, 0.0) + step.demand


def _batch_stages(state: NetworkState, sequence: list[Step],
                  epsilon: float) -> tuple[Stage, ...]:
    """Greedy longest-prefix batching of ``sequence`` into stages.

    ``delta`` shadows the settled load shift of the stages already closed
    (a plain dict, not a capacity-enforcing view: augmented stages may
    legally exceed capacity mid-schedule). A step joins the current batch
    iff every link it loads stays within ``(1 + ε) · capacity``; a step
    that does not fit even in an empty batch becomes its own stage with
    the overshoot recorded.
    """
    delta: dict[LinkId, float] = {}
    stages: list[Stage] = []
    batch: list[Step] = []
    batch_added: dict[LinkId, float] = {}

    def headroom(link: LinkId) -> float:
        capacity = state.capacity(*link)
        return ((1.0 + epsilon) * capacity + EPS
                - state.used(*link) - delta.get(link, 0.0))

    def close() -> None:
        if not batch:
            return
        overload = 0.0
        for link, add in batch_added.items():
            capacity = state.capacity(*link)
            if capacity <= 0:
                continue
            transient = state.used(*link) + delta.get(link, 0.0) + add
            overload = max(overload, (transient - capacity) / capacity)
        stages.append(Stage(steps=tuple(batch),
                            transient_overload=max(0.0, overload)))
        for step in batch:
            _settle(step, delta)
        batch.clear()
        batch_added.clear()

    for step in sequence:
        additions = _transient_additions(step)
        fits = all(batch_added.get(link, 0.0) + add <= headroom(link)
                   for link, add in additions.items())
        if not fits and batch:
            close()
            fits = all(add <= headroom(link)
                       for link, add in additions.items())
        for link, add in additions.items():
            batch_added[link] = batch_added.get(link, 0.0) + add
        batch.append(step)
        if not fits:
            close()  # drifted singleton: emit with its overshoot recorded
    close()
    return tuple(stages)

"""Greedy safe ordering of update steps (a Dionysus-lite).

The executor applies a plan in the exact order the planner built it, which
is safe against the state the plan was computed on. When the state has
*drifted* (churn between planning and execution, or a hand-assembled set of
moves), that order may no longer work even though *some* order does —
finding one is exactly the dependency-scheduling problem Dionysus solves
for consistent updates.

:func:`find_safe_order` implements the greedy core: repeatedly apply any
step that fits the current state until none is applicable. For unsplittable
flows this either finds a safe sequential order or reports the residual
deadlock (real Dionysus breaks such deadlocks by splitting flows, which the
paper's model — unsplit flows, §III-A — rules out).
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.exceptions import (
    DuplicateFlowError,
    InvalidPathError,
    PlacementError,
    TopologyError,
)
from repro.core.flow import Flow, check_endpoints
from repro.core.plan import EventPlan, FlowPlan, Migration
from repro.network.link import (
    EPS,
    LinkId,
    format_link,
    is_simple_path,
    path_links,
)
from repro.network.network import Network
from repro.network.state import NetworkState


class StepKind(enum.Enum):
    MIGRATE = "migrate"
    PLACE = "place"


@dataclass(frozen=True)
class Step:
    """One primitive update step of a plan."""

    kind: StepKind
    flow_id: str
    path: tuple[str, ...]
    demand: float
    payload: Migration | FlowPlan  # what this step came from

    def describe(self) -> str:
        return f"{self.kind.value} {self.flow_id} ({self.demand:.1f} Mbit/s)"


@dataclass
class OrderingResult:
    """Outcome of :func:`find_safe_order`."""

    order: list[Step]
    stuck: list[Step]

    @property
    def complete(self) -> bool:
        """True when every step was ordered (no residual deadlock)."""
        return not self.stuck


def plan_steps(plan: EventPlan) -> list[Step]:
    """Decompose a plan into its primitive steps, in plan order."""
    steps: list[Step] = []
    for flow_plan in plan.flow_plans:
        for migration in flow_plan.migrations:
            steps.append(Step(kind=StepKind.MIGRATE,
                              flow_id=migration.flow.flow_id,
                              path=migration.new_path,
                              demand=migration.flow.demand,
                              payload=migration))
        steps.append(Step(kind=StepKind.PLACE,
                          flow_id=flow_plan.flow.flow_id,
                          path=flow_plan.path,
                          demand=flow_plan.flow.demand,
                          payload=flow_plan))
    return steps


class _ReadThrough(dict[Hashable, float]):
    """A link column read through a function, each key at most once."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[Any], float]) -> None:
        super().__init__()
        self.read = read

    def __missing__(self, key: Hashable) -> float:
        value = self[key] = self.read(key)
        return value


class LinkReader:
    """Capacity and usage columns of a state's links, keyed for the
    compiler's loops: ``reader.capacity[key]``, ``reader.used[key]``.

    On an index-backed state a link's key is its link-table index: a
    :class:`~repro.network.network.Network` is read straight off its
    columns, any other state (views, footprint recorders) through
    ``capacity_idx``/``used_idx``. A state without a table is keyed by
    ``LinkId`` and read through ``capacity``/``used``. The columns are
    only valid while ``state`` is not mutated.
    """

    __slots__ = ("table", "capacity", "used")

    def __init__(self, state: NetworkState) -> None:
        self.table = state.link_table()
        #: Subscriptable by key, yielding floats.
        self.capacity: Any
        self.used: Any
        if self.table is None:
            self.capacity = _ReadThrough(lambda link: state.capacity(*link))
            self.used = _ReadThrough(lambda link: state.used(*link))
        elif type(state) is Network:
            self.capacity = state.capacity_col()
            self.used = state.used_col()
        else:
            self.capacity = _ReadThrough(state.capacity_idx)
            self.used = _ReadThrough(state.used_idx)

    def key(self, link: LinkId) -> Hashable:
        """The key of one link; ``TopologyError`` when the table lacks it
        (reported as :meth:`Network.capacity` would)."""
        if self.table is None:
            return link
        i = self.table.index.get(link)
        if i is None:
            raise TopologyError(f"no link {format_link(link)}")
        return i

    def keys(self, path: Sequence[str]) -> Sequence[Hashable]:
        """The keys of ``path``'s links, in order: baked on an interned
        path of this table, mapped link by link otherwise."""
        idx = getattr(path, "link_idx", None)
        if idx is not None and self.table is not None \
                and getattr(path, "table", None) is self.table:
            return idx
        return [self.key(link) for link in path_links(path)]


#: A flow the overlay placed: the flow, its path, and its links' keys.
_Moved = tuple[Flow, tuple[str, ...], Sequence[Hashable]]


class _LoadOverlay:
    """The what-if state :func:`find_safe_order` probes steps on.

    It keeps only what ordering reads: link usage by key (read through to
    ``state`` until first written), the flows it moved (``None`` once
    removed), and per-node rule counts when the state tracks rules. Every
    value is the one a :class:`~repro.network.view.NetworkView` over
    ``state`` would hold — same float operations, same order — and every
    step is refused or raises exactly where the view's
    ``place``/``reroute`` would: ``InsufficientBandwidthError`` and
    ``RuleSpaceError`` become a False return, any other error
    propagates.
    """

    __slots__ = ("state", "reader", "used", "moved", "rules")

    def __init__(self, state: NetworkState) -> None:
        self.state = state
        self.reader = LinkReader(state)
        self.used = _ReadThrough(self.reader.used.__getitem__)
        self.moved: dict[str, _Moved | None] = {}
        self.rules: dict[str, int] | None = \
            {} if state.tracks_rules else None

    def has_flow(self, flow_id: str) -> bool:
        if flow_id in self.moved:
            return self.moved[flow_id] is not None
        return self.state.has_flow(flow_id)

    def _rules_used(self, node: str) -> int:
        assert self.rules is not None
        count = self.rules.get(node)
        return self.state.rules_used(node) if count is None else count

    def place(self, flow: Flow, path: Sequence[str]) -> bool:
        """Place ``flow`` on ``path``; False when a link or a rule table
        lacks room. Raises ``DuplicateFlowError``, ``ValueError`` (bad
        endpoints), ``InvalidPathError`` and ``TopologyError``."""
        if self.has_flow(flow.flow_id):
            raise DuplicateFlowError(f"flow {flow.flow_id!r} already placed")
        path_t = path if isinstance(path, tuple) else tuple(path)
        check_endpoints(flow, path_t)
        demand = flow.demand
        reader, used, capacity = self.reader, self.used, self.reader.capacity
        keys: Sequence[Hashable]
        idx = getattr(path_t, "link_idx", None)
        if idx is not None and reader.table is not None \
                and getattr(path_t, "table", None) is reader.table:
            keys = idx
            for i in idx:
                if capacity[i] - used[i] + EPS < demand:
                    return False
        else:
            # Links are mapped in the feasibility loop, so a missing link
            # raises only once every link before it fits, as on a view.
            if not is_simple_path(path_t):
                raise InvalidPathError(f"path {path!r} is not a simple path")
            mapped: list[Hashable] = []
            for link in path_links(path_t):
                key = reader.key(link)
                if capacity[key] - used[key] + EPS < demand:
                    return False
                mapped.append(key)
            keys = mapped
        rules, limit_of = self.rules, self.state.rule_capacity
        if rules is not None:
            for node in path_t:
                limit = limit_of(node)
                if limit is not None and self._rules_used(node) >= limit:
                    return False
        for key in keys:
            used[key] += demand
        if rules is not None:
            for node in path_t:
                if limit_of(node) is not None:
                    rules[node] = self._rules_used(node) + 1
        self.moved[flow.flow_id] = (flow, path_t, keys)
        return True

    def remove(self, flow_id: str) -> tuple[Flow, tuple[str, ...]]:
        """Remove a flow the overlay holds (callers check
        :meth:`has_flow`); returns it with its path."""
        moved = self.moved.get(flow_id)
        if moved is None:
            placement = self.state.placement(flow_id)
            flow, path = placement.flow, placement.path
            keys = self.reader.keys(path)
        else:
            flow, path, keys = moved
        demand, used = flow.demand, self.used
        for key in keys:
            value = used[key] - demand
            used[key] = value if value > 0.0 else 0.0
        rules, limit_of = self.rules, self.state.rule_capacity
        if rules is not None:
            for node in path:
                if limit_of(node) is not None:
                    rules[node] = self._rules_used(node) - 1
        self.moved[flow_id] = None
        return flow, path

    def reroute(self, flow_id: str, path: Sequence[str]) -> bool:
        """Move a placed flow onto ``path``; when it does not fit, put it
        back on its old path (:meth:`NetworkState.reroute`'s rollback).
        If even that fails, the flow stays removed and the step is
        refused."""
        flow, old_path = self.remove(flow_id)
        try:
            placed = self.place(flow, path)
        except (PlacementError, TopologyError):
            if not self.place(flow, old_path):
                return False
            raise
        if not placed:
            self.place(flow, old_path)
        return placed


def _try_step(overlay: _LoadOverlay, step: Step) -> bool:
    """Apply one step to the overlay if it fits; False when it does not."""
    if step.kind is StepKind.MIGRATE:
        if not overlay.has_flow(step.flow_id):
            return False  # its flow left the network; nothing to move
        return overlay.reroute(step.flow_id, step.path)
    return overlay.place(step.payload.flow, step.path)


def find_safe_order(state: NetworkState, steps: list[Step],
                    apply: bool = False) -> OrderingResult:
    """Greedily order ``steps`` so each fits the state left by its
    predecessors.

    Args:
        state: the state to order against; read only, unless ``apply``.
        steps: primitive steps in any order (e.g. from :func:`plan_steps`,
            possibly from several plans).
        apply: when True and a complete order is found, commit it to
            ``state`` by replaying ``result.order`` through
            ``state.reroute``/``state.place``; partial orders are never
            committed, and refused probes leave no trace on ``state``.

    Returns:
        An :class:`OrderingResult`; ``result.order`` is a safe prefix (all
        of the steps when ``result.complete``), ``result.stuck`` are steps
        no order can schedule without splitting flows.

    Raises:
        DuplicateFlowError, InvalidPathError, TopologyError: a step is
            malformed against ``state`` (a place of a flow already
            present, a non-simple path, a link the topology lacks).

    Steps are probed on an index-keyed load overlay of ``state`` that
    reproduces a :class:`~repro.network.view.NetworkView`'s arithmetic
    exactly. A step that lacks bandwidth or rule space is not applicable
    yet; a migration whose flow has left the network never is.

    The greedy loop is deterministic (steps are scanned in their given
    order each round). An exchange argument suggests it is also complete
    for this step model — applying a feasible step early only frees its old
    links earlier, and any step that also needed its new links must fit
    alongside it in every safe order anyway — so a stall indicates a swap
    deadlock (mutually dependent migrations), which unsplittable flows
    cannot break. The test suite exercises both outcomes.
    """
    overlay = _LoadOverlay(state)
    pending = list(steps)
    order: list[Step] = []
    progressed = True
    while pending and progressed:
        progressed = False
        remaining: list[Step] = []
        for step in pending:
            if _try_step(overlay, step):
                order.append(step)
                progressed = True
            else:
                remaining.append(step)
        pending = remaining
    result = OrderingResult(order=order, stuck=pending)
    if apply and result.complete:
        for step in order:
            if step.kind is StepKind.MIGRATE:
                state.reroute(step.flow_id, step.path)
            else:
                state.place(step.payload.flow, step.path)
    return result


def reorder_plan(state: NetworkState, plan: EventPlan,
                 apply: bool = False) -> OrderingResult:
    """Find a safe order for ``plan``'s steps against (possibly drifted)
    ``state``. A drop-in recovery for executor staleness: when the plan's
    built-in order no longer applies, a reordering may still."""
    return find_safe_order(state, plan_steps(plan), apply=apply)

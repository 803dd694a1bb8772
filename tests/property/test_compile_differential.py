"""Differential properties: the link-index plan compiler is bit-identical
to its pre-index reference.

``compile_reference`` holds :func:`find_safe_order` and the stage batcher
exactly as they were before both loops moved onto the link-index kernel
(a throwaway :class:`~repro.network.view.NetworkView`, dicts keyed by
``(u, v)`` tuples). Hypothesis builds drifted states on a k=4 fat-tree and
a leaf-spine and step lists covering the compiler's corner cases:

* migrations whose old and new paths overlap (every fat-tree candidate
  pair shares its access links);
* swap pairs — two flows of one host pair, each migrating onto the
  other's path — that deadlock and leave stuck steps;
* migrations of flows that left the network before compiling;
* a place of a flow that is still present (``DuplicateFlowError`` must
  propagate identically);
* rule-limited switches, plain-tuple (non-interned) paths, ``staged`` and
  ``augmented`` ε=0.1, and a ``Network`` or a ``NetworkView`` as the
  compiled-against state.

Demands are arbitrary floats, so the reference and the kernel agree only
if every float comes from the same operations in the same order. The
boundary tests go further: they bisect a probe step's demand down to the
adjacent pair of floats where the reference's schedule changes, and check
the kernel agrees on both sides — a reassociated headroom or a dropped
removal clamp moves such a boundary by an ulp.
"""

import struct
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compile_reference as ref  # noqa: E402
from helpers import (  # noqa: E402
    BG_BOT,
    BG_TOP,
    BOT,
    EF_BOT,
    TOP,
    diamond_topology,
)

from repro.core.compile import (
    PlanCompilerConfig,
    _batch_stages,
    compile_plan,
)
from repro.core.event import make_event
from repro.core.exceptions import PlacementError
from repro.core.flow import Flow
from repro.core.ordering import LinkReader, find_safe_order, plan_steps
from repro.core.plan import EventPlan, FlowPlan, Migration
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.leafspine import LeafSpineTopology
from repro.network.view import NetworkView

CAPACITY = 10.0
TOPOLOGIES = {
    "fattree": FatTreeTopology(k=4, link_capacity=CAPACITY),
    "leafspine": LeafSpineTopology(leaves=3, spines=2, hosts_per_leaf=2,
                                   link_capacity=CAPACITY),
}
PROVIDERS = {name: PathProvider(topo) for name, topo in TOPOLOGIES.items()}
CONFIGS = (PlanCompilerConfig(mode="staged"),
           PlanCompilerConfig(mode="augmented", epsilon=0.1))

#: Compiling reads only the plan's flow plans, never its event.
EVENT = make_event([Flow(flow_id="diff", src="a", dst="b", demand=1.0)],
                   event_id="diff")

demands = st.floats(min_value=0.05, max_value=0.7 * CAPACITY,
                    allow_nan=False, allow_infinity=False)


# ------------------------------------------------------------ scenarios


class Scenario:
    """A drifted state (``network``, or a view over it) and the flow
    plans compiled against it; ``plan(extra)`` slots ``extra`` between
    ``flow_plans`` and ``tail``."""

    def __init__(self, state, network, flow_plans, config, tail=(),
                 provider=None):
        self.state = state
        self.network = network
        self.flow_plans = tuple(flow_plans)
        self.config = config
        self.tail = tuple(tail)
        self.provider = provider

    def plan(self, extra=()):
        return EventPlan(event=EVENT, flow_plans=self.flow_plans
                         + tuple(extra) + self.tail)


def maybe_plain(draw, path):
    """The interned path or its plain node tuple."""
    return tuple(path) if draw(st.booleans()) else path


@st.composite
def scenarios(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo, provider = TOPOLOGIES[name], PROVIDERS[name]
    hosts = topo.hosts()
    rule_limit = draw(st.none() | st.integers(min_value=2, max_value=6))
    network = topo.network(default_rule_capacity=rule_limit)
    pairs = st.tuples(st.sampled_from(hosts), st.sampled_from(hosts)) \
        .filter(lambda pair: pair[0] != pair[1])

    def candidate(src, dst):
        paths = provider.paths(src, dst)
        return paths[draw(st.integers(0, len(paths) - 1))]

    def try_place(state, flow, path):
        try:
            state.place(flow, path)
        except PlacementError:
            return False
        return True

    # Background, placed on interned or plain paths.
    placed = []  # (flow, path) of every background flow that fit
    for i in range(draw(st.integers(0, 20))):
        src, dst = draw(pairs)
        flow = Flow(flow_id=f"bg{i}", src=src, dst=dst,
                    demand=draw(demands))
        path = maybe_plain(draw, candidate(src, dst))
        if try_place(network, flow, path):
            placed.append((flow, path))
    # Swap pairs: two heavy flows of one host pair on different paths.
    swaps = []
    for i in range(draw(st.integers(0, 2))):
        src, dst = draw(pairs)
        paths = provider.paths(src, dst)
        if len(paths) < 2:
            continue
        p, q = draw(st.lists(st.sampled_from(paths), min_size=2,
                             max_size=2, unique=True))
        heavy = st.floats(min_value=0.3 * CAPACITY, max_value=0.6 * CAPACITY)
        a = Flow(flow_id=f"swapA{i}", src=src, dst=dst, demand=draw(heavy))
        b = Flow(flow_id=f"swapB{i}", src=src, dst=dst, demand=draw(heavy))
        if try_place(network, a, p) and try_place(network, b, q):
            swaps.append((a, p, q))
            swaps.append((b, q, p))
            placed += [(a, p), (b, q)]

    # Drift, on the network or inside a view over it.
    state = network
    if draw(st.booleans()):
        state = NetworkView(network)
    departed = draw(st.sets(st.sampled_from(range(len(placed))))
                    if placed else st.just(set()))
    for j in sorted(departed):
        state.remove(placed[j][0].flow_id)
    for i in range(draw(st.integers(0, 4))):
        src, dst = draw(pairs)
        try_place(state, Flow(flow_id=f"churn{i}", src=src, dst=dst,
                              demand=draw(demands)),
                  candidate(src, dst))

    # Steps, grouped into flow plans (migrations precede their place).
    flow_plans, migrations = [], []
    for old_flow, old, new in swaps:
        migrations.append(Migration(flow=old_flow, old_path=old,
                                    new_path=new))
    dup_at = draw(st.integers(0, 40))  # a duplicate place, now and then
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["place", "migrate"]))
        if i == dup_at and placed:
            kind = "dup"
        if kind == "migrate" and placed:
            flow, old = placed[draw(st.integers(0, len(placed) - 1))]
            new = maybe_plain(draw, candidate(flow.src, flow.dst))
            migrations.append(Migration(flow=flow, old_path=old,
                                        new_path=new))
            continue
        if kind == "dup":
            flow = placed[draw(st.integers(0, len(placed) - 1))][0]
        else:
            src, dst = draw(pairs)
            flow = Flow(flow_id=f"ev{i}", src=src, dst=dst,
                        demand=draw(demands))
        path = maybe_plain(draw, candidate(flow.src, flow.dst))
        flow_plans.append(FlowPlan(flow=flow, path=path,
                                   migrations=tuple(migrations)))
        migrations = []
    if migrations:  # trailing migrations ride on one last small place
        src, dst = draw(pairs)
        flow = Flow(flow_id="tail", src=src, dst=dst, demand=0.1)
        flow_plans.append(FlowPlan(flow=flow, path=candidate(src, dst),
                                   migrations=tuple(migrations)))
    return Scenario(state, network, flow_plans,
                    draw(st.sampled_from(CONFIGS)), provider=provider)


# ------------------------------------------------------------ observing


def outcome(fn):
    """``("ok", value)`` or ``("raise", type, message)``."""
    try:
        return ("ok", fn())
    except Exception as exc:  # any error: type and message must match
        return ("raise", type(exc), str(exc))


def step_numbers(plan):
    """Each step's position in :func:`plan_steps` order, by payload: the
    payloads are shared by every compile of one plan, the steps are not."""
    return {id(step.payload): n for n, step in enumerate(plan_steps(plan))}


def ordering_sig(result, numbers):
    return ([numbers[id(s.payload)] for s in result.order],
            [numbers[id(s.payload)] for s in result.stuck])


def stages_sig(stages, numbers):
    return [([numbers[id(s.payload)] for s in stage.steps],
             stage.transient_overload.hex()) for stage in stages]


def compiled_sig(compiled):
    return (compiled.mode, compiled.epsilon,
            stages_sig(compiled.stages, step_numbers(compiled.plan)))


def state_sig(state):
    """Every observable of ``state`` the compiler must leave untouched."""
    n = len(state.link_table())
    nodes = sorted(state.graph.nodes)
    placements = sorted(
        (fid, state.placement(fid).flow, tuple(state.placement(fid).path),
         type(state.placement(fid).path).__name__)
        for fid in state.flow_ids())
    return (array("d", [state.used_idx(i) for i in range(n)]).tobytes(),
            [state.link_version_idx(i) for i in range(n)],
            [(state.rules_used(v), state.node_version(v)) for v in nodes],
            placements)


def assert_same(scenario, plan):
    """Kernel and reference agree on ordering, batching and compiling,
    and the kernel leaves the compiled-against state untouched."""
    state, config = scenario.state, scenario.config
    before = state_sig(state), state_sig(scenario.network)
    steps, numbers = plan_steps(plan), step_numbers(plan)
    got = outcome(lambda: ordering_sig(find_safe_order(state, steps),
                                       numbers))
    want = outcome(lambda: ordering_sig(ref.find_safe_order(state, steps),
                                        numbers))
    assert got == want
    if want[0] == "ok":
        result = ref.find_safe_order(state, steps)
        sequence = result.order + result.stuck
        got = outcome(lambda: stages_sig(_batch_stages(
            LinkReader(state), sequence, config.epsilon), numbers))
        want = outcome(lambda: stages_sig(ref._batch_stages(
            state, sequence, config.epsilon), numbers))
        assert got == want
    got = outcome(lambda: compiled_sig(compile_plan(state, plan, config)))
    want = outcome(lambda: compiled_sig(ref.compile_plan(state, plan,
                                                         config)))
    assert got == want
    assert (state_sig(state), state_sig(scenario.network)) == before


# --------------------------------------------------------- boundaries


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def change_points(signature, lo, hi, limit=8):
    """Adjacent float pairs ``(a, b)`` in ``[lo, hi]`` where
    ``signature`` changes, found by bisecting on the bit patterns of
    positive floats (which order like the floats)."""
    found = []
    stack = [(_bits(lo), signature(lo), _bits(hi), signature(hi))]
    while stack and len(found) < limit:
        a, sig_a, b, sig_b = stack.pop()
        if sig_a == sig_b:
            continue
        if b - a == 1:
            found.append((_float(a), _float(b)))
            continue
        mid = (a + b) // 2
        sig_mid = signature(_float(mid))
        stack.append((mid, sig_mid, b, sig_b))
        stack.append((a, sig_a, mid, sig_mid))
    return found


def assert_same_at_boundaries(scenario, probe_plan, lo, hi):
    """Bisect ``probe_plan(demand)`` for the reference's schedule changes
    and compare the kernel on both sides of each one."""
    state, config = scenario.state, scenario.config

    def reference(demand):
        """The reference's schedule: stage membership, not overshoots
        (those move with every ulp of demand)."""
        result = outcome(lambda: compiled_sig(ref.compile_plan(
            state, scenario.plan([probe_plan(demand)]), config)))
        if result[0] == "raise":
            return result
        return [steps for steps, _ in result[1][2]]

    points = change_points(reference, lo, hi)
    for a, b in points:
        for demand in (a, b):
            assert_same(scenario, scenario.plan([probe_plan(demand)]))
    return points


# ---------------------------------------------------------------- tests


class TestCompilerDifferential:
    @given(scenario=scenarios())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    def test_matches_reference(self, scenario):
        assert_same(scenario, scenario.plan())

    @given(scenario=scenarios(), data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    def test_matches_reference_at_boundaries(self, scenario, data):
        """A final probe place, at every demand where the reference's
        schedule flips."""
        hosts = sorted(n for n, kind in scenario.state.graph.nodes(
            data="kind") if kind == "host")
        src, dst = data.draw(st.lists(st.sampled_from(hosts), min_size=2,
                                      max_size=2, unique=True))
        paths = scenario.provider.paths(src, dst)
        path = paths[data.draw(st.integers(0, len(paths) - 1))]
        if data.draw(st.booleans()):
            path = tuple(path)

        def probe(demand):
            flow = Flow(flow_id="probe", src=src, dst=dst, demand=demand)
            return FlowPlan(flow=flow, path=path)

        assert_same_at_boundaries(scenario, probe, 0.01, 2 * CAPACITY)


def fat_access_diamond(capacity):
    """The test diamond with host links ten times as wide as the middle
    ones, so a probe's bottleneck is the middle link it shares with the
    drift."""
    graph = diamond_topology(capacity).graph().copy()
    hosts = {n for n, kind in graph.nodes(data="kind") if kind == "host"}
    for u, v, data in graph.edges(data=True):
        if u in hosts or v in hosts:
            data["capacity"] = 10 * capacity
    return CustomTopology(graph, name="fat-access-diamond", max_paths=4)


class TestBoundaryRegressions:
    """Hand-built drifts whose schedule flips on the last bit of a float
    on a middle link of the diamond, so an arithmetic reordering cannot
    hide between examples. The probe ``a -> b`` over the top path shares
    only the middle links with the drifted flows; a small tail step after
    it shows both whether the probe was ordered and whether it closed its
    stage."""

    TAIL = FlowPlan(flow=Flow(flow_id="t", src="e", dst="f", demand=0.25),
                    path=EF_BOT)

    @staticmethod
    def probe(demand):
        return FlowPlan(flow=Flow(flow_id="p", src="a", dst="b",
                                  demand=demand), path=TOP)

    @staticmethod
    def move_off_top(flow):
        """A small place that carries ``flow``'s migration off the top."""
        return FlowPlan(flow=Flow(flow_id="m", src="a", dst="b",
                                  demand=0.25), path=BOT,
                        migrations=(Migration(flow=flow, old_path=BG_TOP,
                                              new_path=BG_BOT),))

    @pytest.mark.parametrize("x,y", [(23.18, 70.92), (26.71, 65.04)])
    def test_removal_clamp(self, x, y):
        """``y`` is left carrying slightly less than its own demand once
        ``x`` departs, so moving ``y`` off drives the middle links a
        hair below zero, which the clamp turns into exactly 0.0 — and
        that decides whether a full-capacity probe fits."""
        network = fat_access_diamond(100.0).network()
        gone = Flow(flow_id="x", src="c", dst="d", demand=x)
        stay = Flow(flow_id="y", src="c", dst="d", demand=y)
        network.place(gone, BG_TOP)
        network.place(stay, BG_TOP)
        network.remove("x")
        assert network.used("s1", "top") - y < 0.0
        scenario = Scenario(network, network, [self.move_off_top(stay)],
                            PlanCompilerConfig(mode="staged"),
                            tail=[self.TAIL])
        assert assert_same_at_boundaries(scenario, self.probe, 1.0, 200.0)

    @pytest.mark.parametrize("capacity,epsilon,demand", [
        (10.0, 0.0, 0.54),
        (10.0, 0.0, 0.79),
        (100.0, 0.1, 17.43331442957274),
    ])
    def test_headroom_after_settled_stage(self, capacity, epsilon, demand):
        """``bgt`` leaves the top path in stage 1, so stage 2 checks the
        probe against ``(1+ε)·cap + EPS - used - delta`` with ``delta =
        -used``. For these demands that headroom rounds below
        ``(1+ε)·cap + EPS``; a small step after the probe shows whether
        the probe closed its stage."""
        network = fat_access_diamond(capacity).network()
        bgt = Flow(flow_id="bgt", src="c", dst="d", demand=demand)
        network.place(bgt, BG_TOP)
        config = (PlanCompilerConfig(mode="augmented", epsilon=epsilon)
                  if epsilon else PlanCompilerConfig(mode="staged"))
        scenario = Scenario(network, network, [self.move_off_top(bgt)],
                            config, tail=[self.TAIL])
        assert assert_same_at_boundaries(scenario, self.probe, 0.5,
                                         3 * capacity)

"""Unit tests for the background-traffic loader."""

import random

import networkx as nx
import pytest

from repro.core.flow import FlowKind
from repro.experiments.runner import hermetic_ids
from repro.network.link import EPS
from repro.network.routing.provider import PathProvider
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.leafspine import LeafSpineTopology
from repro.traces.background import BackgroundLoader
from repro.traces.yahoo import YahooLikeTrace


@pytest.fixture(scope="module")
def topo():
    return FatTreeTopology(k=4)


@pytest.fixture(scope="module")
def provider(topo):
    return PathProvider(topo)


def make_loader(topo, provider, seed=1, **kwargs):
    net = topo.network()
    trace = YahooLikeTrace(topo.hosts(), seed=seed)
    loader = BackgroundLoader(net, provider, trace,
                              random.Random(seed + 10), **kwargs)
    return net, loader


class TestValidation:
    def test_bad_host_cap(self, topo, provider):
        net = topo.network()
        trace = YahooLikeTrace(topo.hosts(), seed=1)
        with pytest.raises(ValueError):
            BackgroundLoader(net, provider, trace, host_link_cap=0.0)
        with pytest.raises(ValueError):
            BackgroundLoader(net, provider, trace, host_link_cap=1.5)

    def test_bad_path_policy(self, topo, provider):
        net = topo.network()
        trace = YahooLikeTrace(topo.hosts(), seed=1)
        with pytest.raises(ValueError, match="path policy"):
            BackgroundLoader(net, provider, trace, path_policy="scenic")

    def test_bad_target(self, topo, provider):
        net, loader = make_loader(topo, provider)
        with pytest.raises(ValueError):
            loader.load_to_utilization(1.0)
        with pytest.raises(ValueError):
            loader.load_to_utilization(-0.1)


class TestLoading:
    def test_reaches_target_utilization(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.4)
        assert report.utilization >= 0.4
        assert report.utilization == pytest.approx(
            net.average_utilization())
        assert len(report.placed) > 0
        net.check_invariants()

    def test_placed_flows_are_permanent_by_default(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.2)
        assert all(f.duration is None for f in report.placed)

    def test_finite_flows_on_request(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.2, permanent=False)
        assert all(f.duration is not None for f in report.placed)

    def test_host_cap_respected(self, topo, provider):
        net, loader = make_loader(topo, provider, host_link_cap=0.5)
        loader.load_to_utilization(0.45, max_rejects=500)
        for host in net.hosts():
            for neighbor in net.graph.successors(host):
                assert net.used(host, neighbor) <= 0.5 * 1000.0 + 1e-6
                assert net.used(neighbor, host) <= 0.5 * 1000.0 + 1e-6

    def test_max_flows_cap(self, topo, provider):
        net, loader = make_loader(topo, provider)
        report = loader.load_to_utilization(0.6, max_flows=10)
        assert len(report.placed) == 10

    def test_deterministic(self, topo, provider):
        net1, loader1 = make_loader(topo, provider, seed=5)
        net2, loader2 = make_loader(topo, provider, seed=5)
        r1 = loader1.load_to_utilization(0.3)
        r2 = loader2.load_to_utilization(0.3)
        assert [f.flow_id[-3:] for f in r1.placed] != []  # ids differ but
        assert len(r1.placed) == len(r2.placed)           # structure matches
        assert r1.utilization == pytest.approx(r2.utilization)

    def test_best_policy_balances_better(self, topo, provider):
        net_r, loader_r = make_loader(topo, provider, seed=5)
        loader_r.load_to_utilization(0.4)
        topo2 = FatTreeTopology(k=4)
        net_b = topo2.network()
        trace = YahooLikeTrace(topo2.hosts(), seed=5)
        loader_b = BackgroundLoader(net_b, PathProvider(topo2), trace,
                                    random.Random(15), path_policy="best")
        loader_b.load_to_utilization(0.4)
        assert net_b.max_utilization() <= net_r.max_utilization() + 0.05


class TestWouldFit:
    def test_probe_does_not_place(self, topo, provider):
        net, loader = make_loader(topo, provider)
        trace = YahooLikeTrace(topo.hosts(), seed=99)
        flow = trace.sample_flow()
        assert loader.would_fit(flow)
        assert net.flow_count() == 0


# ------------------------------------------------ reference loader


def _seed_average_utilization(net):
    """The mean as first written: rebuild the switch-link pool from node
    kinds and sum ``utilization(u, v)`` link by link."""
    kinds = nx.get_node_attributes(net.graph, "kind")
    pool = [(u, v) for u, v in net.links()
            if kinds.get(u) != "host" and kinds.get(v) != "host"]
    if not pool:
        return 0.0
    return sum(net.utilization(u, v) for u, v in pool) / len(pool)


def _reference_load(net, provider, trace, rng, target, host_link_cap=0.9,
                    path_policy="random", max_rejects=2000):
    """The loader as first written: score each interned candidate through
    ``path_residual`` and re-check the exact mean before every flow."""

    def exceeds_host_cap(path, demand):
        for u, v in (path[0], path[1]), (path[-2], path[-1]):
            if net.used(u, v) + demand > host_link_cap * net.capacity(u, v):
                return True
        return False

    def best_path(flow):
        feasible = []
        for path in provider.paths(flow.src, flow.dst):
            residual = net.path_residual(path)
            if residual + EPS < flow.demand:
                continue
            if exceeds_host_cap(path, flow.demand):
                continue
            feasible.append((residual, path))
        if not feasible:
            return None
        if path_policy == "random":
            return rng.choice(feasible)[1]
        best_residual = max(r for r, __ in feasible)
        return rng.choice([p for r, p in feasible
                           if r >= best_residual - EPS])

    placed, rejected, consecutive = [], 0, 0
    while _seed_average_utilization(net) < target:
        flow = trace.sample_flow(kind=FlowKind.BACKGROUND, permanent=True)
        path = best_path(flow)
        if path is None:
            rejected += 1
            consecutive += 1
            if consecutive >= max_rejects:
                break
            continue
        net.place(flow, path)
        consecutive = 0
        placed.append((flow.flow_id, tuple(path)))
    return placed, rejected, _seed_average_utilization(net)


def _mixed_leafspine():
    """A leaf-spine whose spine links are 400/1000/2500 Mbit/s, so a
    per-placement bound from any one capacity would be loose."""
    topo = LeafSpineTopology(leaves=4, spines=3, hosts_per_leaf=4)
    graph = topo.graph()
    for u, v, data in graph.edges(data=True):
        spine = v if v.startswith("s") else u if u.startswith("s") else None
        if spine is not None:
            data["capacity"] = (400.0, 1000.0, 2500.0)[int(spine[1:])]
    return topo


_TOPOLOGIES = {"fattree4": lambda: FatTreeTopology(k=4),
               "leafspine-mixed": _mixed_leafspine}


@pytest.mark.parametrize("policy", ["random", "best"])
@pytest.mark.parametrize("target", [0.3, 0.7, 0.9])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
def test_bounded_loader_matches_reference(topology, seed, target, policy):
    topo = _TOPOLOGIES[topology]()
    runs = []
    for load in ("reference", "bounded"):
        net, provider = topo.network(), PathProvider(topo)
        trace = YahooLikeTrace(topo.hosts(), seed=seed)
        rng = random.Random(seed + 10)
        with hermetic_ids():
            if load == "reference":
                placed, rejected, util = _reference_load(
                    net, provider, trace, rng, target, path_policy=policy,
                    max_rejects=300)
            else:
                report = BackgroundLoader(
                    net, provider, trace, rng, path_policy=policy
                ).load_to_utilization(target, max_rejects=300)
                placed = [(f.flow_id, tuple(net.placement(f.flow_id).path))
                          for f in report.placed]
                rejected, util = report.rejected, report.utilization
        runs.append((placed, rejected, util, net.used_col().tobytes(),
                     rng.getstate()))
    assert runs[0] == runs[1]
    placed, rejected, util, __, __ = runs[1]
    assert placed
    if target == 0.9:
        assert util < target and rejected >= 300  # the max_rejects exit
    else:
        assert util >= target or rejected >= 300


def test_exact_evaluations_per_load_are_few():
    topo = FatTreeTopology(k=8)
    net = topo.network()
    evaluations = 0
    exact = net.average_utilization

    def counted(*args, **kwargs):
        nonlocal evaluations
        evaluations += 1
        return exact(*args, **kwargs)

    net.average_utilization = counted
    loader = BackgroundLoader(net, PathProvider(topo),
                              YahooLikeTrace(topo.hosts(), seed=1),
                              random.Random(2))
    report = loader.load_to_utilization(0.7)
    assert report.utilization >= 0.7
    assert len(report.placed) > 1000
    assert evaluations <= 50


def test_average_utilization_is_bit_identical():
    topo = _mixed_leafspine()
    net = topo.network()
    loader = BackgroundLoader(net, PathProvider(topo),
                              YahooLikeTrace(topo.hosts(), seed=4),
                              random.Random(5))
    for target in (0.1, 0.2, 0.4):
        loader.load_to_utilization(target)
        assert net.average_utilization() == _seed_average_utilization(net)


def test_loader_rejects_foreign_network(topo, provider):
    other = FatTreeTopology(k=4)
    trace = YahooLikeTrace(topo.hosts(), seed=1)
    with pytest.raises(ValueError, match="link tables"):
        BackgroundLoader(other.network(), provider, trace)

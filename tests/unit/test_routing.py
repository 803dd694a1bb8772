"""Unit tests for routing utilities and the PathProvider cache."""

import random

import networkx as nx
import pytest

from repro.core.exceptions import TopologyError
from repro.network.link import link_table_for
from repro.network.routing.candidate import CandidatePath
from repro.network.routing.paths import (
    k_shortest_paths,
    path_hops,
    paths_avoiding,
    paths_through,
)
from repro.network.routing.provider import PathProvider
from repro.network.topology.custom import CustomTopology
from repro.network.topology.fattree import FatTreeTopology
from repro.network.topology.jellyfish import JellyfishTopology
from repro.network.topology.leafspine import LeafSpineTopology
from repro.traces.background import BackgroundLoader
from repro.traces.yahoo import YahooLikeTrace


class TestKShortestPaths:
    @pytest.fixture(scope="class")
    def g(self):
        graph = nx.DiGraph()
        graph.add_edges_from([("a", "m1"), ("m1", "b"),
                              ("a", "m2"), ("m2", "b"),
                              ("a", "x"), ("x", "y"), ("y", "b")])
        return graph

    def test_returns_shortest_first(self, g):
        paths = k_shortest_paths(g, "a", "b", k=3)
        assert len(paths) == 3
        assert path_hops(paths[0]) <= path_hops(paths[-1])

    def test_k_limits_result(self, g):
        assert len(k_shortest_paths(g, "a", "b", k=2)) == 2

    def test_no_path_returns_empty(self, g):
        g2 = g.copy()
        g2.add_node("island")
        assert k_shortest_paths(g2, "a", "island") == []

    def test_unknown_node_returns_empty(self, g):
        assert k_shortest_paths(g, "a", "ghost") == []

    def test_nonpositive_k(self, g):
        assert k_shortest_paths(g, "a", "b", k=0) == []


class TestPathFilters:
    PATHS = [("a", "m1", "b"), ("a", "m2", "b")]

    def test_paths_avoiding(self):
        kept = paths_avoiding(self.PATHS, ("a", "m1"))
        assert kept == [("a", "m2", "b")]

    def test_paths_through(self):
        kept = paths_through(self.PATHS, ("m2", "b"))
        assert kept == [("a", "m2", "b")]

    def test_path_hops(self):
        assert path_hops(("a", "b", "c")) == 2
        assert path_hops(("a",)) == 0


class TestPathProvider:
    @pytest.fixture(scope="class")
    def topo(self):
        return FatTreeTopology(k=4)

    def test_caches_results(self, topo):
        provider = PathProvider(topo)
        first = provider.paths("h0_0_0", "h1_0_0")
        second = provider.paths("h0_0_0", "h1_0_0")
        assert first is second
        assert provider.cache_size() == 1

    def test_max_paths_cap(self, topo):
        provider = PathProvider(topo, max_paths=2)
        assert len(provider.paths("h0_0_0", "h1_0_0")) == 2

    def test_max_paths_validation(self, topo):
        with pytest.raises(ValueError):
            PathProvider(topo, max_paths=0)

    def test_banned_nodes_filtered(self, topo):
        provider = PathProvider(topo, banned_nodes={"a0_0"})
        for path in provider.paths("h0_0_0", "h1_0_0"):
            assert "a0_0" not in path

    def test_banned_everything_raises(self, topo):
        provider = PathProvider(topo, banned_nodes={"e0_0"})
        with pytest.raises(TopologyError, match="no path"):
            provider.paths("h0_0_0", "h1_0_0")

    def test_shuffled_paths_preserve_cache_order(self, topo):
        provider = PathProvider(topo)
        original = provider.paths("h0_0_0", "h1_0_0")
        snapshot = tuple(original)
        provider.shuffled_paths("h0_0_0", "h1_0_0", random.Random(3))
        assert provider.paths("h0_0_0", "h1_0_0") == snapshot

    def test_shuffled_paths_same_set(self, topo):
        provider = PathProvider(topo)
        shuffled = provider.shuffled_paths("h0_0_0", "h1_0_0",
                                           random.Random(3))
        assert sorted(shuffled) == sorted(provider.paths("h0_0_0",
                                                         "h1_0_0"))

    def test_warm(self, topo):
        provider = PathProvider(topo)
        provider.warm([("h0_0_0", "h1_0_0"), ("h0_0_0", "h2_0_0")])
        assert provider.cache_size() == 2


# ------------------------------------------------- fabric-template paths


def _reference_paths(topology, src, dst, max_paths=None,
                     banned=frozenset()):
    """Candidates as built before fabric templates: enumerate the host
    pair, filter and cap, then intern each path with its own indices."""
    found = topology.equal_cost_paths(src, dst)
    if banned:
        found = [p for p in found if not banned.intersection(p)]
    if max_paths is not None:
        found = found[:max_paths]
    table = link_table_for(topology.graph())
    return [CandidatePath.make(p, table) for p in found]


def _assert_matches_reference(topology, pairs, **options):
    provider = PathProvider(topology, **options)
    banned = frozenset(options.get("banned_nodes", ()))
    checked = 0
    for src, dst in pairs:
        expected = _reference_paths(topology, src, dst,
                                    options.get("max_paths"), banned)
        if not expected:
            with pytest.raises(TopologyError, match="no path"):
                provider.paths(src, dst)
            continue
        got = provider.paths(src, dst)
        assert got == tuple(expected), (src, dst)
        for path, ref in zip(got, expected):
            assert path.links == ref.links
            assert path.link_idx == ref.link_idx
            assert path.link_set == ref.link_set
            assert path.table is ref.table
        checked += 1
    assert checked, "every pair was filtered away"


def _ordered_pairs(hosts):
    return [(s, d) for s in hosts for d in hosts if s != d]


def _sampled_pairs(hosts, count=60, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.sample(hosts, 2)) for _ in range(count)]


def _custom_topology():
    """A small irregular graph with one direct host-host link (a
    two-node candidate: empty interior)."""
    g = nx.Graph()
    for h in ("a", "b", "c", "d"):
        g.add_node(h, kind="host")
    for s in ("s1", "s2", "s3", "s4"):
        g.add_node(s, kind="switch")
    for u, v in (("a", "s1"), ("b", "s2"), ("c", "s3"), ("d", "s4"),
                 ("s1", "s2"), ("s2", "s3"), ("s3", "s4"), ("s4", "s1"),
                 ("s1", "s3"), ("a", "b")):
        g.add_edge(u, v, capacity=100.0)
    return CustomTopology(g, name="ring", max_paths=8)


_OPTIONS = [
    pytest.param({}, id="plain"),
    pytest.param({"max_paths": 2}, id="max2"),
    pytest.param({"banned_nodes": {"s1"}}, id="ban-s1"),
    pytest.param({"banned_nodes": {"s1", "a0_0", "l1", "t3"},
                  "max_paths": 3}, id="ban-switches-max3"),
    pytest.param({"banned_nodes": {"e1_0", "h0_0_1", "h2_1", "b"}},
                 id="ban-edge-and-hosts"),
]


class TestFabricTemplates:
    @pytest.mark.parametrize("options", _OPTIONS)
    def test_fattree_every_pair(self, options):
        topo = FatTreeTopology(k=4)
        _assert_matches_reference(topo, _ordered_pairs(topo.hosts()),
                                  **options)

    @pytest.mark.parametrize("options", _OPTIONS)
    def test_leafspine_every_pair(self, options):
        topo = LeafSpineTopology(leaves=4, spines=3, hosts_per_leaf=2)
        _assert_matches_reference(topo, _ordered_pairs(topo.hosts()),
                                  **options)

    @pytest.mark.parametrize("options", _OPTIONS)
    def test_jellyfish_sampled_pairs(self, options):
        topo = JellyfishTopology(switches=10, degree=3, hosts_per_switch=2,
                                 seed=4, max_paths=6)
        _assert_matches_reference(topo, _sampled_pairs(topo.hosts()),
                                  **options)

    @pytest.mark.parametrize("options", _OPTIONS)
    def test_custom_every_pair(self, options):
        topo = _custom_topology()
        _assert_matches_reference(topo, _ordered_pairs(topo.hosts()),
                                  **options)

    def test_direct_host_link_is_a_two_node_candidate(self):
        provider = PathProvider(_custom_topology())
        direct = provider.paths("a", "b")[0]
        assert direct == ("a", "b")
        assert direct.links == (("a", "b"),)
        assert len(direct.link_idx) == 1

    def test_attachment_pairs_share_one_template(self):
        topo = FatTreeTopology(k=4)
        provider = PathProvider(topo)
        one = provider.routes("h0_0_0", "h1_0_0")
        two = provider.routes("h0_0_1", "h1_0_1")
        assert one.inner_idx is two.inner_idx
        assert one.up_idx != two.up_idx

    def test_attachment(self):
        assert FatTreeTopology(k=4).attachment("h2_1_0") == "e2_1"
        assert LeafSpineTopology().attachment("h3_1") == "l3"
        assert JellyfishTopology().attachment("h0_0") is None
        with pytest.raises(TopologyError):
            FatTreeTopology(k=4).attachment("e0_0")

    def test_same_host_rejected(self):
        provider = PathProvider(FatTreeTopology(k=4))
        provider.paths("h0_0_0", "h0_0_1")  # the edge-pair template exists
        with pytest.raises(TopologyError, match="must differ"):
            provider.paths("h0_0_0", "h0_0_0")

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_lazy_candidate_is_the_paths_object(self, k):
        src, dst = "h0_0_0", "h3_1_1"
        lazy_first = PathProvider(FatTreeTopology(k=4))
        picked = lazy_first.routes(src, dst).candidate(k)
        assert lazy_first.paths(src, dst)[k] is picked
        paths_first = PathProvider(FatTreeTopology(k=4))
        listed = paths_first.paths(src, dst)
        assert paths_first.routes(src, dst).candidate(k) is listed[k]
        assert paths_first.paths(src, dst) is listed

    def test_loader_pick_is_the_paths_object(self):
        topo = FatTreeTopology(k=4)
        provider = PathProvider(topo)
        trace = YahooLikeTrace(topo.hosts(), seed=3)
        loader = BackgroundLoader(topo.network(), provider, trace,
                                  random.Random(4))
        for _ in range(40):
            flow = trace.sample_flow()
            picked = loader.best_path(flow)
            assert any(picked is p
                       for p in provider.paths(flow.src, flow.dst))

    def test_link_set_is_cached(self):
        path = PathProvider(FatTreeTopology(k=4)).paths("h0_0_0",
                                                        "h1_0_0")[0]
        assert path.link_set == frozenset(path.links)
        assert path.link_set is path.link_set

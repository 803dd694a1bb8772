"""Unit tests for the live Network substrate."""

import networkx as nx
import pytest

from repro.core.exceptions import (
    DuplicateFlowError,
    InsufficientBandwidthError,
    InvalidPathError,
    TopologyError,
    UnknownFlowError,
)
from repro.core.flow import Flow
from repro.network.network import Network


def line_graph(capacity=100.0) -> nx.DiGraph:
    """a <-> s1 <-> s2 <-> b with host/switch kinds."""
    g = nx.DiGraph()
    g.add_node("a", kind="host")
    g.add_node("b", kind="host")
    g.add_node("s1", kind="edge")
    g.add_node("s2", kind="edge")
    for u, v in (("a", "s1"), ("s1", "s2"), ("s2", "b")):
        g.add_edge(u, v, capacity=capacity)
        g.add_edge(v, u, capacity=capacity)
    return g


def flow(fid="f1", demand=10.0) -> Flow:
    return Flow(flow_id=fid, src="a", dst="b", demand=demand)


@pytest.fixture()
def net() -> Network:
    return Network(line_graph())


PATH = ("a", "s1", "s2", "b")


class TestConstruction:
    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError, match="empty graph"):
            Network(nx.DiGraph())

    def test_negative_capacity_rejected(self):
        g = line_graph()
        g["a"]["s1"]["capacity"] = -1.0
        with pytest.raises(TopologyError, match="negative"):
            Network(g)

    def test_default_capacity_applied(self):
        g = nx.DiGraph()
        g.add_edge("a", "b")
        net = Network(g, default_capacity=500.0)
        assert net.capacity("a", "b") == 500.0

    def test_hosts_and_switches(self, net):
        assert sorted(net.hosts()) == ["a", "b"]
        assert sorted(net.switches()) == ["s1", "s2"]

    def test_switch_links_exclude_host_links(self, net):
        links = net.switch_links()
        assert ("s1", "s2") in links
        assert ("a", "s1") not in links

    def test_switch_links_read_the_table_index(self, net):
        table = net.link_table()
        assert net.switch_links() == [table.ids[i] for i in table.switch_idx]
        assert net.copy().link_table().switch_idx is table.switch_idx
        fresh = net.switch_links()
        fresh.clear()  # callers may mutate the list they get
        assert net.switch_links()


class TestPlacement:
    def test_place_consumes_bandwidth(self, net):
        net.place(flow(), PATH)
        assert net.used("a", "s1") == pytest.approx(10.0)
        assert net.residual("s1", "s2") == pytest.approx(90.0)
        assert net.has_flow("f1")
        assert "f1" in net.flows_on_link("s1", "s2")

    def test_duplicate_rejected(self, net):
        net.place(flow(), PATH)
        with pytest.raises(DuplicateFlowError):
            net.place(flow(), PATH)

    def test_insufficient_bandwidth_rejected(self, net):
        net.place(flow("f1", demand=95.0), PATH)
        with pytest.raises(InsufficientBandwidthError) as err:
            net.place(flow("f2", demand=10.0), PATH)
        assert err.value.bottleneck is not None
        assert err.value.deficit > 0

    def test_exact_fit_allowed(self, net):
        net.place(flow("f1", demand=60.0), PATH)
        net.place(flow("f2", demand=40.0), PATH)
        assert net.residual("a", "s1") == pytest.approx(0.0)

    def test_invalid_path_rejected(self, net):
        with pytest.raises(InvalidPathError):
            net.place(flow(), ("a", "s2", "b"))  # a->s2 link doesn't exist

    def test_non_simple_path_rejected(self, net):
        bad = Flow(flow_id="f9", src="a", dst="a2", demand=1.0)
        with pytest.raises((InvalidPathError, ValueError)):
            net.place(bad, ("a", "s1", "a"))

    def test_failed_placement_leaves_state_clean(self, net):
        net.place(flow("f1", demand=95.0), PATH)
        before = net.used("a", "s1")
        with pytest.raises(InsufficientBandwidthError):
            net.place(flow("f2", demand=50.0), PATH)
        assert net.used("a", "s1") == before
        assert not net.has_flow("f2")
        net.check_invariants()


class TestRemoval:
    def test_remove_releases_bandwidth(self, net):
        net.place(flow(), PATH)
        net.remove("f1")
        assert net.used("a", "s1") == pytest.approx(0.0)
        assert not net.has_flow("f1")
        assert "f1" not in net.flows_on_link("s1", "s2")

    def test_remove_unknown_rejected(self, net):
        with pytest.raises(UnknownFlowError):
            net.remove("ghost")

    def test_remove_returns_placement(self, net):
        net.place(flow(), PATH)
        placement = net.remove("f1")
        assert placement.path == PATH


def diamond_graph(capacity=100.0) -> nx.DiGraph:
    """a <-> s1 <-> {top, bot} <-> s2 <-> b: two disjoint middle paths."""
    g = nx.DiGraph()
    g.add_node("a", kind="host")
    g.add_node("b", kind="host")
    for s in ("s1", "s2", "top", "bot"):
        g.add_node(s, kind="edge")
    for u, v in (("a", "s1"), ("s1", "top"), ("s1", "bot"),
                 ("top", "s2"), ("bot", "s2"), ("s2", "b")):
        g.add_edge(u, v, capacity=capacity)
        g.add_edge(v, u, capacity=capacity)
    return g


TOP_PATH = ("a", "s1", "top", "s2", "b")
BOT_PATH = ("a", "s1", "bot", "s2", "b")


class TestReroute:
    def test_reroute_moves_flow(self):
        net = Network(diamond_graph())
        net.place(flow(), TOP_PATH)
        net.reroute("f1", BOT_PATH)
        assert net.placement("f1").path == BOT_PATH
        assert net.used("s1", "top") == pytest.approx(0.0)
        assert net.used("s1", "bot") == pytest.approx(10.0)
        net.check_invariants()

    def test_reroute_onto_overlapping_path_uses_net_usage(self):
        net = Network(diamond_graph())
        # f1 fills the shared a->s1 link almost fully; rerouting f1 itself
        # must not double-count its own demand on the shared links.
        net.place(flow("f1", demand=95.0), TOP_PATH)
        net.reroute("f1", BOT_PATH)
        assert net.placement("f1").path == BOT_PATH
        net.check_invariants()

    def test_reroute_restores_on_failure(self):
        net = Network(diamond_graph())
        net.place(flow("f1", demand=60.0), TOP_PATH)
        # a switch-to-switch filler that occupies only the bot middle link
        blocker = Flow(flow_id="blocker", src="s1", dst="s2", demand=60.0)
        net.place(blocker, ("s1", "bot", "s2"))
        with pytest.raises(InsufficientBandwidthError):
            net.reroute("f1", BOT_PATH)  # bot middle link lacks room
        assert net.placement("f1").path == TOP_PATH
        assert net.used("s1", "top") == pytest.approx(60.0)
        net.check_invariants()

    def test_reroute_restores_on_invalid_path(self):
        # Regression: the restore used to trigger only on bandwidth
        # failures, so a reroute onto a bogus path silently dropped the
        # flow from the network.
        net = Network(diamond_graph())
        net.place(flow("f1", demand=10.0), TOP_PATH)
        with pytest.raises(InvalidPathError):
            net.reroute("f1", ("a", "s1", "nowhere", "b"))
        assert net.placement("f1").path == TOP_PATH
        assert net.used("s1", "top") == pytest.approx(10.0)
        net.check_invariants()

    def test_reroute_restores_on_full_rule_table(self):
        from repro.core.exceptions import RuleSpaceError
        g = diamond_graph()
        g.nodes["bot"]["rule_capacity"] = 1
        net = Network(g)
        hog = Flow(flow_id="hog", src="s1", dst="s2", demand=1.0)
        net.place(hog, ("s1", "bot", "s2"))  # bot's only rule slot
        net.place(flow("f1", demand=10.0), TOP_PATH)
        with pytest.raises(RuleSpaceError):
            net.reroute("f1", BOT_PATH)
        assert net.placement("f1").path == TOP_PATH
        net.check_invariants()


class TestQueries:
    def test_unknown_link_raises(self, net):
        with pytest.raises(TopologyError):
            net.capacity("a", "b")
        with pytest.raises(TopologyError):
            net.used("x", "y")
        with pytest.raises(TopologyError):
            net.flows_on_link("x", "y")

    def test_path_residual(self, net):
        net.place(flow("f1", demand=30.0), PATH)
        assert net.path_residual(PATH) == pytest.approx(70.0)

    def test_path_residual_with_ignore(self, net):
        net.place(flow("f1", demand=30.0), PATH)
        residual = net.path_residual(PATH, ignore=frozenset(["f1"]))
        assert residual == pytest.approx(100.0)

    def test_path_feasible(self, net):
        net.place(flow("f1", demand=95.0), PATH)
        assert net.path_feasible(PATH, 5.0)
        assert not net.path_feasible(PATH, 6.0)

    def test_utilization(self, net):
        net.place(flow("f1", demand=25.0), PATH)
        assert net.utilization("s1", "s2") == pytest.approx(0.25)
        assert net.average_utilization() == pytest.approx(0.125)
        assert net.max_utilization() == pytest.approx(0.25)

    def test_totals(self, net):
        assert net.total_capacity() == pytest.approx(600.0)
        net.place(flow("f1", demand=10.0), PATH)
        assert net.total_used() == pytest.approx(30.0)

    def test_flow_count_and_ids(self, net):
        assert net.flow_count() == 0
        net.place(flow(), PATH)
        assert net.flow_count() == 1
        assert list(net.flow_ids()) == ["f1"]


class TestCopy:
    def test_copy_is_independent(self, net):
        net.place(flow(), PATH)
        clone = net.copy()
        clone.remove("f1")
        assert net.has_flow("f1")
        assert not clone.has_flow("f1")
        net.check_invariants()
        clone.check_invariants()

    def test_copy_preserves_state(self, net):
        net.place(flow(), PATH)
        clone = net.copy()
        assert clone.used("a", "s1") == net.used("a", "s1")
        assert clone.placement("f1").path == PATH


class TestInvariants:
    def test_clean_network_passes(self, net):
        net.check_invariants()

    def test_detects_corruption(self, net):
        net.place(flow(), PATH)
        idx = net.link_table().index[("a", "s1")]
        net._used_col[idx] += 5.0  # simulate bookkeeping drift
        with pytest.raises(AssertionError):
            net.check_invariants()

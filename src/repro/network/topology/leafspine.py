"""Two-tier leaf-spine (Clos) topology.

Not used by the paper's evaluation, but included to show the event-level
abstraction and the LMTF/P-LMTF schedulers are topology-agnostic (DESIGN.md
§7). Every leaf connects to every spine; hosts hang off leaves. Between hosts
on different leaves there is one equal-cost path per spine.

Node naming: ``h{leaf}_{i}`` (host), ``l{j}`` (leaf), ``s{m}`` (spine).
"""

from __future__ import annotations

import networkx as nx

from repro.core.exceptions import TopologyError
from repro.network.topology.base import Topology


class LeafSpineTopology(Topology):
    """A leaf-spine fabric with uniform link capacity.

    Args:
        leaves: number of leaf (top-of-rack) switches.
        spines: number of spine switches.
        hosts_per_leaf: hosts attached to each leaf.
        link_capacity: capacity of every directed link in Mbit/s.
    """

    def __init__(self, leaves: int = 8, spines: int = 4,
                 hosts_per_leaf: int = 8, link_capacity: float = 1000.0):
        super().__init__()
        if leaves < 2 or spines < 1 or hosts_per_leaf < 1:
            raise TopologyError(
                "leaf-spine needs >= 2 leaves, >= 1 spine, >= 1 host/leaf")
        if link_capacity <= 0:
            raise TopologyError("link capacity must be positive")
        self.leaves = leaves
        self.spines = spines
        self.hosts_per_leaf = hosts_per_leaf
        self.link_capacity = link_capacity
        self.name = f"leaf-spine({leaves}x{spines})"

    @staticmethod
    def host_name(leaf: int, index: int) -> str:
        return f"h{leaf}_{index}"

    @staticmethod
    def leaf_name(j: int) -> str:
        return f"l{j}"

    @staticmethod
    def spine_name(m: int) -> str:
        return f"s{m}"

    def locate_host(self, host: str) -> tuple[int, int]:
        """Parse a host name back into ``(leaf, index)``."""
        try:
            if not host.startswith("h"):
                raise ValueError
            leaf, index = (int(part) for part in host[1:].split("_"))
        except ValueError:
            raise TopologyError(f"{host!r} is not a leaf-spine host name") \
                from None
        if not (0 <= leaf < self.leaves and 0 <= index < self.hosts_per_leaf):
            raise TopologyError(f"{host!r} is outside {self.name}")
        return leaf, index

    def attachment(self, host: str) -> str:
        """The leaf switch serving ``host``."""
        leaf, __ = self.locate_host(host)
        return self.leaf_name(leaf)

    def region_of(self, node: str) -> int | None:
        """The leaf-group index; ``None`` for spine switches.

        Hosts (``h{leaf}_{i}``) and leaf switches (``l{j}``) map to their
        leaf; spines interconnect every leaf and have no region.
        """
        if not node:
            return None
        try:
            if node[0] == "h":
                leaf = int(node[1:].split("_", 1)[0])
            elif node[0] == "l":
                leaf = int(node[1:])
            else:
                return None
        except ValueError:
            return None
        return leaf if 0 <= leaf < self.leaves else None

    def _build(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        cap = self.link_capacity

        def add_duplex(u: str, v: str) -> None:
            graph.add_edge(u, v, capacity=cap)
            graph.add_edge(v, u, capacity=cap)

        for m in range(self.spines):
            graph.add_node(self.spine_name(m), kind="spine")
        for j in range(self.leaves):
            leaf = self.leaf_name(j)
            graph.add_node(leaf, kind="edge")
            for m in range(self.spines):
                add_duplex(leaf, self.spine_name(m))
            for i in range(self.hosts_per_leaf):
                host = self.host_name(j, i)
                graph.add_node(host, kind="host")
                add_duplex(host, leaf)
        return graph

    def equal_cost_paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        if src == dst:
            raise TopologyError("src and dst hosts must differ")
        src_leaf, __ = self.locate_host(src)
        dst_leaf, __ = self.locate_host(dst)
        if src_leaf == dst_leaf:
            return [(src, self.leaf_name(src_leaf), dst)]
        return [(src, self.leaf_name(src_leaf), self.spine_name(m),
                 self.leaf_name(dst_leaf), dst)
                for m in range(self.spines)]

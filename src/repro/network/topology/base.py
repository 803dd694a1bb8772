"""Topology interface.

A topology builds the directed-capacity graph the :class:`Network` runs on and
knows how to enumerate candidate paths between hosts. Structured datacenter
topologies (Fat-Tree, leaf-spine) enumerate their equal-cost paths directly;
unstructured ones fall back to shortest-path search on the graph.
"""

from __future__ import annotations

import abc
import itertools

import networkx as nx

from repro.core.exceptions import TopologyError


class Topology(abc.ABC):
    """Builds a graph and enumerates candidate paths between hosts."""

    #: Human-readable topology name for reports.
    name: str = "topology"

    def __init__(self):
        self._graph: nx.DiGraph | None = None

    # ---------------------------------------------------------------- builds

    @abc.abstractmethod
    def _build(self) -> nx.DiGraph:
        """Construct the topology graph. Called once and cached."""

    def graph(self) -> nx.DiGraph:
        """The topology graph; built lazily, cached, and shared."""
        if self._graph is None:
            self._graph = self._build()
        return self._graph

    def network(self, **kwargs):
        """Convenience: build a :class:`~repro.network.network.Network`."""
        from repro.network.network import Network
        return Network(self.graph(), **kwargs)

    # ----------------------------------------------------------------- query

    def hosts(self) -> list[str]:
        return [n for n, d in self.graph().nodes(data=True)
                if d.get("kind") == "host"]

    def switches(self) -> list[str]:
        return [n for n, d in self.graph().nodes(data=True)
                if d.get("kind") != "host"]

    @abc.abstractmethod
    def equal_cost_paths(self, src: str, dst: str) -> list[tuple[str, ...]]:
        """All candidate paths from host ``src`` to host ``dst``.

        For structured topologies these are the equal-cost shortest paths;
        generic topologies may return a bounded set of short paths. Raises
        :class:`TopologyError` when either endpoint is not a host.
        """

    def attachment(self, host: str) -> str | None:
        """The switch ``host`` attaches to (its ingress switch), or ``None``.

        A topology that returns a switch here promises that every
        ``equal_cost_paths(src, dst)`` list is ``(src,) + T + (dst,)`` for
        interior tuples ``T`` that depend only on the pair
        ``(attachment(src), attachment(dst))``. The path provider then
        enumerates the fabric once per attachment pair and builds host-pair
        candidates by concatenation. Implementations raise
        :class:`TopologyError` for a node that is not a host, as
        ``equal_cost_paths`` would. The default ``None`` (unstructured
        topologies) makes the provider enumerate every host pair itself.
        """
        return None

    def region_of(self, node: str) -> int | None:
        """The topology region ``node`` belongs to, or ``None``.

        Regions are the topology's natural locality unit — the pod of a
        fat-tree, the leaf group of a leaf-spine fabric — and are the shard
        key of :class:`~repro.sched.shard.ShardedScheduler`: two events
        whose endpoints sit in different regions can be cost-probed
        independently because structured-topology paths only share the
        (stateless-at-probe-time) core tier. Unstructured topologies
        (jellyfish, custom graphs) have no such unit and return ``None``
        for every node; the sharder then falls back to a stable hash of
        the event's endpoints.
        """
        return None

    # --------------------------------------------------------------- helpers

    def _require_host(self, node: str) -> None:
        data = self.graph().nodes.get(node)
        if data is None or data.get("kind") != "host":
            raise TopologyError(f"{node!r} is not a host of {self.name}")

    def _search_paths(self, src: str, dst: str,
                      max_paths: int = 16) -> list[tuple[str, ...]]:
        """Shortest-path fallback used by unstructured topologies."""
        self._require_host(src)
        self._require_host(dst)
        try:
            gen = nx.all_shortest_paths(self.graph(), src, dst)
            return [tuple(p) for p in itertools.islice(gen, max_paths)]
        except nx.NetworkXNoPath:
            return []

"""Cached candidate-path lookup.

Planning probes the same host pairs over and over (every LMTF round replans
``α+1`` events against fresh state), so candidate paths per ``(src, dst)``
pair are computed once from the topology and cached — they depend only on the
graph, never on current utilization.

Structured fabrics share almost everything between host pairs: on a
fat-tree, every pair whose hosts hang off the same two edge switches has
the same interior hops. The provider therefore enumerates the topology once
per *attachment pair* (``Topology.attachment``) into a fabric template —
interior node tuples with their links and link indices — and derives a host
pair's candidates from it by adding the two host hops. Unstructured
topologies have no attachment, and the template is keyed on the host pair
itself; the code path is the same.

Cached paths are interned :class:`~repro.network.routing.candidate.
CandidatePath` objects: node tuples carrying their directed links and the
links' dense integer indices into the topology graph's
:class:`~repro.network.link.LinkTable`. Every consumer of
:meth:`PathProvider.paths` therefore feeds the integer-indexed state kernel
for free, and identity tests (``path is desired``) are sound because each
candidate exists exactly once per provider. Candidates are interned lazily,
one at a time (:meth:`PairRoutes.candidate`): the background loader scores a
pair's candidates on the template's link indices and materializes only the
one it picks, and :meth:`PathProvider.paths` later returns that same object.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterable, Sequence

from repro.core.exceptions import TopologyError
from repro.network.link import LinkId, LinkTable, is_simple_path, \
    link_table_for
from repro.network.routing.candidate import CandidatePath
from repro.network.topology.base import Topology


class _Template:
    """The fabric part of a pair's candidates, in enumeration order:
    interior node tuples (the path minus its two hosts), their links and
    link indices, and the nodes after and before the two hosts (``firsts``
    and ``lasts``; the other host when the interior is empty)."""

    __slots__ = ("interiors", "links", "link_idx", "firsts", "lasts")

    def __init__(self, paths: Sequence[Sequence[str]], table: LinkTable):
        self.interiors = tuple(tuple(path[1:-1]) for path in paths)
        self.links: tuple[tuple[LinkId, ...], ...] = tuple(
            tuple(zip(nodes[:-1], nodes[1:])) for nodes in self.interiors)
        self.link_idx: tuple[tuple[int, ...], ...] = tuple(
            _indices(table, links) for links in self.links)
        self.firsts = tuple(path[1] for path in paths)
        self.lasts = tuple(path[-2] for path in paths)


def _indices(table: LinkTable, links: Iterable[LinkId]) -> tuple[int, ...]:
    try:
        return tuple(map(table.index.__getitem__, links))
    except KeyError as exc:
        raise ValueError(f"candidate path uses link {exc.args[0]!r} absent "
                         f"from the link table") from None


class PairRoutes:
    """One host pair's candidates, as a template plus two host hops.

    ``up_idx[k]``/``down_idx[k]`` are the link indices of candidate ``k``'s
    first and last hop and ``inner_idx[k]`` those of its interior, so a
    caller can score every candidate on the state columns without building
    any. Candidates are interned on first request. A two-node candidate
    (hosts linked directly) has an empty interior and its one link as both
    first and last hop.
    """

    __slots__ = ("src", "dst", "_template", "_table", "up_idx", "down_idx",
                 "_interned", "_all")

    def __init__(self, src: str, dst: str, template: _Template,
                 table: LinkTable):
        self.src = src
        self.dst = dst
        self._template = template
        self._table = table
        self.up_idx = _indices(table, zip(repeat(src), template.firsts))
        self.down_idx = _indices(table, zip(template.lasts, repeat(dst)))
        self._interned: list[CandidatePath | None] = \
            [None] * len(self.up_idx)
        self._all: tuple[CandidatePath, ...] | None = None

    @property
    def inner_idx(self) -> tuple[tuple[int, ...], ...]:
        """Interior link indices of every candidate, in order."""
        return self._template.link_idx

    def candidate(self, k: int) -> CandidatePath:
        """The interned ``k``-th candidate (built on first request)."""
        path = self._interned[k]
        if path is None:
            template, ids = self._template, self._table.ids
            up, down = self.up_idx[k], self.down_idx[k]
            interior = template.interiors[k]
            if interior:
                links = (ids[up],) + template.links[k] + (ids[down],)
                link_idx = (up,) + template.link_idx[k] + (down,)
            else:
                links, link_idx = (ids[up],), (up,)
            path = CandidatePath.assemble(
                (self.src,) + interior + (self.dst,), links, link_idx,
                self._table)
            self._interned[k] = path
        return path

    def paths(self) -> tuple[CandidatePath, ...]:
        """Every candidate, interned, in enumeration order (one tuple
        object per pair)."""
        if self._all is None:
            self._all = tuple(map(self.candidate, range(len(self.up_idx))))
        return self._all


class PathProvider:
    """Memoizes a topology's candidate paths per host pair.

    Args:
        topology: the topology whose ``equal_cost_paths`` to memoize.
        max_paths: optional cap on candidate paths per pair; ``None`` keeps
            everything the topology enumerates (16 for fat-tree k=8).
        banned_nodes: nodes no returned path may traverse — used e.g. during
            a switch upgrade, where new paths must avoid the switch being
            taken down.
    """

    def __init__(self, topology: Topology, max_paths: int | None = None,
                 banned_nodes: frozenset[str] | set[str] = frozenset()):
        if max_paths is not None and max_paths <= 0:
            raise ValueError("max_paths must be positive or None")
        self._topology = topology
        self._max_paths = max_paths
        self._banned = frozenset(banned_nodes)
        self._table: LinkTable | None = None
        self._attachments: dict[str, str | None] = {}
        self._templates: dict[tuple[str, str], _Template] = {}
        self._pairs: dict[tuple[str, str], PairRoutes] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    def link_table(self) -> LinkTable:
        """The link table every candidate's ``link_idx`` refers to."""
        if self._table is None:
            self._table = link_table_for(self._topology.graph())
        return self._table

    def routes(self, src: str, dst: str) -> PairRoutes:
        """The cached :class:`PairRoutes` of ``(src, dst)``.

        Raises:
            TopologyError: no path exists between the hosts.
        """
        routes = self._pairs.get((src, dst))
        if routes is None:
            template = self._template(src, dst)
            if (not template.interiors or src in self._banned
                    or dst in self._banned):
                raise TopologyError(f"no path from {src!r} to {dst!r} in "
                                    f"{self._topology.name}")
            routes = PairRoutes(src, dst, template, self.link_table())
            self._pairs[(src, dst)] = routes
        return routes

    def _attachment(self, host: str) -> str | None:
        if host not in self._attachments:
            self._attachments[host] = self._topology.attachment(host)
        return self._attachments[host]

    def _template(self, src: str, dst: str) -> _Template:
        first, last = self._attachment(src), self._attachment(dst)
        if first is None or last is None:
            key = (src, dst)
        elif src == dst:
            raise TopologyError("src and dst hosts must differ")
        else:
            key = (first, last)
        template = self._templates.get(key)
        if template is None:
            found = self._topology.equal_cost_paths(src, dst)
            for path in found:
                if not is_simple_path(path):
                    raise ValueError(f"candidate path {tuple(path)!r} is "
                                     f"not a simple path")
            if self._banned:
                found = [path for path in found
                         if not self._banned.intersection(path[1:-1])]
            if self._max_paths is not None:
                found = found[:self._max_paths]
            template = _Template(found, self.link_table())
            self._templates[key] = template
        return template

    def paths(self, src: str, dst: str) -> tuple[CandidatePath, ...]:
        """All candidate paths from ``src`` to ``dst`` (cached, interned).

        Raises:
            TopologyError: no path exists between the hosts.
        """
        return self.routes(src, dst).paths()

    def candidates(self, src: str, dst: str) -> tuple[CandidatePath, ...]:
        """Alias of :meth:`paths`, named for what it returns: the interned
        :class:`CandidatePath` objects with precomputed ``links``/
        ``link_set``/``link_idx`` — call sites should iterate these instead
        of re-deriving ``path_links``."""
        return self.paths(src, dst)

    def shuffled_paths(self, src: str, dst: str,
                       rng: random.Random) -> list[CandidatePath]:
        """Candidate paths in a random order (ECMP-style tie breaking).

        Shuffling the *copy* keeps the cache order stable.
        """
        shuffled = list(self.paths(src, dst))
        rng.shuffle(shuffled)
        return shuffled

    def cache_size(self) -> int:
        """How many host pairs have cached routes."""
        return len(self._pairs)

    def warm(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Pre-populate the cache for a known set of host pairs.

        Duplicate pairs are collapsed first; sweep drivers hand over raw
        trace endpoints, which repeat heavily.
        """
        for src, dst in dict.fromkeys(pairs):
            self.paths(src, dst)

"""Interned candidate paths with precomputed link data.

Every LMTF/P-LMTF round probes the same ``(src, dst)`` candidate sets over
and over, and each probe used to re-derive the path's links (``zip`` of the
node tuple), re-hash string-pair link ids, and re-build frozensets for
overlap tests. A :class:`CandidatePath` is produced **once** per candidate
by :class:`~repro.network.routing.provider.PathProvider` and carries that
precomputed:

* ``links`` — the directed links, in order (what :func:`path_links` returns),
* ``link_idx`` — the links as dense integer indices into the topology
  graph's :class:`~repro.network.link.LinkTable`, the representation the
  integer-indexed state kernel iterates,
* ``link_set`` — the same links as a frozenset, for overlap/membership
  tests; built on first read (only the migration planner needs it).

A :class:`CandidatePath` *is* a tuple of node names, so every existing call
site — ``path[0]``, ``len(path)``, equality against plain node tuples,
``Placement(path=...)`` — keeps working unchanged; the kernel's fast paths
activate by recognizing the extra attributes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from repro.network.link import LinkId, LinkTable, is_simple_path


class CandidatePath(tuple):
    """A node tuple with precomputed ``links``/``link_idx`` (and a lazily
    built ``link_set``).

    Attributes:
        links: directed links traversed, in order.
        link_idx: integer link indices into ``table``, or ``None`` when the
            path was built without a table (the kernel then falls back to
            string-keyed reads).
        table: the :class:`LinkTable` the indices are valid against; fast
            paths check ``path.table is state's table`` before trusting
            ``link_idx``, so a path is never silently misread against a
            network from a different graph.
    """

    links: tuple[LinkId, ...]
    link_idx: tuple[int, ...] | None
    table: LinkTable | None

    @classmethod
    def make(cls, nodes: Sequence[str],
             table: LinkTable | None = None) -> "CandidatePath":
        """Build a candidate path, baking indices when ``table`` is given.

        Raises:
            ValueError: ``nodes`` is not a simple path or, with a table,
                uses a link absent from it — candidate paths come from the
                topology's own enumeration, so either means a provider bug.
        """
        if not is_simple_path(nodes):
            raise ValueError(f"candidate path {tuple(nodes)!r} is not a "
                             f"simple path")
        links = tuple(zip(nodes[:-1], nodes[1:]))
        link_idx = None
        if table is not None:
            index = table.index
            try:
                link_idx = tuple(index[link] for link in links)
            except KeyError as exc:
                raise ValueError(f"candidate path {tuple(nodes)!r} uses "
                                 f"link {exc.args[0]!r} absent from the "
                                 f"link table") from None
        return cls.assemble(nodes, links, link_idx, table)

    @classmethod
    def assemble(cls, nodes: Sequence[str], links: tuple[LinkId, ...],
                 link_idx: tuple[int, ...] | None,
                 table: LinkTable | None) -> "CandidatePath":
        """Build from parts the caller has already validated."""
        path = cls(nodes)
        path.links = links
        path.link_idx = link_idx
        path.table = table
        return path

    @cached_property
    def link_set(self) -> frozenset[LinkId]:
        """``frozenset(links)``, built on first read."""
        return frozenset(self.links)

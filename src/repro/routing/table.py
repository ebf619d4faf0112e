"""Deterministic table-based routing.

Section 4.5 of the paper generates a routing table as a by-product of the
topology synthesis: each node stores, for every destination it needs to talk
to, the neighbour it must forward packets to, derived from the primitives'
optimal schedules.  This module holds the table abstraction itself; the
table *construction* lives in :mod:`repro.core.routing_table` (synthesis) and
:mod:`repro.routing.policies` (the standard fabrics, XY on the mesh baseline).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field

from repro.arch.topology import Topology
from repro.exceptions import RoutingError

NodeId = Hashable


@dataclass
class RoutingTable:
    """Next-hop table: ``(current_router, destination) -> next router``."""

    topology: Topology
    _next_hop: dict[tuple[NodeId, NodeId], NodeId] = field(default_factory=dict)
    _version: int = 0
    """Mutation counter: bumped by every accepted :meth:`set_next_hop` (and
    therefore by :meth:`install_path`/:meth:`merge`), so consumers holding a
    :meth:`frozen_next_hop` snapshot can detect that it has gone stale."""

    @property
    def version(self) -> int:
        """Monotonic mutation counter (see :meth:`frozen_next_hop`)."""
        return self._version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def set_next_hop(self, router: NodeId, destination: NodeId, next_hop: NodeId) -> None:
        """Record one table entry; the hop must be an existing channel."""
        if not self.topology.has_router(router):
            raise RoutingError(f"unknown router {router!r}")
        if not self.topology.has_router(destination):
            raise RoutingError(f"unknown destination {destination!r}")
        if not self.topology.has_channel(router, next_hop):
            raise RoutingError(
                f"cannot forward from {router!r} to {next_hop!r}: no such channel"
            )
        existing = self._next_hop.get((router, destination))
        if existing is not None and existing != next_hop:
            raise RoutingError(
                f"conflicting next hops for ({router!r} -> {destination!r}): "
                f"{existing!r} vs {next_hop!r}"
            )
        if existing is None:
            self._next_hop[(router, destination)] = next_hop
            self._version += 1

    def install_path(self, path: Iterable[NodeId]) -> None:
        """Install the entries implied by a full source→destination path."""
        nodes = list(path)
        if len(nodes) < 2:
            return
        destination = nodes[-1]
        for current, upcoming in zip(nodes, nodes[1:]):
            self.set_next_hop(current, destination, upcoming)

    def merge(self, other: "RoutingTable") -> None:
        """Merge entries from another table over the same topology."""
        for (router, destination), next_hop in other._next_hop.items():
            self.set_next_hop(router, destination, next_hop)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def next_hop(self, router: NodeId, destination: NodeId) -> NodeId:
        if router == destination:
            raise RoutingError("a packet at its destination needs no next hop")
        try:
            return self._next_hop[(router, destination)]
        except KeyError as error:
            raise RoutingError(
                f"router {router!r} has no route towards {destination!r}"
            ) from error

    def has_route(self, router: NodeId, destination: NodeId) -> bool:
        return router == destination or (router, destination) in self._next_hop

    def frozen_next_hop(self) -> "Callable[[NodeId, NodeId], NodeId]":
        """Snapshot the table into a flat, validation-free routing function.

        The returned callable answers from a plain dict copied at freeze
        time — no topology lookups, no attribute chases — which is what the
        simulator engines want as their routing source.  Later mutations of
        this table are deliberately not visible through the snapshot: a
        frozen function is a point-in-time copy, and consumers that mutate
        the table afterwards must re-freeze.  A
        :class:`~repro.noc.simulator.NoCSimulator` keeps the routing
        function it was built with, so to route differently, build a new
        simulator.  The snapshot carries the table's :attr:`version` at
        freeze time as ``table_version`` and whether it has gone stale is
        ``table.version != frozen.table_version``.  Raises the same
        :class:`RoutingError` messages as :meth:`next_hop` for missing
        entries.
        """
        entries = dict(self._next_hop)

        def next_hop(router: NodeId, destination: NodeId) -> NodeId:
            try:
                return entries[(router, destination)]
            except KeyError:
                if router == destination:
                    raise RoutingError(
                        "a packet at its destination needs no next hop"
                    ) from None
                raise RoutingError(
                    f"router {router!r} has no route towards {destination!r}"
                ) from None

        next_hop.table_version = self._version  # type: ignore[attr-defined]
        return next_hop

    def route(self, source: NodeId, destination: NodeId, max_hops: int | None = None) -> list[NodeId]:
        """Follow the table from ``source`` to ``destination``; detect loops."""
        if max_hops is None:
            max_hops = 4 * max(self.topology.num_routers, 1)
        path = [source]
        current = source
        while current != destination:
            current = self.next_hop(current, destination)
            path.append(current)
            if len(path) > max_hops:
                raise RoutingError(
                    f"routing loop detected while going from {source!r} to {destination!r}: {path}"
                )
        return path

    def entries(self) -> dict[tuple[NodeId, NodeId], NodeId]:
        return dict(self._next_hop)

    @property
    def num_entries(self) -> int:
        return len(self._next_hop)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_pairs(self, pairs: Iterable[tuple[NodeId, NodeId]]) -> None:
        """Check that every (source, destination) pair is fully routable."""
        problems: list[str] = []
        for source, destination in pairs:
            try:
                self.route(source, destination)
            except RoutingError as error:
                problems.append(str(error))
        if problems:
            raise RoutingError("routing table incomplete: " + "; ".join(problems))

    def describe(self) -> str:
        lines = [f"Routing table for {self.topology.name!r} ({self.num_entries} entries)"]
        for (router, destination), next_hop in sorted(
            self._next_hop.items(), key=lambda item: (repr(item[0][0]), repr(item[0][1]))
        ):
            lines.append(f"  at {router!r}: to {destination!r} via {next_hop!r}")
        return "\n".join(lines)

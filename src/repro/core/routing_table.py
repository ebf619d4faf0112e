"""Routing-table generation from a decomposition (Section 4.5).

The optimal schedules of the library primitives tell every node how its
messages reach nodes it is not directly connected to inside the primitive
(e.g. on MGG-4, node 1 reaches node 4 through node 3).  The synthesis flow
replays those internal routes — expressed in core identifiers by the
matchings — and installs them into a destination-indexed next-hop table.
Remainder edges become direct single-hop routes.  Only the application's
traffic is routed: a synthesized fabric may be one-way, so the table is not
a total routing function.

Because several primitives may pass traffic for the same destination through
the same intermediate router, naive installation could create conflicting
entries.  Flows are therefore installed *weakly*: while walking a flow's
route, if the current router already knows a next hop for the destination,
the flow defers to that entry (which, having been installed from a complete
route, is guaranteed to reach the destination).  This keeps the table a
consistent destination-based function while preserving the schedule-derived
routes wherever possible.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.arch.topology import Topology
from repro.core.decomposition import DecompositionResult
from repro.exceptions import RoutingError
from repro.routing.shortest_path import bfs_shortest_path
from repro.routing.table import RoutingTable

NodeId = Hashable


def install_flow_weakly(
    table: RoutingTable, path: Sequence[NodeId], max_hops: int | None = None
) -> list[NodeId]:
    """Install a flow's route, deferring to existing entries on conflicts.

    Returns the route the flow will actually follow according to the final
    table (which may deviate from ``path`` after the first conflicting
    router).
    """
    nodes = list(path)
    if len(nodes) < 2:
        return nodes
    destination = nodes[-1]
    topology = table.topology
    if max_hops is None:
        max_hops = 4 * max(topology.num_routers, 1)

    actual = [nodes[0]]
    current = nodes[0]
    planned_index = 0
    while current != destination:
        if table.has_route(current, destination) and current != destination:
            next_hop = table.next_hop(current, destination)
        else:
            # follow the planned path from this router onwards
            try:
                planned_index = nodes.index(current, planned_index)
                next_hop = nodes[planned_index + 1]
            except (ValueError, IndexError):
                # the flow deviated from the planned path; fall back to a
                # shortest path from here to the destination
                fallback = bfs_shortest_path(topology, current, destination)
                next_hop = fallback[1]
            table.set_next_hop(current, destination, next_hop)
        current = next_hop
        actual.append(current)
        if len(actual) > max_hops:
            raise RoutingError(
                f"flow towards {destination!r} does not converge: {actual}"
            )
    return actual


def build_routing_table(decomposition: DecompositionResult, topology: Topology) -> RoutingTable:
    """Build the destination-based routing table for a synthesized topology.

    ``decomposition``'s matchings define the schedule-derived routes;
    ``topology`` must contain every channel the routes use.
    """
    table = RoutingTable(topology)

    # 1. schedule-derived routes for every covered application edge
    for matching in decomposition.matchings:
        for (source, target), route in sorted(
            matching.routes_in_cores().items(), key=lambda item: (repr(item[0][0]), repr(item[0][1]))
        ):
            install_flow_weakly(table, route)

    # 2. direct routes for the remainder (point-to-point) edges
    for source, target in decomposition.remainder.edges():
        install_flow_weakly(table, (source, target))

    return table

"""Shortest-path computations over topologies.

Used to (a) fill routing tables for source/destination pairs that the
decomposition's schedules do not cover, (b) compute minimal routes inside
primitive implementation graphs, and (c) derive hop-count metrics.  Paths are
deterministic: ties are broken by the insertion order of routers/channels so
that repeated runs produce identical routing tables.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.arch.topology import Topology
from repro.exceptions import RoutingError

NodeId = Hashable


def bfs_shortest_path(topology: Topology, source: NodeId, target: NodeId) -> list[NodeId]:
    """Minimum-hop path from ``source`` to ``target`` (inclusive of both)."""
    if not topology.has_router(source):
        raise RoutingError(f"unknown source router {source!r}")
    if not topology.has_router(target):
        raise RoutingError(f"unknown target router {target!r}")
    if source == target:
        return [source]
    parents: dict[NodeId, NodeId] = {}
    visited = {source}
    queue: deque[NodeId] = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors_out(node):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            parents[neighbor] = node
            if neighbor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(neighbor)
    raise RoutingError(f"no route from {source!r} to {target!r} in {topology.name!r}")


def all_pairs_shortest_paths(topology: Topology) -> dict[tuple[NodeId, NodeId], list[NodeId]]:
    """Minimum-hop paths between every ordered pair of routers."""
    return {
        (source, target): bfs_shortest_path(topology, source, target)
        for source in topology.routers()
        for target in topology.routers()
        if source != target
    }

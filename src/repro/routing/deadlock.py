"""Deadlock analysis via the channel dependency graph (CDG).

Section 4.5 of the paper notes that "the cycles that can cause deadlock can
be detected and avoided by the algorithm, while it is also possible to
eliminate such cycles by introducing virtual channels".  The standard theory
(Dally & Seitz) says a deterministic routing function is deadlock-free iff
its channel dependency graph is acyclic: the CDG has one vertex per physical
channel and an edge from channel ``c1`` to channel ``c2`` whenever some
packet may hold ``c1`` while requesting ``c2`` (i.e. the routing function
forwards traffic arriving over ``c1`` onto ``c2``).

This module builds the CDG from a routing table and a set of traffic pairs,
detects cycles, and computes the minimum set of channels that need an extra
virtual channel to break every cycle (greedy feedback-edge heuristic).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from repro.core.graph import DiGraph
from repro.routing.table import RoutingTable

NodeId = Hashable
ChannelId = tuple[NodeId, NodeId]


def build_channel_dependency_graph(
    table: RoutingTable, pairs: Iterable[tuple[NodeId, NodeId]]
) -> DiGraph:
    """CDG induced by routing the given source/destination pairs."""
    cdg = DiGraph(name=f"cdg({table.topology.name})")
    for source, destination in pairs:
        if source == destination:
            continue
        path = table.route(source, destination)
        channels = list(zip(path, path[1:]))
        for channel in channels:
            cdg.add_node(channel, exist_ok=True)
        for held, requested in zip(channels, channels[1:]):
            if held != requested:
                cdg.add_edge(held, requested, exist_ok=True)
    return cdg


@dataclass(frozen=True)
class DeadlockReport:
    """Outcome of a deadlock analysis."""

    is_deadlock_free: bool
    cycle: tuple[ChannelId, ...]
    num_channels: int
    num_dependencies: int
    channels_needing_virtual_channels: tuple[ChannelId, ...] = ()

    def describe(self) -> str:
        if self.is_deadlock_free:
            return (
                f"deadlock-free: {self.num_channels} channels, "
                f"{self.num_dependencies} dependencies, no cycles"
            )
        cycle_text = " -> ".join(f"{c[0]}->{c[1]}" for c in self.cycle)
        return (
            f"NOT deadlock-free: cycle [{cycle_text}]; "
            f"{len(self.channels_needing_virtual_channels)} channel(s) need a virtual channel"
        )


def _feedback_channels(cdg: DiGraph) -> list[ChannelId]:
    """Greedy feedback-edge set: channels whose duplication breaks all cycles.

    Repeatedly find a cycle and remove the dependency edge leaving the
    highest-out-degree vertex on it; the *target* channel of that edge is the
    one that receives a virtual channel.
    """
    working = cdg.copy()
    chosen: list[ChannelId] = []
    while True:
        cycle = working.find_cycle()
        if cycle is None:
            return chosen
        # pick the dependency edge on the cycle whose source has max out-degree
        edges_on_cycle = list(zip(cycle, cycle[1:] + cycle[:1]))
        edges_on_cycle = [(a, b) for a, b in edges_on_cycle if working.has_edge(a, b)]
        if not edges_on_cycle:  # pragma: no cover - defensive
            return chosen
        source, target = max(edges_on_cycle, key=lambda e: working.out_degree(e[0]))
        working.remove_edge(source, target)
        chosen.append(target)


def analyze_deadlock(
    table: RoutingTable,
    pairs: Iterable[tuple[NodeId, NodeId]],
) -> DeadlockReport:
    """Analyse a routing table for deadlock freedom on the given traffic pairs."""
    pairs = list(pairs)
    cdg = build_channel_dependency_graph(table, pairs)
    cycle = cdg.find_cycle()
    if cycle is None:
        return DeadlockReport(
            is_deadlock_free=True,
            cycle=(),
            num_channels=cdg.num_nodes,
            num_dependencies=cdg.num_edges,
        )
    return DeadlockReport(
        is_deadlock_free=False,
        cycle=tuple(cycle),
        num_channels=cdg.num_nodes,
        num_dependencies=cdg.num_edges,
        channels_needing_virtual_channels=tuple(_feedback_channels(cdg)),
    )

"""The network fabric: routers wired according to a topology.

:class:`Network` owns the :class:`~repro.noc.router.Router` instances, the
channel occupancy state and the in-flight packets; the cycle loop itself
lives in :mod:`repro.noc.simulator`.  Routing is pluggable: any callable
``route(current, destination) -> next_hop`` works, so the same fabric runs
the mesh baseline (XY routing) and the synthesized customized topologies
(table routing from the decomposition's schedules).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.packet import Packet
from repro.noc.router import InputBuffer, Router

NodeId = Hashable
RoutingFunction = Callable[[NodeId, NodeId], NodeId]


class Network:
    """Routers + channels + in-flight packets for one architecture."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingFunction,
        buffer_capacity_packets: int = 4,
        pipeline_delay_cycles: int = 1,
    ) -> None:
        self.topology = topology
        self._routing = routing
        self.route_cache: dict[tuple[NodeId, NodeId], NodeId] = {}
        """Resolved, channel-validated ``(node, destination) -> next hop``
        decisions (:meth:`next_hop` fills it; the simulator reads it)."""
        self.buffer_capacity_packets = buffer_capacity_packets
        self.pipeline_delay_cycles = pipeline_delay_cycles
        self.routers: dict[NodeId, Router] = {
            node: Router(
                node,
                buffer_capacity_packets=buffer_capacity_packets,
                pipeline_delay_cycles=pipeline_delay_cycles,
            )
            for node in topology.routers()
        }
        self.channel_free_at: dict[tuple[NodeId, NodeId], int] = {}
        self.downstream: dict[tuple[NodeId, NodeId], InputBuffer] = {}
        """Per channel ``(source, target)``: the input buffer at ``target``
        that the channel feeds -- the buffer whose space gates a launch
        over the channel and an arrival off it."""
        self._wire_channels()
        self.in_flight: list[tuple[int, int, Packet, tuple[NodeId, NodeId]]] = []
        """Packets traversing a channel: a heap of ``(arrival cycle, launch
        sequence, packet, channel)``.  The simulator launches onto it and
        delivers off it; the sequence keeps a channel's packets in launch
        order when a full-buffer retry and a later launch fall due on the
        same cycle."""

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def router(self, node: NodeId) -> Router:
        try:
            return self.routers[node]
        except KeyError as error:
            raise SimulationError(f"no router {node!r} in the network") from error

    @property
    def routing(self) -> RoutingFunction:
        return self._routing

    @routing.setter
    def routing(self, routing: RoutingFunction) -> None:
        """Swap the routing function, dropping every memoized decision."""
        self._routing = routing
        self.route_cache.clear()

    def sync_topology(self) -> None:
        """Re-wire the fabric after the topology gained routers or channels.

        Router instances, downstream input ports, channel occupancy state
        and the :attr:`downstream` map are all materialized at
        construction, and :meth:`next_hop` memoizes routing decisions
        validated against the *then-current* channel set — so a channel
        (or router) added to the topology afterwards is invisible: packets
        routed over it would find no downstream buffer, and a memoized
        decision that predates the mutation would keep winning even when
        the new channel makes it stale.  Call this after any
        post-construction topology mutation; it wires the new elements in
        and drops every memoized routing decision.  When the network is
        owned by a :class:`~repro.noc.simulator.NoCSimulator`, call the
        simulator's ``sync_topology()`` instead — it delegates
        here and also refreshes the engine's own per-router bookkeeping,
        which a new *router* needs.  (A frozen
        :meth:`~repro.routing.table.RoutingTable.frozen_next_hop` snapshot
        is a deliberate point-in-time copy: re-freeze the table and assign
        :attr:`routing` to pick up new table entries.)
        """
        for node in self.topology.routers():
            if node not in self.routers:
                self.routers[node] = Router(
                    node,
                    buffer_capacity_packets=self.buffer_capacity_packets,
                    pipeline_delay_cycles=self.pipeline_delay_cycles,
                )
        self._wire_channels()
        self.route_cache.clear()

    def _wire_channels(self) -> None:
        """Give every channel its downstream input port, occupancy slot and
        :attr:`downstream` entry (existing ones are left untouched)."""
        for channel in self.topology.channels():
            key = (channel.source, channel.target)
            router = self.routers[channel.target]
            router.add_input_port(channel.source)
            self.channel_free_at.setdefault(key, 0)
            self.downstream[key] = router.buffer(channel.source)

    def next_hop(self, current: NodeId, destination: NodeId) -> NodeId:
        """The (memoized) routing decision for a packet at ``current``.

        Routing functions must be deterministic and stateless in
        ``(current, destination)`` — every routing adapter in the library is
        — so each decision is resolved and channel-validated once and then
        served from a flat per-pair table, instead of re-invoking the
        routing closure for every nomination of every cycle.
        """
        key = (current, destination)
        cached = self.route_cache.get(key)
        if cached is not None:
            return cached
        next_hop = self._routing(current, destination)
        if not self.topology.has_channel(current, next_hop):
            raise SimulationError(
                f"routing function returned {next_hop!r} from {current!r} towards "
                f"{destination!r}, but that channel does not exist"
            )
        self.route_cache[key] = next_hop
        return next_hop

    def stuck_packets(self) -> list[tuple[Packet, NodeId]]:
        """Every undelivered packet with the router it is at (or flying to).

        Used by the drain-budget error so routing-loop and deadlock triage
        can name the culprits (id, position, destination, hops so far)
        without a debugger.  Sorted by packet id for stable messages.
        """
        stuck: list[tuple[Packet, NodeId]] = []
        for node, router in self.routers.items():
            for port in router.ports():
                for packet in router.buffer(port).queue:
                    stuck.append((packet, node))
        for _, _, packet, (_, downstream) in self.in_flight:
            stuck.append((packet, downstream))
        stuck.sort(key=lambda item: item[0].packet_id)
        return stuck

    def channel_length_mm(self, source: NodeId, target: NodeId) -> float:
        return self.topology.channel(source, target).length_mm

"""Network topology abstraction shared by the mesh baseline and the
customized architectures produced by the synthesis flow.

A :class:`Topology` is the physical view of the network: routers (one per
core), their die positions, and directed channels between them.  Each channel
carries a physical length (for link energy), a width and a bandwidth
capacity, which are what the constraint checks of Section 4.2 compare against
the application's requirements.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from dataclasses import dataclass

from repro.core.graph import CorePosition
from repro.exceptions import GraphError, NodeNotFoundError, SynthesisError

NodeId = Hashable


@dataclass
class Channel:
    """A directed physical channel (link) between two routers.

    Attributes
    ----------
    length_mm:
        Physical length of the wires, used for link energy.
    width_bits:
        Flit width (number of parallel wires).
    bandwidth_bits_per_cycle:
        Capacity used by the bandwidth constraint check; defaults to the
        width (one flit per cycle).
    """

    source: NodeId
    target: NodeId
    length_mm: float = 1.0
    width_bits: int = 32
    bandwidth_bits_per_cycle: float | None = None

    def __post_init__(self) -> None:
        if self.length_mm < 0:
            raise SynthesisError("channel length must be non-negative")
        if self.width_bits <= 0:
            raise SynthesisError("channel width must be positive")
        if self.bandwidth_bits_per_cycle is None:
            self.bandwidth_bits_per_cycle = float(self.width_bits)

    @property
    def key(self) -> tuple[NodeId, NodeId]:
        return (self.source, self.target)


class Topology:
    """Routers + directed channels + optional die positions."""

    def __init__(self, name: str = "topology", flit_width_bits: int = 32) -> None:
        self.name = name
        self.flit_width_bits = flit_width_bits
        self._routers: dict[NodeId, dict] = {}
        self._channels: dict[tuple[NodeId, NodeId], Channel] = {}
        self._positions: dict[NodeId, CorePosition] = {}

    # ------------------------------------------------------------------
    # routers
    # ------------------------------------------------------------------
    def add_router(self, node: NodeId, x: float | None = None, y: float | None = None) -> None:
        if node in self._routers:
            if x is not None and y is not None:
                self._positions[node] = CorePosition(float(x), float(y))
            return
        self._routers[node] = {}
        if x is not None and y is not None:
            self._positions[node] = CorePosition(float(x), float(y))

    def routers(self) -> list[NodeId]:
        return list(self._routers)

    def has_router(self, node: NodeId) -> bool:
        return node in self._routers

    @property
    def num_routers(self) -> int:
        return len(self._routers)

    def position(self, node: NodeId) -> CorePosition:
        if node not in self._positions:
            raise NodeNotFoundError(node)
        return self._positions[node]

    def has_position(self, node: NodeId) -> bool:
        return node in self._positions

    def distance(self, source: NodeId, target: NodeId) -> float:
        """Manhattan distance between two routers (requires positions)."""
        return self.position(source).manhattan_distance(self.position(target))

    # ------------------------------------------------------------------
    # channels
    # ------------------------------------------------------------------
    def add_channel(
        self,
        source: NodeId,
        target: NodeId,
        length_mm: float | None = None,
        width_bits: int | None = None,
        bandwidth_bits_per_cycle: float | None = None,
        bidirectional: bool = False,
    ) -> Channel:
        """Add a directed channel; optionally also the opposite direction.

        Adding an already existing channel is idempotent and returns the
        existing object (customized topologies frequently re-derive the same
        physical link from several matchings).
        """
        if source == target:
            raise GraphError("a channel cannot connect a router to itself")
        self.add_router(source)
        self.add_router(target)
        if length_mm is None:
            length_mm = (
                self.distance(source, target)
                if self.has_position(source) and self.has_position(target)
                else 1.0
            )
        key = (source, target)
        if key not in self._channels:
            self._channels[key] = Channel(
                source=source,
                target=target,
                length_mm=length_mm,
                width_bits=width_bits or self.flit_width_bits,
                bandwidth_bits_per_cycle=bandwidth_bits_per_cycle,
            )
        if bidirectional:
            self.add_channel(
                target,
                source,
                length_mm=length_mm,
                width_bits=width_bits,
                bandwidth_bits_per_cycle=bandwidth_bits_per_cycle,
                bidirectional=False,
            )
        return self._channels[key]

    def channel(self, source: NodeId, target: NodeId) -> Channel:
        try:
            return self._channels[(source, target)]
        except KeyError as error:
            raise SynthesisError(f"no channel {source!r} -> {target!r} in {self.name!r}") from error

    def has_channel(self, source: NodeId, target: NodeId) -> bool:
        return (source, target) in self._channels

    def channels(self) -> list[Channel]:
        return list(self._channels.values())

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    @property
    def num_physical_links(self) -> int:
        """Bidirectional channel pairs count as a single physical link."""
        seen: set[frozenset[NodeId]] = set()
        for source, target in self._channels:
            seen.add(frozenset((source, target)))
        return len(seen)

    def neighbors_out(self, node: NodeId) -> list[NodeId]:
        if node not in self._routers:
            raise NodeNotFoundError(node)
        return [target for (source, target) in self._channels if source == node]

    def neighbors_in(self, node: NodeId) -> list[NodeId]:
        if node not in self._routers:
            raise NodeNotFoundError(node)
        return [source for (source, target) in self._channels if target == node]

    def degree(self, node: NodeId) -> int:
        """Router degree counted in physical (undirected) links."""
        if node not in self._routers:
            raise NodeNotFoundError(node)
        links = {frozenset((s, t)) for (s, t) in self._channels if s == node or t == node}
        return len(links)

    def max_degree(self) -> int:
        return max((self.degree(node) for node in self._routers), default=0)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def signature(self) -> dict[str, object]:
        """Canonical structural identity of the fabric (interchange contract).

        Routers, positions and channel attributes with node ids stringified
        and orders canonicalized — the topology analogue of
        :meth:`repro.dse.pipeline.Scenario.structural_fingerprint`.  The
        :mod:`repro.io` round-trip guarantee is exactly that exporting a
        topology to any registered format and re-importing it preserves
        this signature (the display name and the concrete Python node
        types are allowed to change; the fabric is not).
        """
        positions = {
            str(node): (position.x, position.y)
            for node, position in self._positions.items()
        }
        return {
            "flit_width_bits": int(self.flit_width_bits),
            "routers": sorted(str(node) for node in self._routers),
            "positions": {key: positions[key] for key in sorted(positions)},
            "channels": sorted(
                (
                    str(channel.source),
                    str(channel.target),
                    float(channel.length_mm),
                    int(channel.width_bits),
                    float(channel.bandwidth_bits_per_cycle),
                )
                for channel in self._channels.values()
            ),
        }

    def total_wire_length_mm(self) -> float:
        """Total physical wire length (each bidirectional pair counted once)."""
        seen: set[frozenset[NodeId]] = set()
        total = 0.0
        for channel in self._channels.values():
            link = frozenset((channel.source, channel.target))
            if link in seen:
                continue
            seen.add(link)
            total += channel.length_mm
        return total

    def copy(self) -> "Topology":
        clone = Topology(name=self.name, flit_width_bits=self.flit_width_bits)
        for node in self._routers:
            position = self._positions.get(node)
            if position is not None:
                clone.add_router(node, position.x, position.y)
            else:
                clone.add_router(node)
        for channel in self._channels.values():
            clone.add_channel(
                channel.source,
                channel.target,
                length_mm=channel.length_mm,
                width_bits=channel.width_bits,
                bandwidth_bits_per_cycle=channel.bandwidth_bits_per_cycle,
            )
        return clone

    def __contains__(self, node: NodeId) -> bool:
        return node in self._routers

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._routers)

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r} routers={self.num_routers} "
            f"channels={self.num_channels} links={self.num_physical_links}>"
        )

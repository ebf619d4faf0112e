"""Messages, packets and flits for the cycle-based NoC simulator."""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import sub

from repro.exceptions import SimulationError

NodeId = Hashable


def require_int(value: object, what: str) -> None:
    """Raise :class:`SimulationError` unless ``value`` is an ``int`` (not a ``bool``)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SimulationError(f"{what} must be an int, got {value!r}")


@dataclass(frozen=True, slots=True)
class Message:
    """An application-level transfer request (one logical message)."""

    source: NodeId
    destination: NodeId
    size_bits: int
    tag: str = ""

    def __post_init__(self) -> None:
        require_int(self.size_bits, "a message size in bits")
        if self.size_bits <= 0:
            raise SimulationError("a message must carry at least one bit")
        if self.source == self.destination:
            raise SimulationError("a message cannot be sent to its own source")


@dataclass(slots=True)
class Packet:
    """A message instantiated in the network with timing bookkeeping.

    The simulator is packet-switched: the whole packet is forwarded hop by
    hop, occupying each traversed channel for its serialization time
    (``num_flits`` cycles at one flit per cycle).
    """

    packet_id: int
    message: Message
    num_flits: int
    injection_cycle: int
    delivery_cycle: int | None = None
    hops: int = 0
    path: list[NodeId] = field(default_factory=list)

    @classmethod
    def from_message(
        cls, packet_id: int, message: Message, flit_width_bits: int, injection_cycle: int
    ) -> "Packet":
        if flit_width_bits <= 0:
            raise SimulationError("flit width must be positive")
        num_flits = max(1, math.ceil(message.size_bits / flit_width_bits))
        return cls(
            packet_id=packet_id,
            message=message,
            num_flits=num_flits,
            injection_cycle=injection_cycle,
            path=[message.source],
        )

    @property
    def source(self) -> NodeId:
        return self.message.source

    @property
    def destination(self) -> NodeId:
        return self.message.destination

    @property
    def size_bits(self) -> int:
        return self.message.size_bits

    @property
    def is_delivered(self) -> bool:
        return self.delivery_cycle is not None

    @property
    def latency(self) -> int:
        """Cycles from injection to delivery (only valid once delivered)."""
        if self.delivery_cycle is None:
            raise SimulationError(f"packet {self.packet_id} has not been delivered yet")
        return self.delivery_cycle - self.injection_cycle

    def __repr__(self) -> str:
        status = f"delivered@{self.delivery_cycle}" if self.is_delivered else "in-flight"
        return (
            f"<Packet #{self.packet_id} {self.source!r}->{self.destination!r} "
            f"{self.size_bits}b {self.num_flits}flits {status}>"
        )


class PacketTable:
    """A scalar simulator's packets as flat lists indexed by packet id.

    The cycle loop queues int packet ids and reads and writes these lists
    directly; a :class:`Packet` is only built as a *view* on demand
    (:meth:`view`), for :attr:`SimulationStatistics.delivered_packets
    <repro.noc.stats.SimulationStatistics.delivered_packets>` and
    ``NoCSimulator.stuck_packets()``.  A view's path is walked through the
    fabric's routing memo, ``hops`` steps from the packet's source:
    routing is fixed when the fabric is wired, so the memo holds every
    decision a packet followed, routing loops included.

    The table holds the fabric's wiring lists but never the simulator or
    the fabric, so a finished simulator is freed by reference counting
    alone.
    """

    __slots__ = (
        "messages", "destinations", "flits", "bits", "injected", "hops",
        "delivered_at", "delivered", "_nodes", "_positions", "_routes", "_targets",
    )

    def __init__(
        self,
        nodes: Sequence[NodeId],
        positions: dict[NodeId, int],
        routes: Sequence[Sequence[int | None]],
        targets: Sequence[int],
    ) -> None:
        self.messages: list[Message] = []
        self.destinations: list[int] = []  # the destination router's position
        self.flits: list[int] = []
        self.bits: list[int] = []
        self.injected: list[int] = []  # injection cycle
        self.hops: list[int] = []
        self.delivered_at: list[int | None] = []
        self.delivered: list[int] = []  # ids in delivery order
        # the fabric's wiring: position -> node, node -> position, the
        # per-position routing memo (destination position -> channel id)
        # and channel id -> target position
        self._nodes = nodes
        self._positions = positions
        self._routes = routes
        self._targets = targets

    def add(
        self,
        cycle: int,
        messages: tuple[Message, ...],
        destinations: list[int],
        flits: list[int],
        bits: list[int],
    ) -> int:
        """Append packets injected at ``cycle``; returns the first new id."""
        first = len(self.messages)
        count = len(messages)
        self.messages += messages
        self.destinations += destinations
        self.flits += flits
        self.bits += bits
        self.injected += repeat(cycle, count)
        self.hops += repeat(0, count)
        self.delivered_at += repeat(None, count)
        return first

    def append(
        self, cycle: int, message: Message, destination: int, flits: int, bits: int
    ) -> int:
        """Append one packet injected at ``cycle``; returns its id."""
        packet = len(self.messages)
        self.messages.append(message)
        self.destinations.append(destination)
        self.flits.append(flits)
        self.bits.append(bits)
        self.injected.append(cycle)
        self.hops.append(0)
        self.delivered_at.append(None)
        return packet

    def view(self, packet_id: int) -> Packet:
        """The packet as a :class:`Packet`, its path walked from the memo."""
        message = self.messages[packet_id]
        hops = self.hops[packet_id]
        destination = self.destinations[packet_id]
        position = self._positions[message.source]
        path = [message.source]
        for _ in range(hops):
            position = self._targets[self._routes[position][destination]]
            path.append(self._nodes[position])
        return Packet(
            packet_id, message, self.flits[packet_id], self.injected[packet_id],
            self.delivered_at[packet_id], hops, path,
        )

    def delivered_totals(self) -> tuple[int, int, int, int]:
        """``(latency sum, max latency, hop sum, bit sum)`` of the delivered
        packets, by C-level sums over the lists."""
        ids = self.delivered
        waits = list(
            map(sub, map(self.delivered_at.__getitem__, ids), map(self.injected.__getitem__, ids))
        )
        return (
            sum(waits),
            max(waits, default=0),
            sum(map(self.hops.__getitem__, ids)),
            sum(map(self.bits.__getitem__, ids)),
        )

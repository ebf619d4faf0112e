"""Input-buffered router model with round-robin output arbitration.

Every router has one FIFO input buffer per input port (one port per incoming
channel plus a local injection port).  Each cycle the simulator picks, for
every output channel, the packet that should use it by a round-robin scan
over the router's input ports, so that no port starves.  Backpressure is
modelled by bounded buffer capacities: a packet only advances when the
downstream input buffer has room.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.noc.packet import Packet

NodeId = Hashable
LOCAL_PORT = "__local__"


@dataclass
class InputBuffer:
    """Bounded FIFO of packets waiting at one input port."""

    capacity_packets: int
    queue: deque[Packet] = field(default_factory=deque)

    def has_space(self) -> bool:
        return len(self.queue) < self.capacity_packets

    def push(self, packet: Packet) -> None:
        if not self.has_space():
            raise SimulationError("input buffer overflow (backpressure violated)")
        self.queue.append(packet)

    def head(self) -> Packet | None:
        return self.queue[0] if self.queue else None

    def pop(self) -> Packet:
        if not self.queue:
            raise SimulationError("pop from an empty input buffer")
        return self.queue.popleft()

    def __len__(self) -> int:
        return len(self.queue)


class Router:
    """One network router: input buffers + round-robin arbitration state."""

    def __init__(
        self,
        node_id: NodeId,
        buffer_capacity_packets: int = 4,
        pipeline_delay_cycles: int = 1,
    ) -> None:
        if buffer_capacity_packets < 1:
            raise SimulationError("router buffers must hold at least one packet")
        if pipeline_delay_cycles < 1:
            raise SimulationError("router pipeline delay must be at least one cycle")
        self.node_id = node_id
        self.buffer_capacity_packets = buffer_capacity_packets
        self.pipeline_delay_cycles = pipeline_delay_cycles
        self._buffers: dict[object, InputBuffer] = {
            LOCAL_PORT: InputBuffer(capacity_packets=10**9)  # injection queue is unbounded
        }
        self.scan_order: tuple[tuple[object, deque[Packet]], ...] = ()
        """``(port, queue)`` per input port in arbitration order (the local
        port first): the simulator's kernel scans these deques directly."""
        self._sync_scan_order()
        self._round_robin_pointer = 0

    # ------------------------------------------------------------------
    # ports and buffers
    # ------------------------------------------------------------------
    def add_input_port(self, upstream: NodeId) -> None:
        if upstream not in self._buffers:
            self._buffers[upstream] = InputBuffer(self.buffer_capacity_packets)
            self._sync_scan_order()

    def _sync_scan_order(self) -> None:
        self.scan_order = tuple(
            (port, buffer.queue) for port, buffer in self._buffers.items()
        )

    def buffer(self, port: object) -> InputBuffer:
        try:
            return self._buffers[port]
        except KeyError as error:
            raise SimulationError(
                f"router {self.node_id!r} has no input port from {port!r}"
            ) from error

    def ports(self) -> list[object]:
        return list(self._buffers)

    def inject(self, packet: Packet) -> None:
        """Place a locally generated packet into the injection queue."""
        self._buffers[LOCAL_PORT].push(packet)

    def accept(self, upstream: NodeId, packet: Packet) -> None:
        """Receive a packet arriving over the channel from ``upstream``."""
        self.buffer(upstream).push(packet)

    def can_accept(self, upstream: NodeId) -> bool:
        return self.buffer(upstream).has_space()

    def occupancy(self) -> int:
        """Total packets currently buffered (all ports)."""
        return sum(len(queue) for _, queue in self.scan_order)

    # ------------------------------------------------------------------
    # arbitration
    # ------------------------------------------------------------------
    def nominate(self, wants_output) -> dict[object, object]:
        """Pick, per output, the input port whose head packet wins this cycle.

        ``wants_output(packet)`` maps a head packet to the output it requests
        (the next-hop router id, or ``LOCAL_PORT`` for delivery).  Returns a
        mapping ``{output: input_port}`` with at most one winner per output,
        chosen by a round-robin scan whose start rotates by one port per
        call.  Kept for callers that arbitrate a router in isolation; the
        simulator inlines the same scan with a cycle-derived start (for a
        simulation stepped contiguously from cycle 0 the two are identical,
        since the dense loop arbitrates exactly once per router per cycle).
        """
        pairs = self.scan_order
        count = len(pairs)
        winners: dict[object, object] = {}
        start = self._round_robin_pointer % count
        # scan start, start+1, ..., wrapping around: index i - count is the
        # same element for i < count (negative indexing) and for i >= count
        for i in range(start - count, start):
            port, queue = pairs[i]
            if not queue:
                continue
            output = wants_output(queue[0])
            if output not in winners:
                winners[output] = port
        self._round_robin_pointer = (self._round_robin_pointer + 1) % count
        return winners

    def __repr__(self) -> str:
        return (
            f"<Router {self.node_id!r} ports={len(self._buffers)} "
            f"buffered={self.occupancy()}>"
        )

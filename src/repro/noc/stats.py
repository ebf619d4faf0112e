"""Latency / throughput statistics collected by the NoC simulator.

The paper's prototype comparison uses two figures of merit: the chip
throughput (``128 bits per block * f_clk / cycles-per-block`` in Mbps) and
the average packet latency in cycles.  :class:`SimulationStatistics` gathers
the raw per-packet data and derives those figures, plus the hop and channel
utilisation breakdowns used by the reports.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.noc.packet import Packet, PacketTable

NodeId = Hashable


@dataclass
class SimulationStatistics:
    """Aggregated results of one simulation run.

    The engines record into the fields directly: the injection count and
    per-channel busy cycles, and the delivered packets in delivery order.
    The event engine keeps its packets in a :class:`PacketTable`
    (``packets``) and :attr:`delivered_packets` builds views of them on
    each read; the batch engine appends :class:`Packet` objects.  The
    per-packet figures come from one pass over the delivered packets
    (:meth:`_delivered_totals`), reused until more are delivered.
    """

    total_cycles: int = 0
    injected_count: int = 0
    channel_busy_cycles: dict[tuple[NodeId, NodeId], int] = field(default_factory=dict)
    packets: PacketTable | None = field(default=None, repr=False, compare=False)
    _delivered: list[Packet] = field(default_factory=list, init=False, repr=False)
    _walked_count: int = field(default=0, init=False, repr=False, compare=False)
    _totals: tuple[int, int, int, int] = field(
        default=(0, 0, 0, 0), init=False, repr=False, compare=False
    )

    @property
    def delivered_packets(self) -> list[Packet]:
        """The delivered packets in delivery order (views under the scalar
        engines, built afresh on each read)."""
        if self.packets is None:
            return self._delivered
        return [*map(self.packets.view, self.packets.delivered)]

    def _delivered_totals(self) -> tuple[int, int, int, int]:
        """``(latency sum, max latency, hop sum, bit sum)`` of the delivered
        packets, recomputed only when more have been delivered since (the
        delivered list only grows)."""
        count = self.delivered_count
        if count != self._walked_count:
            if self.packets is not None:
                self._totals = self.packets.delivered_totals()
            else:
                latency = longest = hops = bits = 0
                for packet in self._delivered:
                    wait = packet.delivery_cycle - packet.injection_cycle
                    latency += wait
                    if wait > longest:
                        longest = wait
                    hops += packet.hops
                    bits += packet.message.size_bits
                self._totals = (latency, longest, hops, bits)
            self._walked_count = count
        return self._totals

    # ------------------------------------------------------------------
    # figures of merit
    # ------------------------------------------------------------------
    @property
    def delivered_count(self) -> int:
        return len(self._delivered if self.packets is None else self.packets.delivered)

    def delivery_cycles(self) -> dict[int, int | None]:
        """Per-packet delivery cycle keyed by packet id.

        The engine-equivalence contract is defined over this mapping (plus
        :meth:`summary`): every engine must agree with the cycle model on
        every packet's delivery cycle, not just on the aggregates.
        """
        table = self.packets
        if table is None:
            return {packet.packet_id: packet.delivery_cycle for packet in self._delivered}
        return dict(zip(table.delivered, map(table.delivered_at.__getitem__, table.delivered)))

    @property
    def all_delivered(self) -> bool:
        return self.delivered_count == self.injected_count

    def average_latency_cycles(self) -> float:
        if not self.delivered_count:
            raise SimulationError("no packets were delivered; latency is undefined")
        return self._delivered_totals()[0] / self.delivered_count

    def max_latency_cycles(self) -> int:
        if not self.delivered_count:
            raise SimulationError("no packets were delivered; latency is undefined")
        return self._delivered_totals()[1]

    def average_hops(self) -> float:
        if not self.delivered_count:
            raise SimulationError("no packets were delivered; hop count is undefined")
        return self._delivered_totals()[2] / self.delivered_count

    def total_bits_delivered(self) -> int:
        return self._delivered_totals()[3]

    def throughput_bits_per_cycle(self) -> float:
        if self.total_cycles <= 0:
            raise SimulationError("throughput needs a positive cycle count")
        return self.total_bits_delivered() / self.total_cycles

    def throughput_mbps(self, frequency_mhz: float) -> float:
        """Delivered payload throughput in Mbps at the given clock frequency."""
        return self.throughput_bits_per_cycle() * frequency_mhz

    def channel_utilization(self) -> dict[tuple[NodeId, NodeId], float]:
        """Busy fraction of every channel over the simulated interval."""
        if self.total_cycles <= 0:
            return {}
        return {
            channel: busy / self.total_cycles
            for channel, busy in self.channel_busy_cycles.items()
        }

    def max_channel_utilization(self) -> float:
        utilization = self.channel_utilization()
        return max(utilization.values()) if utilization else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "injected": float(self.injected_count),
            "delivered": float(self.delivered_count),
            "total_cycles": float(self.total_cycles),
            "average_latency_cycles": self.average_latency_cycles(),
            "max_latency_cycles": float(self.max_latency_cycles()),
            "average_hops": self.average_hops(),
            "throughput_bits_per_cycle": self.throughput_bits_per_cycle(),
            "max_channel_utilization": self.max_channel_utilization(),
        }


def throughput_mbps_from_cycles(
    bits_per_block: int, cycles_per_block: float, frequency_mhz: float
) -> float:
    """The paper's throughput formula: ``bits/block * f_clk / cycles/block``.

    With 128-bit blocks at 100 MHz, 271 cycles/block gives 47.2 Mbps and
    199 cycles/block gives 64.3 Mbps, matching Section 5.2.
    """
    if cycles_per_block <= 0:
        raise SimulationError("cycles per block must be positive")
    return bits_per_block * frequency_mhz / cycles_per_block

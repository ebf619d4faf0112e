"""An independent oracle for the NoC simulator, written from its cycle model.

``docs/simulator.md`` ("The cycle model") states what one cycle does:
inject the due packets, deliver the due arrivals, then let every router
arbitrate and forward, in a fixed router order.  This module implements
those rules as plainly as it can, sharing nothing with
:class:`~repro.noc.simulator.NoCSimulator` but the message type and the
energy model: plain objects per router, port, channel and packet, every
router visited on every cycle, an arrival that meets a full buffer
retried on every cycle, and a routing call for every head on every scan.
There are no wake masks, claim stamps, parked lists or routing memos, so
a bug in any of those shows up as a difference from this oracle.

It mirrors the simulator's public surface closely enough for the tests
to run both on the same traffic: scheduling, ``run``,
``run_until_drained``, ``report`` (without probe figures),
``engine_info``, ``stuck_packets`` and a ``statistics`` object with the
delivered packets and their count, their delivery cycles and the channel
busy cycles.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush

from repro.energy.power import EnergyAccount
from repro.energy.technology import DEFAULT_TECHNOLOGY
from repro.exceptions import SimulationError
from repro.noc.simulator import SimulatorConfig

#: how many stuck packets the drain-budget error names
STUCK_PACKETS_NAMED = 8


class OraclePacket:
    def __init__(self, packet_id, message, flits, injection_cycle):
        self.packet_id = packet_id
        self.message = message
        self.destination = message.destination
        self.num_flits = flits
        self.injection_cycle = injection_cycle
        self.delivery_cycle = None
        self.path = [message.source]

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class OracleChannel:
    def __init__(self, channel, queue):
        self.key = (channel.source, channel.target)
        self.length_mm = channel.length_mm
        self.queue = queue  # the input queue it feeds at its target
        self.free_at = 0
        self.busy_cycles = 0


class OracleStatistics:
    def __init__(self):
        self.total_cycles = 0
        self.injected_count = 0
        self.delivered_packets = []  # in delivery order
        self.channel_busy_cycles = {}  # in first-launch order

    @property
    def delivered_count(self):
        return len(self.delivered_packets)

    def delivery_cycles(self):
        return {packet.packet_id: packet.delivery_cycle for packet in self.delivered_packets}

    def summary(self):
        delivered = self.delivered_packets
        if not delivered:
            raise SimulationError("no packets were delivered; latency is undefined")
        if self.total_cycles <= 0:
            raise SimulationError("throughput needs a positive cycle count")
        latencies = [packet.delivery_cycle - packet.injection_cycle for packet in delivered]
        busy = self.channel_busy_cycles.values()
        return {
            "injected": float(self.injected_count),
            "delivered": float(len(delivered)),
            "total_cycles": float(self.total_cycles),
            "average_latency_cycles": sum(latencies) / len(delivered),
            "max_latency_cycles": float(max(latencies)),
            "average_hops": sum(packet.hops for packet in delivered) / len(delivered),
            "throughput_bits_per_cycle": sum(p.message.size_bits for p in delivered)
            / self.total_cycles,
            "max_channel_utilization": max(
                (cycles / self.total_cycles for cycles in busy), default=0.0
            ),
        }


class OracleSimulator:
    """The cycle model, stepped one cycle and one router at a time."""

    def __init__(self, topology, routing, config=None, technology=DEFAULT_TECHNOLOGY):
        self.config = config or SimulatorConfig()
        self.topology = topology
        self.routing = routing
        self.energy = EnergyAccount(technology=technology)
        self.statistics = OracleStatistics()
        self.routers = topology.routers()
        # per router, its input queues by port: the local queue first, then
        # one per incoming channel in the order of topology.channels()
        self.ports = {router: {None: deque()} for router in self.routers}
        self.channels = {}
        for channel in topology.channels():
            queue = self.ports[channel.target][channel.source] = deque()
            self.channels[channel.source, channel.target] = OracleChannel(channel, queue)
        self.current_cycle = 0
        self.cycles_stepped = 0
        self.pending = []  # heap of (injection cycle, packet id, packet)
        self.in_flight = []  # (packet, channel, due cycle) in launch order
        self.arrivals_done = -1  # the last cycle whose arrivals were delivered
        self.blocked = False
        self.peak_occupancy = 0
        self.switch_bits = 0
        self.link_bits = {}  # channel -> bits since the last flush, first-launch order
        self.leakage_until = 0
        self.packet_count = 0

    # -- scheduling -----------------------------------------------------
    def schedule_message(self, message, cycle=None):
        self.schedule_messages([message], cycle)
        return self.packet_count - 1

    def schedule_messages(self, messages, cycle=None):
        cycle = self.current_cycle if cycle is None else cycle
        if cycle < self.current_cycle:
            raise SimulationError("cannot schedule a message in the past")
        for message in messages:
            for role, router in (("source", message.source), ("destination", message.destination)):
                if router not in self.ports:
                    raise SimulationError(f"unknown {role} router {router!r}")
            flits = max(1, math.ceil(message.size_bits / self.config.flit_width_bits))
            packet = OraclePacket(self.packet_count, message, flits, cycle)
            heappush(self.pending, (cycle, packet.packet_id, packet))
            self.packet_count += 1
            self.statistics.injected_count += 1

    # -- runs -----------------------------------------------------------
    def run(self, cycles):
        if cycles < 0:
            raise SimulationError("cannot run a negative number of cycles")
        for _ in range(cycles):
            self.step()
        self.finalize()

    def run_until_drained(self, max_cycles=None):
        budget = self.config.max_cycles if max_cycles is None else max_cycles
        if budget < 0:
            raise SimulationError(f"the drain budget cannot be negative ({budget})")
        start = self.current_cycle
        while self.pending or self.in_flight or any(self.queued()):
            if self.current_cycle - start > budget:
                raise self.drain_budget_error(budget)
            self.step()
        self.finalize()
        return self.current_cycle

    def queued(self):
        for router in self.routers:
            for queue in self.ports[router].values():
                yield from ((packet, router) for packet in queue)

    def step(self):
        """Execute one cycle.  A routing error leaves the clock on it; run
        again, the cycle visits every router anew, its arrivals already
        delivered."""
        cycle = self.current_cycle
        while self.pending and self.pending[0][0] <= cycle:
            packet = heappop(self.pending)[2]
            self.ports[packet.message.source][None].append(packet)
        if self.arrivals_done < cycle:
            self.arrivals_done = cycle
            waiting = []
            for flight in self.in_flight:
                packet, channel, due = flight
                if due > cycle:
                    waiting.append(flight)
                elif len(channel.queue) >= self.config.buffer_capacity_packets:
                    self.blocked = True  # retried next cycle
                    waiting.append(flight)
                else:
                    channel.queue.append(packet)
                    self.peak_occupancy = max(self.peak_occupancy, len(channel.queue))
            self.in_flight = waiting
        for router in self.routers:
            self.visit(router, cycle)
        self.current_cycle = cycle + 1
        self.cycles_stepped += 1

    def visit(self, router, cycle):
        """Round-robin from port ``cycle mod ports``: the first head asking
        for an output wins it, and then ejects or launches if it can."""
        queues = list(self.ports[router].values())
        start = cycle % len(queues)
        won = set()
        for queue in queues[start:] + queues[:start]:
            if not queue:
                continue
            packet = queue[0]
            output = None if packet.destination == router else self.route(router, packet)
            if output in won:
                continue
            won.add(output)
            if output is None:
                packet.delivery_cycle = cycle
                self.statistics.delivered_packets.append(packet)
            elif output.free_at > cycle:
                continue
            elif len(output.queue) >= self.config.buffer_capacity_packets:
                self.blocked = True
                continue
            else:
                output.free_at = cycle + packet.num_flits
                output.busy_cycles += packet.num_flits
                bits = self.link_bits.get(output, 0)
                self.link_bits[output] = bits + packet.message.size_bits
                packet.path.append(output.key[1])
                due = cycle + packet.num_flits + self.config.router_pipeline_delay_cycles
                self.in_flight.append((packet, output, due))
            queue.popleft()
            self.switch_bits += packet.message.size_bits

    def route(self, router, packet):
        next_hop = self.routing(router, packet.destination)
        channel = self.channels.get((router, next_hop))
        if channel is None:
            raise SimulationError(
                f"routing function returned {next_hop!r} from {router!r} towards "
                f"{packet.destination!r}, but that channel does not exist"
            )
        return channel

    # -- accounting -----------------------------------------------------
    def flush_energy(self):
        if self.switch_bits:
            self.energy.charge_switch(self.switch_bits)
            self.switch_bits = 0
        for channel, bits in self.link_bits.items():
            self.energy.charge_link(bits, channel.length_mm)
            self.statistics.channel_busy_cycles[channel.key] = channel.busy_cycles
        self.link_bits.clear()

    def finalize(self):
        self.statistics.total_cycles = self.current_cycle
        self.flush_energy()
        span = self.current_cycle - self.leakage_until
        if span > 0:
            self.energy.charge_leakage(len(self.routers), span)
            self.leakage_until = self.current_cycle

    def report(self):
        self.flush_energy()
        report = self.statistics.summary()
        report.update(self.energy.summary())
        total_cycles = max(self.statistics.total_cycles, 1)
        report["average_power_mw"] = self.energy.average_power_mw(total_cycles)
        report["total_energy_uj"] = self.energy.total_energy_uj
        return report

    def engine_info(self):
        return {
            "engine": "oracle",
            "cycles_total": self.current_cycle,
            "cycles_stepped": self.cycles_stepped,
            "cycles_skipped": self.current_cycle - self.cycles_stepped,
            "blocked": self.blocked,
            "peak_occupancy": self.peak_occupancy,
        }

    # -- diagnostics ----------------------------------------------------
    def stuck_packets(self):
        """Every undelivered packet with the router it is at or flying to."""
        stuck = list(self.queued())
        stuck += [(packet, channel.key[1]) for packet, channel, _ in self.in_flight]
        return sorted(stuck, key=lambda entry: entry[0].packet_id)

    def drain_budget_error(self, budget):
        stuck = self.stuck_packets()
        named = ", ".join(
            f"#{packet.packet_id} at {where!r} -> {packet.destination!r} ({packet.hops} hops)"
            for packet, where in stuck[:STUCK_PACKETS_NAMED]
        )
        if len(stuck) > STUCK_PACKETS_NAMED:
            named += f", and {len(stuck) - STUCK_PACKETS_NAMED} more"
        return SimulationError(
            f"network did not drain within {budget} cycles ({len(stuck)} packets stuck: {named})"
        )

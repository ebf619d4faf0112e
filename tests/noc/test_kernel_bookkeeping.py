"""The per-cycle kernel's bookkeeping: parked arrivals and a mid-scan failure.

An arrival that finds its buffer full parks on its channel until a pop
from that buffer; the pop re-queues it for the next cycle, the cycle a
per-cycle retry would first have succeeded on.  And when a routing
function fails halfway through a router's scan, the moves made before the
failure stay counted: the load counters, the switch-traversal bits and
:meth:`NoCSimulator.stuck_packets` must still describe the fabric.
"""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.packet import Message
from repro.noc.simulator import NoCSimulator, SimulatorConfig
from test_capacity_certificate import retry_collision_run


def queued_packets(simulator: NoCSimulator) -> int:
    return sum(len(queue) for queue in simulator._queues)


class TestParkedArrivals:
    def test_a_full_buffer_parks_the_arrival_until_the_freeing_pop(self):
        """Router 1's one-packet buffer holds P until P launches at cycle 8.
        A (due at 6) and B (due at 7) park behind it; P's pop at 8 moves
        both into cycle 9's arrivals, in launch order: the cycle on which a
        per-cycle retry would first have found space."""
        simulator = retry_collision_run()
        channel = simulator.fabric.channel_ids[(0, 1)]
        parked_at = {}
        while simulator.current_cycle < 9:
            simulator.run(1)
            parked_at[simulator.current_cycle - 1] = [
                packet for _, packet, _ in simulator._parked.get(channel, [])
            ]
        assert parked_at[5] == []
        assert parked_at[6] == [2]
        assert parked_at[7] == [2, 3]
        assert parked_at[8] == []  # re-queued by P's pop at cycle 8
        assert [packet for _, packet, _ in simulator._arrivals[9]] == [2, 3]
        # cycle 9: A takes the freed slot and B parks again; A launches on
        # at once, and that pop re-queues B for cycle 10
        simulator.run(1)
        flying = {
            packet: simulator.fabric.channels[channel]
            for bucket in simulator._arrivals.values()
            for _, packet, channel in bucket
        }
        assert flying[2] == (1, 2)
        assert not simulator._parked
        assert [packet for _, packet, _ in simulator._arrivals[10]] == [3]

    def test_a_parked_flight_keeps_the_run_undrained(self):
        simulator = retry_collision_run()
        simulator.run(7)
        assert simulator._parked
        stuck = [packet.packet_id for packet, _ in simulator.stuck_packets()]
        assert stuck == [0, 1, 2, 3]
        simulator.run_until_drained()
        assert not simulator._parked
        assert simulator.statistics.delivered_count == 4

    def test_parking_steps_the_cycles_a_retry_would(self):
        """While a flight is parked every cycle is executed, as when it
        retried every cycle, so ``cycles_stepped`` is unchanged."""
        simulator = retry_collision_run()
        simulator.run_until_drained()
        assert simulator.engine_info()["cycles_stepped"] == 13


def merge_failure_run() -> NoCSimulator:
    """Routers 0 and 3 feed router 1, which feeds 2 (one-packet buffers).

    H (8 flits, 1 -> 2) holds channel 1 -> 2 until cycle 8, so F (0 -> 2)
    waits in router 1's port-0 buffer from cycle 2 and G (0 -> 2) parks
    behind it at cycle 3.  E (3 -> 1) arrives at cycle 8, when router 1
    scans port 3 first, then its local port.  Router 1 routes destination
    2 over 1 -> 2 and any other one towards 0, a channel that does not
    exist.
    """
    topology = Topology(name="merge")
    for source, target in ((0, 1), (3, 1), (1, 2)):
        topology.add_channel(source, target)
    simulator = NoCSimulator(
        topology,
        lambda current, destination: 1 if current in (0, 3) else 2 if destination == 2 else 0,
        config=SimulatorConfig(buffer_capacity_packets=1),
    )
    simulator.schedule_messages([Message(1, 2, 256, tag="H")], cycle=0)
    simulator.schedule_messages([Message(0, 2, 32, tag="F"), Message(0, 2, 32, tag="G")], cycle=0)
    simulator.schedule_messages([Message(3, 1, 32, tag="E")], cycle=6)
    return simulator


class TestRoutingFailureMidScan:
    def test_counters_stay_consistent(self):
        simulator = merge_failure_run()
        simulator.run(8)
        fabric = simulator.fabric
        scan = fabric.scan_orders[fabric.positions[1]][8 % 3]
        assert fabric.channels[scan[0]] == (3, 1)
        # X, injected at router 1 on cycle 8, is routed towards 0
        simulator.schedule_messages([Message(1, 3, 32, tag="X")])
        with pytest.raises(SimulationError, match="does not exist"):
            simulator.run_until_drained()
        delivered = [packet.message.tag for packet in simulator.statistics.delivered_packets]
        assert delivered == ["E"]  # ejected before the failing head was routed
        assert simulator._switch_bits == 32  # E's ejection, since run(8) flushed
        queued = queued_packets(simulator)
        assert queued == 2  # F and X
        assert simulator._buffered_total == sum(simulator._load) == queued
        stuck = {packet.message.tag: where for packet, where in simulator.stuck_packets()}
        assert len(simulator.stuck_packets()) == len(stuck) == 4
        assert stuck == {"F": 1, "G": 1, "H": 2, "X": 1}  # G parked, H in flight
        parked = simulator._parked[simulator.fabric.channel_ids[(0, 1)]]
        assert [simulator._packets.messages[packet].tag for _, packet, _ in parked] == ["G"]

    def test_a_failure_cuts_the_window_short(self):
        """A routes 0 -> 3 along a chain and fails at router 2 on cycle 4,
        mid-way through a 10-cycle window.  The clock stays on the failing
        cycle, which ``cycles_stepped`` does not count, the moves before
        it stay counted, and once the routing is fixed the run drains."""
        broken = True

        def forward(current, destination):
            if broken and (current, destination) == (2, 3):
                raise SimulationError("no route from 2 to 3 yet")
            return current + 1 if destination > current else current - 1

        def build() -> NoCSimulator:
            topology = Topology(name="chain")
            for node in range(3):
                topology.add_channel(node, node + 1, bidirectional=True)
            simulator = NoCSimulator(topology, forward)
            simulator.schedule_messages([Message(0, 3, 32, tag="A"), Message(1, 0, 32, tag="D")])
            simulator.schedule_messages([Message(0, 2, 32, tag="B")], cycle=1)
            return simulator

        simulator = build()
        with pytest.raises(SimulationError, match="no route"):
            simulator.run(10)
        assert simulator.current_cycle == 4
        clean = build()
        clean.run(4)
        assert simulator.cycles_stepped == clean.cycles_stepped
        assert simulator._buffered_total == sum(simulator._load) == queued_packets(simulator)
        stuck = {packet.message.tag: where for packet, where in simulator.stuck_packets()}
        assert stuck == {"A": 2, "B": 2}  # A at the failing router, B flying to it
        assert [packet.message.tag for packet in simulator.statistics.delivered_packets] == ["D"]
        broken = False  # the failed decision was never memoized
        simulator.run_until_drained()
        delivered = [packet.message.tag for packet in simulator.statistics.delivered_packets]
        assert sorted(delivered) == ["A", "B", "D"]

    def test_without_the_failure_the_run_drains(self):
        simulator = merge_failure_run()
        simulator.run_until_drained()
        delivered = [packet.message.tag for packet in simulator.statistics.delivered_packets]
        assert sorted(delivered) == ["E", "F", "G", "H"]
        assert simulator.engine_info()["blocked"] is True


class TestReArmBlockedRule:
    def test_a_full_head_after_a_ready_one_does_not_block(self):
        """The re-arm marks a run blocked only for a full head that comes
        before the first ready head in port order.

        Router 1's ports are (local, 0, 3).  At cycle 5 its scan starts at
        port 3: E1 ejects, and E2 at port 0 loses the ejection, so port 0
        is ready.  Port 3's new head N waits on router 2's full buffer,
        which router 2 (later in the order) drains that same cycle, so N
        launches at 6 and no space test of the run ever fails.
        """
        topology = Topology(name="re-arm")
        for source, target in ((0, 1), (3, 1), (1, 2), (2, 5)):
            topology.add_channel(source, target)
        simulator = NoCSimulator(
            topology,
            lambda current, destination: {0: 1, 3: 1, 1: 2, 2: 5}[current],
            config=SimulatorConfig(buffer_capacity_packets=2),
        )
        schedule = simulator.schedule_messages
        schedule([Message(2, 5, 160, tag="L")], cycle=0)  # holds 2 -> 5 until 5
        schedule([Message(1, 5, 32, tag="K1"), Message(1, 5, 32, tag="K2")], cycle=0)
        schedule([Message(0, 1, 32, tag="E0"), Message(0, 1, 32, tag="E2")], cycle=2)
        schedule([Message(3, 1, 32, tag="E1"), Message(3, 2, 32, tag="N")], cycle=2)
        simulator.run_until_drained()
        delivered = {
            packet.message.tag: packet.delivery_cycle
            for packet in simulator.statistics.delivered_packets
        }
        assert delivered["E0"] == 4 and delivered["E1"] == 5 and delivered["E2"] == 6
        assert delivered["N"] == 8  # launched from router 1 at cycle 6
        info = simulator.engine_info()
        assert info["peak_occupancy"] == 2
        assert info["blocked"] is False

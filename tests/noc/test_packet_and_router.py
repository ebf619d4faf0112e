"""Unit tests for packets, flits and the simulator's input-buffered routers."""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.packet import Message, Packet
from repro.noc.simulator import ENGINES, NoCSimulator, SimulatorConfig
from simulator_oracle import OracleSimulator


class TestMessage:
    def test_valid_message(self):
        message = Message(source=1, destination=2, size_bits=64, tag="t")
        assert message.size_bits == 64

    def test_invalid_messages_rejected(self):
        with pytest.raises(SimulationError):
            Message(source=1, destination=1, size_bits=8)
        with pytest.raises(SimulationError):
            Message(source=1, destination=2, size_bits=0)

    @pytest.mark.parametrize("size_bits", [True, 8.5, 64.0, "64"])
    def test_non_int_size_rejected(self, size_bits):
        with pytest.raises(SimulationError, match="a message size in bits must be an int"):
            Message(source=1, destination=2, size_bits=size_bits)


class TestPacket:
    def test_flit_count_rounds_up(self):
        message = Message(1, 2, size_bits=65)
        packet = Packet.from_message(0, message, flit_width_bits=32, injection_cycle=5)
        assert packet.num_flits == 3
        assert packet.injection_cycle == 5
        assert not packet.is_delivered

    def test_single_flit_minimum(self):
        packet = Packet.from_message(0, Message(1, 2, 8), flit_width_bits=32, injection_cycle=0)
        assert packet.num_flits == 1

    def test_invalid_flit_width(self):
        with pytest.raises(SimulationError):
            Packet.from_message(0, Message(1, 2, 8), flit_width_bits=0, injection_cycle=0)

    def test_latency_requires_delivery(self):
        packet = Packet.from_message(0, Message(1, 2, 8), 32, injection_cycle=10)
        with pytest.raises(SimulationError):
            _ = packet.latency
        packet.delivery_cycle = 25
        assert packet.latency == 15


def merge_topology() -> Topology:
    """Routers 2 and 3 feed router 1, which feeds 7 and 8."""
    topology = Topology(name="merge")
    for source, target in ((2, 1), (3, 1), (1, 7), (1, 8)):
        topology.add_channel(source, target)
    return topology


def merge_simulator(simulator_class: type = NoCSimulator, **config_overrides) -> NoCSimulator:
    """Every packet goes to router 1 first, then straight to its destination;
    ``simulator_class`` may be the oracle's."""
    config = SimulatorConfig(**config_overrides)
    return simulator_class(
        merge_topology(),
        lambda current, destination: 1 if current in (2, 3) else destination,
        config=config,
    )


def launches_from(simulator: NoCSimulator, node) -> list[tuple]:
    """The channels out of ``node`` carrying a packet right now."""
    channels = [
        simulator.fabric.channels[channel]
        for bucket in simulator._arrivals.values()
        for _, _, channel in bucket
    ]
    return sorted(channel for channel in channels if channel[0] == node)


def input_queues(simulator: NoCSimulator, node) -> dict:
    """``node``'s input queues, keyed by upstream router (``None``: local)."""
    fabric = simulator.fabric
    return {
        (fabric.channels[port] or (None,))[0]: simulator._queues[port]
        for port in fabric.scan_orders[fabric.positions[node]][0]
    }


class TestInputQueues:
    def test_ports_in_arbitration_order(self):
        fabric = merge_simulator().fabric
        position = fabric.positions
        assert [fabric.channels[port] for port in fabric.scan_orders[position[2]][0]] == [None]
        # the local port first, then one per incoming channel; a scan on
        # cycle c starts at port c mod ports, wrapping around
        ports = fabric.scan_orders[position[1]]
        assert [[fabric.channels[port] for port in order] for order in ports] == [
            [None, (2, 1), (3, 1)],
            [(2, 1), (3, 1), None],
            [(3, 1), None, (2, 1)],
        ]
        channel = fabric.channel_ids
        assert set(channel) == {(2, 1), (3, 1), (1, 7), (1, 8)}
        for (source, target), port in channel.items():
            assert fabric.targets[port] == position[target]
            assert fabric.sources[port] == position[source]
        for node, port in zip(fabric.nodes, fabric.local_ports):
            assert fabric.channels[port] is None and fabric.targets[port] == position[node]

    def test_injection_and_arrival_fill_the_queues(self):
        simulator = merge_simulator(router_pipeline_delay_cycles=4)
        simulator.schedule_messages([Message(2, 7, 8), Message(3, 7, 8)], cycle=0)
        simulator.schedule_message(Message(1, 8, 8), cycle=5)
        simulator.run(5)  # both launched at 0, arrive at 0 + 1 + 4
        assert launches_from(simulator, 2) == [(2, 1)]
        assert launches_from(simulator, 3) == [(3, 1)]
        queues = input_queues(simulator, 1)
        assert all(not queue for queue in queues.values())
        simulator.run(1)  # cycle 5: injection and both arrivals, then arbitration
        assert launches_from(simulator, 1) == [(1, 7), (1, 8)]
        # one of the two packets bound for 7 lost the arbitration and waits
        waiting = [len(queues[port]) for port in (2, 3)]
        assert sorted(waiting) == [0, 1]
        assert [where for _, where in simulator.stuck_packets()] == [1, 7, 8]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_port_is_fifo(self, engine):
        simulator = merge_simulator(engine=engine)
        messages = [Message(2, 7, 8, tag=f"p{index}") for index in range(6)]
        simulator.schedule_messages(messages, cycle=0)
        simulator.run_until_drained()
        delivered = [packet.message.tag for packet in simulator.statistics.delivered_packets]
        assert delivered == [message.tag for message in messages]

    @pytest.mark.parametrize(
        "simulator_class", [NoCSimulator, OracleSimulator], ids=["event", "oracle"]
    )
    def test_backpressure_bounds_every_queue(self, simulator_class):
        simulator = merge_simulator(simulator_class, buffer_capacity_packets=1)
        simulator.schedule_messages(
            [Message(source, 7, 96) for source in (2, 3) for _ in range(4)], cycle=0
        )
        simulator.run_until_drained()
        assert simulator.statistics.delivered_count == 8
        info = simulator.engine_info()
        assert info["blocked"] is True
        assert info["peak_occupancy"] == 1

    def test_invalid_configuration(self):
        with pytest.raises(SimulationError):
            SimulatorConfig(buffer_capacity_packets=0)
        with pytest.raises(SimulationError):
            SimulatorConfig(router_pipeline_delay_cycles=0)


class TestArbitration:
    def _contend(self, destinations: tuple, **config_overrides) -> NoCSimulator:
        """Packets from 2 and 3 meet in router 1's queues at cycle 2."""
        simulator = merge_simulator(**config_overrides)
        simulator.schedule_messages(
            [Message(2, destinations[0], 8), Message(3, destinations[1], 8)], cycle=0
        )
        for _ in range(3):
            simulator.run(1)
        return simulator

    def test_one_winner_per_output(self):
        simulator = self._contend((7, 7))  # both want output 7
        assert launches_from(simulator, 1) == [(1, 7)]
        queues = input_queues(simulator, 1)
        assert sum(len(queues[port]) for port in (2, 3)) == 1

    def test_different_outputs_both_win(self):
        simulator = self._contend((7, 8))
        assert launches_from(simulator, 1) == [(1, 7), (1, 8)]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_round_robin_serves_both_ports(self, engine):
        """Two ports contending for one output both deliver, interleaved:
        neither waits for the other to empty."""
        simulator = merge_simulator(engine=engine)
        simulator.schedule_messages(
            [Message(source, 7, 8) for source in (2, 3) for _ in range(4)], cycle=0
        )
        simulator.run_until_drained()
        sources = [packet.message.source for packet in simulator.statistics.delivered_packets]
        assert sorted(sources) == [2] * 4 + [3] * 4
        assert set(sources[:4]) == {2, 3}

    def test_idle_cycle_moves_nothing(self):
        simulator = merge_simulator()
        simulator.run(1)
        assert (simulator.current_cycle, simulator.cycles_stepped) == (1, 0)
        assert not simulator._arrivals and not simulator._parked
        assert simulator.stuck_packets() == []
        assert simulator.statistics.channel_busy_cycles == {}
        assert simulator.energy.dynamic_energy_pj == 0.0  # leakage only

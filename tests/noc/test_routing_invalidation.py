"""Regression tests for the stale-cache bug class around routing snapshots.

One memoized layer of routing state can go stale: the
``RoutingTable.frozen_next_hop`` snapshot, which does not see table
entries added after the freeze.  These tests pin down its contract.  The
simulator's fabric wiring and its per-router route memo cannot go stale:
both are built from the topology and the routing function given at
construction, and a router or channel added to the topology afterwards is
unknown to the simulator, which these tests pin down too.
"""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.exceptions import RoutingError, SimulationError
from repro.noc.packet import Message
from repro.noc.simulator import ENGINE_EVENT, ENGINES, NoCSimulator, SimulatorConfig
from repro.routing.table import RoutingTable


def _line_topology() -> Topology:
    """1 - 2 - 3 bidirectional line."""
    topology = Topology(name="line")
    topology.add_channel(1, 2, bidirectional=True)
    topology.add_channel(2, 3, bidirectional=True)
    return topology


class TestFrozenSnapshotContract:
    def test_snapshot_does_not_see_later_entries(self):
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        frozen = table.frozen_next_hop()
        assert frozen(1, 3) == 2
        table.install_path([3, 2, 1])  # added after the freeze
        with pytest.raises(RoutingError):
            frozen(3, 1)  # the snapshot is a deliberate point-in-time copy

    def test_version_counter_detects_staleness(self):
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        frozen = table.frozen_next_hop()
        assert frozen.table_version == table.version
        table.install_path([3, 2, 1])
        assert frozen.table_version != table.version  # stale and detectable
        refrozen = table.frozen_next_hop()
        assert refrozen.table_version == table.version
        assert refrozen(3, 1) == 2

    def test_idempotent_entries_do_not_bump_the_version(self):
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        version = table.version
        table.install_path([1, 2, 3])  # same entries again
        assert table.version == version


class TestSimulatorRouteMemo:
    def test_table_mutation_needs_refreeze_and_reassign(self):
        """The end-to-end recipe for late table entries: re-freeze the table
        and assign the fresh snapshot to a new simulator.  The simulator
        built on the old snapshot keeps routing with it."""
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        stale = NoCSimulator(topology, table.frozen_next_hop())
        table.install_path([3, 2, 1])
        rebuilt = NoCSimulator(topology, table.frozen_next_hop())
        stale.schedule_messages([Message(3, 1, 32)])
        with pytest.raises(RoutingError):
            stale.run_until_drained()
        rebuilt.schedule_messages([Message(3, 1, 32)])
        rebuilt.run_until_drained()
        assert [packet.path for packet in rebuilt.statistics.delivered_packets] == [[3, 2, 1]]


@pytest.mark.parametrize("engine", ENGINES)
class TestLateTopologyMutation:
    """The fabric is wired once, at construction."""

    def build(self, engine: str) -> tuple[Topology, NoCSimulator]:
        topology = _line_topology()
        simulator = NoCSimulator(
            topology,
            lambda current, destination: destination,  # always the direct channel
            config=SimulatorConfig(engine=engine, max_cycles=1000),
        )
        return topology, simulator

    def test_scheduling_from_a_late_router_raises(self, engine):
        """A source router added after construction is unknown; the
        messages before it in the call stay queued."""
        topology, simulator = self.build(engine)
        topology.add_channel(4, 3)
        with pytest.raises(SimulationError, match="unknown source router 4"):
            simulator.schedule_messages([Message(1, 2, 32), Message(4, 3, 32)])
        assert simulator.statistics.injected_count == 1
        simulator.run_until_drained()
        assert simulator.statistics.delivered_count == 1

    def test_scheduling_to_a_late_router_raises(self, engine):
        topology, simulator = self.build(engine)
        topology.add_channel(3, 4)
        with pytest.raises(SimulationError, match="unknown destination router 4"):
            simulator.schedule_messages([Message(2, 3, 32), Message(3, 4, 32)])
        assert simulator.statistics.injected_count == 1
        simulator.run_until_drained()
        assert simulator.statistics.delivered_count == 1

    def test_routing_onto_a_late_channel_raises(self, engine):
        """A routing function naming a channel added after construction
        fails the run with a :class:`SimulationError`, not a raw
        ``KeyError`` from the kernel, and the packet stays where it is."""
        topology, simulator = self.build(engine)
        topology.add_channel(1, 3)
        simulator.schedule_messages([Message(1, 3, 32)])
        with pytest.raises(SimulationError, match="does not exist"):
            simulator.run_until_drained()
        assert [(packet.packet_id, where) for packet, where in simulator.stuck_packets()] == [
            (0, 1)
        ]

    def test_a_late_router_draws_no_leakage(self, engine):
        """Leakage is charged for the wired routers, as the batch engine
        charges it, not for whatever the topology holds by finalize."""
        topology, simulator = self.build(engine)
        _, untouched = self.build(engine)
        topology.add_channel(3, 4)
        for run in (simulator, untouched):
            run.schedule_messages([Message(1, 2, 32)])
            run.run_until_drained()
        assert simulator.energy.leakage_energy_pj == untouched.energy.leakage_energy_pj > 0

    def test_a_rebuilt_simulator_crosses_a_late_channel(self, engine):
        """To use a channel added after construction, build a new
        simulator over the topology; the old one still refuses it."""
        topology, stale = self.build(engine)
        topology.add_channel(1, 3)
        rebuilt = NoCSimulator(
            topology,
            lambda current, destination: destination,
            config=SimulatorConfig(engine=engine, max_cycles=1000),
        )
        for simulator in (stale, rebuilt):
            simulator.schedule_messages([Message(1, 3, 32)])
        with pytest.raises(SimulationError, match="does not exist"):
            stale.run_until_drained()
        rebuilt.run_until_drained()
        assert [packet.path for packet in rebuilt.statistics.delivered_packets] == [[1, 3]]

    def test_a_rebuilt_simulator_reaches_a_late_router(self, engine):
        """A simulator built after a router was added routes to it and
        charges its leakage."""
        topology, stale = self.build(engine)
        topology.add_channel(3, 4, bidirectional=True)
        with pytest.raises(SimulationError, match="unknown destination router 4"):
            stale.schedule_messages([Message(1, 4, 32)])
        table = RoutingTable(topology)
        table.install_path([1, 2, 3, 4])
        rebuilt = NoCSimulator(
            topology,
            table.frozen_next_hop(),
            config=SimulatorConfig(engine=engine, max_cycles=1000),
        )
        rebuilt.schedule_messages([Message(1, 4, 32)])
        drained = rebuilt.run_until_drained()
        assert [packet.path for packet in rebuilt.statistics.delivered_packets] == [[1, 2, 3, 4]]
        stale.run(drained)
        assert rebuilt.energy.leakage_energy_pj == pytest.approx(
            stale.energy.leakage_energy_pj * 4 / 3
        )

"""Regression tests for the stale-cache bug class around routing snapshots.

Three layers of routing state are memoized: the
``RoutingTable.frozen_next_hop`` snapshot, the simulator's per-pair route
memo, and the simulator's fabric wiring (input queues, channel occupancy
and downstream queues) built at construction.  These tests pin down the
invalidation contract for each layer when table entries or topology
channels are added after the first freeze.
"""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.exceptions import RoutingError, SimulationError
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_EVENT,
    ENGINE_REFERENCE,
    LOCAL_PORT,
    NoCSimulator,
    SimulatorConfig,
)
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
    def test_swapping_routing_drops_memoized_decisions(self):
        topology = Topology(name="square")
        topology.add_channel("a", "b", bidirectional=True)
        topology.add_channel("b", "d", bidirectional=True)
        topology.add_channel("a", "c", bidirectional=True)
        topology.add_channel("c", "d", bidirectional=True)
        via_b = RoutingTable(topology)
        via_b.install_path(["a", "b", "d"])
        via_c = RoutingTable(topology)
        via_c.install_path(["a", "c", "d"])
        simulator = NoCSimulator(topology, via_b.frozen_next_hop())
        assert simulator.next_hop("a", "d") == "b"  # memoized now
        assert simulator.route_cache == {("a", "d"): "b"}
        simulator.routing = via_c.frozen_next_hop()
        assert simulator.route_cache == {}
        assert simulator.next_hop("a", "d") == "c"  # memo was dropped

    @pytest.mark.parametrize("engine", [ENGINE_EVENT, ENGINE_REFERENCE])
    def test_a_swap_after_a_run_reroutes_the_next_run(self, engine):
        """The kernel's per-router memo is dropped with ``route_cache``: a
        run after the swap takes the new path, not the one memoized by the
        run before it."""
        topology = Topology(name="square")
        for source, target in (("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")):
            topology.add_channel(source, target, bidirectional=True)
        via_b = RoutingTable(topology)
        via_b.install_path(["a", "b", "d"])
        via_c = RoutingTable(topology)
        via_c.install_path(["a", "c", "d"])
        simulator = NoCSimulator(
            topology, via_b.frozen_next_hop(), config=SimulatorConfig(engine=engine)
        )
        simulator.schedule_messages([Message("a", "d", 32)])
        simulator.run_until_drained()
        simulator.routing = via_c.frozen_next_hop()
        simulator.schedule_messages([Message("a", "d", 32)])
        simulator.run_until_drained()
        paths = [packet.path for packet in simulator.statistics.delivered_packets]
        assert paths == [["a", "b", "d"], ["a", "c", "d"]]

    def test_table_mutation_needs_refreeze_and_reassign(self):
        """The end-to-end recipe for late table entries: re-freeze + assign."""
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        simulator = NoCSimulator(topology, table.frozen_next_hop())
        with pytest.raises(RoutingError):
            simulator.next_hop(3, 1)
        table.install_path([3, 2, 1])
        simulator.routing = table.frozen_next_hop()
        assert simulator.next_hop(3, 1) == 2


class TestLateTopologyMutation:
    def test_unsynced_late_channel_is_invisible(self):
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        simulator = NoCSimulator(topology, table.frozen_next_hop())
        topology.add_channel(1, 3)  # added after the fabric was wired
        direct = RoutingTable(topology)  # fresh table: entries may not conflict
        direct.install_path([1, 3])
        simulator.routing = direct.frozen_next_hop()
        # the routing layer resolves the hop, but the fabric was never wired:
        # router 3 has no input queue for the 1 -> 3 channel
        assert direct.frozen_next_hop()(1, 3) == 3
        assert 1 not in simulator.input_queues[3]
        with pytest.raises(SimulationError, match="sync_topology"):
            simulator.next_hop(1, 3)
        assert (1, 3) not in simulator.route_cache

    def test_scheduling_from_an_unsynced_late_router_raises(self):
        """A source router the fabric never wired fails at scheduling, with
        the sync hint; the messages before it in the call stay queued."""
        topology = _line_topology()
        simulator = NoCSimulator(topology, lambda current, destination: destination)
        topology.add_channel(4, 3)
        with pytest.raises(SimulationError, match="sync_topology"):
            simulator.schedule_messages([Message(1, 2, 32), Message(4, 3, 32)])
        assert simulator.statistics.injected_count == 1
        simulator.run_until_drained()
        assert simulator.statistics.delivered_count == 1

    @pytest.mark.parametrize("engine", [ENGINE_EVENT, ENGINE_REFERENCE])
    def test_routing_over_an_unsynced_late_channel_raises(self, engine):
        """A run that routes over a channel the fabric never wired fails with
        a :class:`SimulationError`, not a raw ``KeyError`` from the kernel."""
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        simulator = NoCSimulator(
            topology,
            table.frozen_next_hop(),
            config=SimulatorConfig(engine=engine, max_cycles=1000),
        )
        topology.add_channel(1, 3)
        direct = RoutingTable(topology)
        direct.install_path([1, 3])
        simulator.routing = direct.frozen_next_hop()
        simulator.schedule_messages([Message(source=1, destination=3, size_bits=32)])
        with pytest.raises(SimulationError, match="does not exist"):
            simulator.run_until_drained()

    def test_sync_topology_wires_late_channels_and_routers(self):
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        simulator = NoCSimulator(topology, table.frozen_next_hop())
        topology.add_channel(3, 4, bidirectional=True)  # new router + channels
        topology.add_channel(1, 3)
        simulator.sync_topology()
        assert list(simulator.input_queues) == [1, 2, 3, 4]
        assert (3, 4) in simulator.channel_free_at
        assert (1, 3) in simulator.channel_free_at
        assert simulator.downstream[(1, 3)] is simulator.input_queues[3][1]
        assert simulator.downstream[(3, 4)] is simulator.input_queues[4][3]
        # the late port joins the end of router 3's arbitration order
        assert [port for port, _ in simulator.scan_order[3]] == [LOCAL_PORT, 2, 4, 1]
        assert [port for port, _ in simulator.scan_order[4]] == [LOCAL_PORT, 3]

    def test_sync_topology_keeps_existing_state(self):
        """Re-wiring adopts new elements only: queued packets, channel
        release cycles and router positions survive a sync."""
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        simulator = NoCSimulator(topology, table.frozen_next_hop())
        simulator.schedule_messages([Message(source=1, destination=3, size_bits=96)])
        simulator.step()  # inject and launch onto 1 -> 2
        busy_until = simulator.channel_free_at[(1, 2)]
        queue = simulator.input_queues[2][1]
        topology.add_channel(3, 4, bidirectional=True)
        simulator.sync_topology()
        assert simulator.channel_free_at[(1, 2)] == busy_until > 0
        assert simulator.input_queues[2][1] is queue
        assert simulator.downstream[(1, 2)] is queue
        assert [packet.packet_id for packet, _ in simulator.stuck_packets()] == [0]

    def test_sync_topology_drops_stale_route_memo(self):
        """A memoized decision must not survive a topology change that makes
        a better (and differently-routed) channel available."""
        topology = _line_topology()
        hops = {(1, 3): 2}  # read live by the routing function: no setter call
        simulator = NoCSimulator(topology, lambda current, destination: hops[current, destination])
        assert simulator.next_hop(1, 3) == 2  # memoized against the old fabric
        topology.add_channel(1, 3)
        hops[(1, 3)] = 3
        assert simulator.next_hop(1, 3) == 2  # the stale memo still wins
        simulator.sync_topology()
        assert simulator.route_cache == {}
        assert simulator.next_hop(1, 3) == 3

    @pytest.mark.parametrize("engine", [ENGINE_EVENT, ENGINE_REFERENCE])
    def test_sync_after_a_run_reroutes_the_next_run(self, engine):
        """A decision the kernel memoized during a run does not outlive
        ``sync_topology()``: the next run takes the late direct channel."""
        topology = _line_topology()
        hops = {(1, 3): 2, (2, 3): 3}  # read live by the routing function
        simulator = NoCSimulator(
            topology,
            lambda current, destination: hops[current, destination],
            config=SimulatorConfig(engine=engine),
        )
        simulator.schedule_messages([Message(1, 3, 32)])
        simulator.run_until_drained()
        topology.add_channel(1, 3)
        hops[(1, 3)] = 3
        simulator.sync_topology()
        simulator.schedule_messages([Message(1, 3, 32)])
        simulator.run_until_drained()
        paths = [packet.path for packet in simulator.statistics.delivered_packets]
        assert paths == [[1, 2, 3], [1, 3]]

    def test_simulation_crosses_a_late_added_channel_after_sync(self):
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        simulator = NoCSimulator(
            topology, table.frozen_next_hop(), config=SimulatorConfig(max_cycles=1000)
        )
        topology.add_channel(3, 1)  # close the line into a cycle
        table.install_path([3, 1])
        simulator.routing = table.frozen_next_hop()
        simulator.sync_topology()
        simulator.schedule_messages(
            [Message(source=3, destination=1, size_bits=32, tag="late")]
        )
        simulator.run_until_drained()
        assert len(simulator.statistics.delivered_packets) == 1
        assert simulator.statistics.average_hops() == pytest.approx(1.0)

    def test_simulation_reaches_a_late_added_router_after_sync(self):
        """A router (not just a channel) added post-construction must be
        adopted by the engine's per-router bookkeeping too."""
        topology = _line_topology()
        table = RoutingTable(topology)
        table.install_path([1, 2, 3])
        simulator = NoCSimulator(
            topology, table.frozen_next_hop(), config=SimulatorConfig(max_cycles=1000)
        )
        topology.add_channel(3, 4, bidirectional=True)  # brand-new router 4
        table.install_path([1, 2, 3, 4])
        simulator.routing = table.frozen_next_hop()
        simulator.sync_topology()
        simulator.schedule_messages(
            [Message(source=1, destination=4, size_bits=32, tag="late-router")]
        )
        simulator.run_until_drained()
        assert len(simulator.statistics.delivered_packets) == 1
        assert simulator.statistics.average_hops() == pytest.approx(3.0)

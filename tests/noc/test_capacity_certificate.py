"""The buffer-capacity certificate and the in-flight packets' FIFO order.

Buffer capacity enters the simulator only through three space tests
(launch, re-arm and arrival).  A run that never failed one and whose
input buffers never held more than ``peak_occupancy`` packets is therefore
bit-identical at every capacity above that peak.  The differential test
below checks that claim against real runs on random fabrics, traffic and
capacities.  The event engine's certificate is its own: the oracle of the
cycle model (``tests/simulator_oracle.py``) makes no re-arm test.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.packet import Message
from repro.noc.simulator import ENGINE_EVENT, ENGINES, NoCSimulator, SimulatorConfig
from repro.routing.shortest_path import all_pairs_shortest_paths
from repro.routing.table import RoutingTable
from simulator_oracle import OracleSimulator

CAPACITIES = range(1, 9)

#: the implementations that keep a capacity certificate, by test id
CERTIFYING = pytest.mark.parametrize(
    "simulator_class", [NoCSimulator, OracleSimulator], ids=["event", "oracle"]
)

#: drain budget of the random runs: dense traffic on a ring can deadlock
#: (every buffer on a cycle full), which only a blocked run can do
DRAIN_BUDGET = 2_000


def chain_fabric() -> tuple[Topology, object]:
    topology = Topology(name="chain")
    topology.add_channel(0, 1, length_mm=1.0)
    topology.add_channel(1, 2, length_mm=1.0)
    return topology, lambda node, destination: node + 1


def retry_collision_run(
    capacity: int = 1,
    delay: int = 4,
    simulator: type = NoCSimulator,
    engine: str = ENGINE_EVENT,
) -> NoCSimulator:
    """A waiting arrival and a later launch due on channel 0->1 together.

    At the defaults (one-packet buffers, a 4-cycle pipeline): Q (8 flits)
    holds channel 1->2 until cycle 8, so P waits in router 1's buffer from
    cycle 5.  A (launched at 1) arrives at 6, finds the buffer full and
    waits; B (launched at 2, while P was still in flight) falls due at 7,
    while A still waits.  ``simulator`` may be the oracle's class.
    """
    topology, routing = chain_fabric()
    simulator = simulator(
        topology,
        routing,
        config=SimulatorConfig(
            engine=engine,
            buffer_capacity_packets=capacity,
            router_pipeline_delay_cycles=delay,
        ),
    )
    simulator.schedule_message(Message(1, 2, 256), cycle=0)  # Q, packet 0
    simulator.schedule_message(Message(0, 2, 32), cycle=0)  # P, packet 1
    simulator.schedule_message(Message(0, 2, 32), cycle=1)  # A, packet 2
    simulator.schedule_message(Message(0, 2, 32), cycle=2)  # B, packet 3
    return simulator


class TestInFlightOrder:
    def test_retry_and_later_launch_fall_due_together(self):
        simulator = retry_collision_run()
        channel = simulator.fabric.channel_ids[(0, 1)]
        due_together = []
        while simulator.current_cycle < 12:
            # a parked arrival is due on every cycle until a pop frees its buffer
            flights = simulator._parked.get(channel, []) + [
                flight
                for flight in simulator._arrivals.get(simulator.current_cycle, [])
                if flight[2] == channel
            ]
            due = [packet for _, packet, _ in sorted(flights, key=lambda f: f[0])]
            if len(due) > 1:
                due_together.append((simulator.current_cycle, due))
            simulator.run(1)
        # the scenario exercises the case: A (2), parked since cycle 6, and B
        # (3) due on one cycle, A first in launch order
        assert due_together and due_together[0] == (7, [2, 3])

    @CERTIFYING
    def test_channel_fifo_order_is_kept(self, simulator_class):
        simulator = retry_collision_run(simulator=simulator_class)
        simulator.run_until_drained()
        cycles = simulator.statistics.delivery_cycles()
        assert cycles[1] < cycles[2] < cycles[3]  # P, A, B in launch order
        assert simulator.engine_info()["blocked"] is True

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_matches_the_oracle(self, engine):
        candidate = retry_collision_run(engine=engine)
        oracle = retry_collision_run(simulator=OracleSimulator)
        candidate.run_until_drained()
        oracle.run_until_drained()
        assert candidate.report() == oracle.report()
        assert candidate.statistics.delivery_cycles() == oracle.statistics.delivery_cycles()
        assert candidate.current_cycle == oracle.current_cycle


class TestCertificate:
    @CERTIFYING
    def test_light_load_is_unblocked(self, simulator_class):
        topology, routing = chain_fabric()
        simulator = simulator_class(topology, routing)
        simulator.schedule_message(Message(0, 2, 32), cycle=0)
        simulator.schedule_message(Message(0, 2, 32), cycle=5)
        simulator.run_until_drained()
        info = simulator.engine_info()
        assert info["blocked"] is False
        assert info["peak_occupancy"] == 1

    def test_batch_engine_reports_no_certificate(self):
        pytest.importorskip("numpy")
        topology, routing = chain_fabric()
        simulator = NoCSimulator(
            topology, routing, config=SimulatorConfig(engine="batch")
        )
        simulator.schedule_message(Message(0, 2, 32), cycle=0)
        simulator.run_until_drained()
        assert "blocked" not in simulator.engine_info()


@st.composite
def random_fabrics(draw) -> tuple[Topology, object]:
    """A ring (so every router reaches every other) plus random chords,
    routed along BFS-shortest first hops (loop-free)."""
    size = draw(st.integers(min_value=3, max_value=8))
    bidirectional = draw(st.booleans())
    topology = Topology(name="random")
    for node in range(size):
        topology.add_channel(
            node, (node + 1) % size, length_mm=1.0, bidirectional=bidirectional
        )
    chords = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=size
        )
    )
    for source, target in chords:
        if source != target and not topology.has_channel(source, target):
            topology.add_channel(source, target, length_mm=2.0)
    table = RoutingTable(topology)
    for (source, destination), path in all_pairs_shortest_paths(topology).items():
        table.set_next_hop(source, destination, path[1])
    return topology, table.frozen_next_hop()


traffic_entries = st.tuples(
    st.integers(min_value=0, max_value=12),  # injection cycle
    st.integers(min_value=0, max_value=7),  # source index
    st.integers(min_value=0, max_value=7),  # destination index
    st.sampled_from([8, 32, 96, 256]),  # size in bits (1..8 flits)
)


def certified_run(fabric, traffic, capacity: int, delay: int) -> NoCSimulator | None:
    """The run at one capacity, or None when it deadlocked."""
    topology, routing = fabric
    simulator = NoCSimulator(
        topology,
        routing,
        config=SimulatorConfig(
            buffer_capacity_packets=capacity,
            router_pipeline_delay_cycles=delay,
            max_cycles=DRAIN_BUDGET,
        ),
    )
    nodes = topology.routers()
    scheduled = False
    for cycle, source, destination, size_bits in traffic:
        source, destination = nodes[source % len(nodes)], nodes[destination % len(nodes)]
        if source != destination:
            simulator.schedule_message(Message(source, destination, size_bits), cycle=cycle)
            scheduled = True
    if not scheduled:
        simulator.schedule_message(Message(nodes[0], nodes[1], 32), cycle=0)
    try:
        simulator.run_until_drained()
    except SimulationError:
        assert simulator.engine_info()["blocked"] is True
        return None
    return simulator


@pytest.mark.differential
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fabric=random_fabrics(),
    traffic=st.lists(traffic_entries, min_size=4, max_size=48),
    capacity=st.sampled_from(list(CAPACITIES)),
    delay=st.sampled_from([1, 2, 4]),
)
def test_certified_capacity_equals_a_real_run(fabric, traffic, capacity, delay):
    donor = certified_run(fabric, traffic, capacity, delay)
    if donor is None:
        return  # deadlocked: blocked, so it certifies nothing
    info = donor.engine_info()
    assert info["peak_occupancy"] <= capacity
    if info["blocked"]:
        return  # a blocked run certifies nothing
    for sibling_capacity in CAPACITIES:
        if sibling_capacity <= info["peak_occupancy"]:
            continue
        sibling = certified_run(fabric, traffic, sibling_capacity, delay)
        assert sibling.report() == donor.report()
        assert sibling.statistics.delivery_cycles() == donor.statistics.delivery_cycles()
        assert sibling.cycles_stepped == donor.cycles_stepped
        assert sibling.current_cycle == donor.current_cycle
        assert sibling.engine_info()["blocked"] is False
        assert sibling.engine_info()["peak_occupancy"] == info["peak_occupancy"]

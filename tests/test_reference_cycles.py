"""Hot paths leave no reference cycles behind.

Objects caught in a reference cycle wait for the cyclic garbage
collector, whose passes run less often the fewer objects a program
allocates; until then they hold their memory.  A decomposition search's
transposition table and bound caches, a bisection search's state and a
finished simulator, on its own fabric or a shared one, must all be
freed by reference counting alone.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.arch.metrics import bisection_bandwidth
from repro.core.decomposition import DecompositionConfig, decompose
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_EVENT,
    ENGINES,
    NoCSimulator,
    SimulatorConfig,
    WiredFabric,
)
from repro.routing.policies import get_policy


@pytest.fixture(scope="module")
def engines_loaded(mesh_4x4):
    """Run one throwaway simulation on every engine.

    An engine's first run imports what it needs (the batch engine loads
    numpy), and imports leave cyclic garbage of their own; doing them here
    keeps each test's count to what the test itself leaves behind, however
    the tests are ordered or selected.
    """
    table = get_policy("xy").build(mesh_4x4).frozen_next_hop()
    for engine in ENGINES:
        simulator = NoCSimulator(mesh_4x4, table, config=SimulatorConfig(engine=engine))
        simulator.schedule_messages([Message(1, 16, 64)])
        simulator.run_until_drained()


@pytest.fixture()
def cyclic_gc_off(engines_loaded):
    """Collect what is pending, then keep the cyclic collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_decomposition_leaves_no_cycles(cyclic_gc_off, aes_acg, aes_lib):
    # a budget keeps the test short; the search state is built all the same
    result = decompose(aes_acg, aes_lib, config=DecompositionConfig(max_nodes_expanded=50))
    assert result.statistics.nodes_expanded > 0
    del result
    assert gc.collect() == 0


def test_bisection_search_leaves_no_cycles(cyclic_gc_off, mesh_4x4):
    assert bisection_bandwidth(mesh_4x4).bandwidth_bits_per_cycle > 0
    assert gc.collect() == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_a_drained_simulator_is_freed_by_reference_counting(cyclic_gc_off, mesh_4x4, engine):
    simulator = NoCSimulator(
        mesh_4x4,
        get_policy("xy").build(mesh_4x4).frozen_next_hop(),
        config=SimulatorConfig(engine=engine),
    )
    simulator.schedule_messages([Message(1, 16, 64), Message(16, 1, 64), Message(6, 11, 256)])
    simulator.run_until_drained()
    assert simulator.report()["delivered"] == 3.0
    statistics = simulator.statistics
    gone = weakref.ref(simulator)
    del simulator
    assert gone() is None
    # the statistics outlive their simulator and still build packet views
    paths = {packet.packet_id: packet.path for packet in statistics.delivered_packets}
    assert paths[1] == [16, 15, 14, 13, 9, 5, 1]
    assert gc.collect() == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_a_simulator_on_a_shared_fabric_is_freed_by_reference_counting(
    cyclic_gc_off, mesh_4x4, engine
):
    fabric = WiredFabric(mesh_4x4, get_policy("xy").build(mesh_4x4).frozen_next_hop())
    for capacity in (1, 4):
        simulator = NoCSimulator.from_fabric(
            fabric, SimulatorConfig(engine=engine, buffer_capacity_packets=capacity)
        )
        simulator.schedule_messages([Message(1, 16, 64), Message(16, 1, 64)])
        simulator.run_until_drained()
        assert simulator.report()["delivered"] == 2.0
        gone = weakref.ref(simulator)
        del simulator
        assert gone() is None
    # the fabric outlives its simulators, and so does the event engine's
    # routing memo on it
    assert fabric.simulators == 2
    memoized = any(channel is not None for hops in fabric.hops for channel in hops)
    assert memoized == (engine == ENGINE_EVENT)
    assert gc.collect() == 0

"""End-to-end coverage for ``SynthesisOptions(bidirectional_links=True)``.

The option promises that every primitive link becomes a full-duplex pair,
making any synthesized topology strongly connected.  These tests drive the
full flow — synthesize, route, simulate — on a one-way workload (a pipeline
chain, which without the option yields a topology that only flows forward).
"""

from __future__ import annotations

import pytest

from repro.core.decomposition import decompose
from repro.core.graph import ApplicationGraph
from repro.core.library import default_library
from repro.core.synthesis import SynthesisOptions, synthesize_architecture
from repro.dse.pipeline import EvaluationSettings, evaluate
from repro.dse.scenarios import tgff_scenario
from repro.energy.technology import FPGA_VIRTEX2
from repro.exceptions import RoutingError
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import acg_messages
from repro.routing.shortest_path import bfs_shortest_path
from repro.workloads.acg_builder import attach_grid_floorplan


@pytest.fixture(scope="module")
def chain_architectures():
    """The same 5-stage pipeline synthesized with and without full duplex."""
    acg = ApplicationGraph.from_traffic(
        {(stage, stage + 1): 96.0 for stage in range(1, 5)}, name="chain5"
    )
    attach_grid_floorplan(acg)
    decomposition = decompose(acg, default_library())
    uni = synthesize_architecture(
        acg, decomposition, options=SynthesisOptions(bidirectional_links=False)
    )
    bidi = synthesize_architecture(
        acg, decomposition, options=SynthesisOptions(bidirectional_links=True)
    )
    return acg, uni, bidi


class TestBidirectionalSynthesis:
    def test_every_channel_has_its_reverse(self, chain_architectures):
        _, uni, bidi = chain_architectures
        assert all(
            bidi.topology.has_channel(channel.target, channel.source)
            for channel in bidi.topology.channels()
        )
        # the one-way chain is *not* full duplex without the option
        assert any(
            not uni.topology.has_channel(channel.target, channel.source)
            for channel in uni.topology.channels()
        )
        assert bidi.topology.num_physical_links >= uni.topology.num_physical_links

    def test_full_duplex_makes_the_topology_strongly_connected(self, chain_architectures):
        _, uni, bidi = chain_architectures
        routers = bidi.topology.routers()
        for source in routers:
            for target in routers:
                if source != target:
                    assert bfs_shortest_path(bidi.topology, source, target)
        # the unidirectional chain cannot route backwards
        with pytest.raises(RoutingError):
            bfs_shortest_path(uni.topology, routers[-1], routers[0])

    def test_route_and_simulate_end_to_end(self, chain_architectures):
        acg, _, bidi = chain_architectures
        assert bidi.is_feasible
        bidi.routing_table.validate_pairs(acg.edges())
        simulator = NoCSimulator(
            bidi.topology, bidi.routing_table.next_hop, technology=FPGA_VIRTEX2
        )
        simulator.schedule_messages(acg_messages(acg))
        simulator.run_until_drained()
        statistics = simulator.statistics
        assert statistics.all_delivered
        assert statistics.total_cycles > 0
        assert statistics.average_latency_cycles() > 0
        assert simulator.energy.total_energy_uj > 0

    def test_bidirectional_axis_through_the_dse_pipeline(self):
        """The option is sweepable: the same scenario, both settings, both ok."""
        scenario = tgff_scenario(num_tasks=10, seed=7)
        for bidirectional in (False, True):
            record = evaluate(
                scenario,
                EvaluationSettings(architecture="custom", bidirectional_links=bidirectional),
            )
            assert record.succeeded, record.error
            assert record.metrics["throughput_mbps"] > 0

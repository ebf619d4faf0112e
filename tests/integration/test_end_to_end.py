"""Integration tests: the full flow from workload to simulated architecture."""

from __future__ import annotations

import pytest

from repro import (
    DecompositionConfig,
    LinkCountCostModel,
    decompose,
    default_library,
    synthesize_architecture,
)
from repro.arch.metrics import topology_report
from repro.core.constraints import channel_volume_loads
from repro.noc.simulator import NoCSimulator, SimulatorConfig
from repro.noc.traffic import acg_messages
from repro.routing.policies import get_policy
from repro.workloads.acg_builder import acg_from_task_graph, attach_grid_floorplan
from repro.workloads.random_acg import random_decomposable_acg
from repro.workloads.tgff import automotive_benchmark


def quick_config() -> DecompositionConfig:
    return DecompositionConfig(max_matchings_per_primitive=3)


class TestWorkloadToArchitecture:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_workload_full_flow(self, seed):
        """Workload -> decomposition -> synthesis -> simulation, end to end."""
        acg = random_decomposable_acg(num_nodes=10, seed=seed)
        attach_grid_floorplan(acg)
        library = default_library()
        result = decompose(acg, library, cost_model=LinkCountCostModel(), config=quick_config())
        result.validate_cover()

        architecture = synthesize_architecture(acg, result)
        assert architecture.constraint_report is not None
        assert architecture.constraint_report.satisfied, architecture.constraint_report.violations

        simulator = NoCSimulator(
            architecture.topology,
            architecture.routing_table.next_hop,
            config=SimulatorConfig(router_pipeline_delay_cycles=2),
        )
        messages = acg_messages(acg, packet_size_bits=32)
        simulator.schedule_messages(messages)
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered
        assert simulator.energy.total_energy_pj > 0

    def test_automotive_benchmark_flow(self):
        acg = acg_from_task_graph(automotive_benchmark())
        result = decompose(
            acg, default_library(), cost_model=LinkCountCostModel(), config=quick_config()
        )
        result.validate_cover()
        architecture = synthesize_architecture(acg, result)
        # every task-graph edge must be routable on the synthesized topology
        for source, target in acg.edges():
            route = architecture.routing_table.route(source, target)
            assert route[0] == source and route[-1] == target

    def test_simulated_hop_volume_matches_static_routing(self, aes_synthesis):
        """The volume each channel carries in simulation equals the static
        per-channel load predicted from the routing table."""
        acg = aes_synthesis.acg
        table = aes_synthesis.architecture.routing_table
        static_loads = channel_volume_loads(acg, table)

        simulator = NoCSimulator(
            aes_synthesis.architecture.topology,
            table.next_hop,
            config=SimulatorConfig(),
        )
        simulator.schedule_messages(acg_messages(acg, packet_size_bits=8))
        simulator.run_until_drained()

        simulated_bits: dict[tuple, float] = {}
        for packet in simulator.statistics.delivered_packets:
            for hop in zip(packet.path, packet.path[1:]):
                simulated_bits[hop] = simulated_bits.get(hop, 0.0) + packet.size_bits
        assert simulated_bits == pytest.approx(static_loads)


class TestCustomVsMeshStructure:
    def test_custom_aes_topology_has_lower_weighted_hops_than_mesh(self, aes_synthesis, mesh_4x4):
        """The structural reason the customized architecture wins: fewer
        volume-weighted hops for the AES traffic."""
        acg = aes_synthesis.acg
        custom_report = topology_report(aes_synthesis.architecture.topology, traffic=acg)
        mesh_report = topology_report(mesh_4x4, traffic=acg)
        assert custom_report.average_hops_weighted < mesh_report.average_hops_weighted

    def test_resource_usage_comparable(self, aes_synthesis, mesh_4x4):
        """Both designs occupied ~32% of the FPGA in the paper; structurally the
        customized topology should not need more than ~1.5x the mesh wiring."""
        custom_links = aes_synthesis.architecture.topology.num_physical_links
        assert custom_links <= 1.5 * mesh_4x4.num_physical_links

    def test_mesh_simulation_baseline_consistency(self, mesh_4x4, aes_acg):
        simulator = NoCSimulator(
            mesh_4x4,
            get_policy("xy").build(mesh_4x4).frozen_next_hop(),
            config=SimulatorConfig(router_pipeline_delay_cycles=2),
        )
        simulator.schedule_messages(acg_messages(aes_acg, packet_size_bits=8))
        simulator.run_until_drained()
        stats = simulator.statistics
        assert stats.all_delivered
        # XY routing on the mesh: average hops must match the ACG's weighted
        # Manhattan distance
        expected_hops = sum(
            mesh_4x4.manhattan_hops(s, t) for s, t in aes_acg.edges()
        ) / aes_acg.num_edges
        assert stats.average_hops() == pytest.approx(expected_hops, rel=0.2)

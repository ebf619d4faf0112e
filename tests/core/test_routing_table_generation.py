"""Unit tests for schedule-derived routing-table generation (Section 4.5)."""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import DecompositionConfig, decompose
from repro.core.routing_table import build_routing_table, install_flow_weakly
from repro.core.synthesis import TopologySynthesizer
from repro.routing.table import RoutingTable


@pytest.fixture()
def square_topology() -> Topology:
    """Four routers on a bidirectional square 1-2-4-3-1."""
    topology = Topology(name="square")
    for node in (1, 2, 3, 4):
        topology.add_router(node)
    topology.add_channel(1, 2, bidirectional=True)
    topology.add_channel(2, 4, bidirectional=True)
    topology.add_channel(4, 3, bidirectional=True)
    topology.add_channel(3, 1, bidirectional=True)
    return topology


class TestInstallFlowWeakly:
    def test_installs_fresh_route(self, square_topology):
        table = RoutingTable(square_topology)
        actual = install_flow_weakly(table, [1, 2, 4])
        assert actual == [1, 2, 4]
        assert table.next_hop(1, 4) == 2
        assert table.next_hop(2, 4) == 4

    def test_defers_to_existing_entries(self, square_topology):
        table = RoutingTable(square_topology)
        install_flow_weakly(table, [1, 3, 4])   # existing route to 4 goes via 3
        actual = install_flow_weakly(table, [1, 2, 4])  # conflicting plan
        assert actual == [1, 3, 4]              # the earlier entry wins
        assert table.next_hop(1, 4) == 3

    def test_falls_back_to_shortest_path_after_deviation(self, square_topology):
        table = RoutingTable(square_topology)
        # existing entry at router 1 pushes traffic for 4 towards 2 ...
        table.set_next_hop(1, 4, 2)
        # ... while the planned path goes through 3; after deviating to 2 the
        # remainder of the plan is useless and a shortest path is used.
        actual = install_flow_weakly(table, [1, 3, 4])
        assert actual[0] == 1 and actual[-1] == 4
        assert table.route(1, 4)[-1] == 4

    def test_short_paths_are_noops(self, square_topology):
        table = RoutingTable(square_topology)
        assert install_flow_weakly(table, [1]) == [1]
        assert table.num_entries == 0


class TestBuildRoutingTable:
    def _architecture(self, acg, library):
        result = decompose(
            acg,
            library,
            cost_model=LinkCountCostModel(),
            config=DecompositionConfig(max_matchings_per_primitive=4),
        )
        topology = TopologySynthesizer().build_topology(acg, result)
        return result, topology

    def test_table_covers_all_traffic(self, k4_acg, library):
        result, topology = self._architecture(k4_acg, library)
        table = build_routing_table(result, topology)
        table.validate_pairs(k4_acg.edges())

    def test_aes_routing_table_has_no_loops(self, aes_synthesis):
        table = aes_synthesis.architecture.routing_table
        for source, target in aes_synthesis.acg.edges():
            route = table.route(source, target)
            assert len(route) == len(set(route))  # no repeated routers

    def test_aes_gossip_routes_stay_inside_columns(self, aes_synthesis):
        """Traffic between two nodes of an AES state column must not leave
        that column (it rides the column's MGG-4)."""
        table = aes_synthesis.architecture.routing_table
        for column_start in (1, 2, 3, 4):
            column = {column_start, column_start + 4, column_start + 8, column_start + 12}
            for source in column:
                for target in column:
                    if source == target:
                        continue
                    assert set(table.route(source, target)) <= column

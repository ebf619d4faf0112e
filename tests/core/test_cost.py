"""Unit tests for the cost models (Equations 1, 3 and 5)."""

from __future__ import annotations

import pytest

from repro.core.cost import (
    EnergyCostModel,
    LinkCountCostModel,
    UnitCostModel,
    default_cost_model,
)
from repro.core.graph import ApplicationGraph, DiGraph
from repro.core.matching import Matching
from repro.core.primitives import make_gossip_primitive, make_loop_primitive
from repro.energy.technology import FPGA_VIRTEX2


@pytest.fixture()
def k4_matching(k4_acg):
    return Matching.from_dict(make_gossip_primitive(4), {1: 1, 2: 2, 3: 3, 4: 4})


class TestUnitCostModel:
    def test_route_cost_is_volume_times_hops(self, k4_acg):
        model = UnitCostModel()
        assert model.route_cost(k4_acg, (1, 2), (1, 2)) == pytest.approx(32.0)
        assert model.route_cost(k4_acg, (1, 2), (1, 3, 2)) == pytest.approx(64.0)

    def test_matching_cost_sums_covered_routes(self, k4_acg, k4_matching):
        model = UnitCostModel()
        # MGG-4: 8 direct edges (1 hop) + 4 two-hop edges, 32 bits each
        expected = 32.0 * (8 * 1 + 4 * 2)
        assert model.matching_cost(k4_matching, k4_acg) == pytest.approx(expected)

    def test_remainder_cost_and_penalty(self, k4_acg):
        remainder = DiGraph.from_edges([(1, 2)])
        assert UnitCostModel().remainder_cost(remainder, k4_acg) == pytest.approx(32.0)
        assert UnitCostModel(remainder_penalty=2.0).remainder_cost(
            remainder, k4_acg
        ) == pytest.approx(64.0)

    def test_decomposition_cost_is_equation3_sum(self, k4_acg, k4_matching):
        model = UnitCostModel()
        remainder = DiGraph()
        total = model.decomposition_cost([k4_matching], remainder, k4_acg)
        assert total == pytest.approx(model.matching_cost(k4_matching, k4_acg))

    def test_edge_cover_costs_sum_to_the_matching_cost(self, k4_acg, k4_matching):
        model = UnitCostModel()
        charges = sum(
            model.edge_cover_cost(k4_acg, edge, len(route) - 1)
            for edge, route in k4_matching.routes_in_cores().items()
        )
        assert charges == pytest.approx(model.matching_cost(k4_matching, k4_acg))


class TestLinkCountCostModel:
    def test_matching_cost_counts_physical_links(self, k4_acg, k4_matching):
        model = LinkCountCostModel()
        assert model.matching_cost(k4_matching, k4_acg) == pytest.approx(4.0)

    def test_loop_matching_cost(self, k4_acg):
        loop = Matching.from_dict(make_loop_primitive(4), {1: 1, 2: 2, 3: 3, 4: 4})
        assert LinkCountCostModel().matching_cost(loop, k4_acg) == pytest.approx(4.0)

    def test_remainder_cost_is_edge_count(self, k4_acg):
        remainder = DiGraph.from_edges([(1, 2), (2, 3)])
        assert LinkCountCostModel().remainder_cost(remainder, k4_acg) == pytest.approx(2.0)

    def test_flat_matching_cost_is_the_matching_cost(self, k4_acg, k4_matching):
        model = LinkCountCostModel()
        assert model.flat_matching_cost(k4_matching.primitive) == model.matching_cost(
            k4_matching, k4_acg
        )


class TestEnergyCostModel:
    def test_route_cost_uses_floorplan_distances(self, k4_acg):
        model = EnergyCostModel(technology=FPGA_VIRTEX2)
        direct = model.route_cost(k4_acg, (1, 2), (1, 2))
        two_hop = model.route_cost(k4_acg, (1, 2), (1, 3, 2))
        assert two_hop > direct > 0.0

    def test_energy_grows_with_distance(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 64.0, (1, 3): 64.0})
        acg.set_position(1, 0, 0)
        acg.set_position(2, 2, 0)
        acg.set_position(3, 8, 0)
        model = EnergyCostModel()
        near = model.route_cost(acg, (1, 2), (1, 2))
        far = model.route_cost(acg, (1, 3), (1, 3))
        assert far > near

    def test_fallback_length_used_without_positions(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 64.0})
        model = EnergyCostModel(fallback_link_length_mm=3.0)
        assert model.route_cost(acg, (1, 2), (1, 2)) > 0.0

    def test_edge_cover_costs_are_admissible(self, k4_acg, k4_matching):
        model = EnergyCostModel()
        charges = sum(
            model.edge_cover_cost(k4_acg, edge, len(route) - 1)
            for edge, route in k4_matching.routes_in_cores().items()
        )
        assert 0.0 < charges <= model.matching_cost(k4_matching, k4_acg)

    def test_matching_cost_equation5(self, k4_acg):
        """Equation 5: the matching cost equals summing v(e) * E_bit(route) over
        the covered edges, with E_bit evaluated per-link."""
        model = EnergyCostModel(technology=FPGA_VIRTEX2)
        matching = Matching.from_dict(make_gossip_primitive(4), {1: 1, 2: 2, 3: 3, 4: 4})
        manual = sum(
            model.route_cost(k4_acg, edge, route)
            for edge, route in matching.routes_in_cores().items()
        )
        assert model.matching_cost(matching, k4_acg) == pytest.approx(manual)


class TestDefaultCostModel:
    def test_energy_model_chosen_when_floorplanned(self, k4_acg):
        assert isinstance(default_cost_model(k4_acg), EnergyCostModel)

    def test_unit_model_chosen_without_positions(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 1.0})
        assert isinstance(default_cost_model(acg), UnitCostModel)

    def test_unit_model_for_partially_floorplanned(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 1.0, (2, 3): 1.0})
        acg.set_position(1, 0, 0)
        assert isinstance(default_cost_model(acg), UnitCostModel)

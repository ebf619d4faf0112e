"""Unit tests for matchings (Definition 4) and the remainder listing."""

from __future__ import annotations

import pytest

from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import SearchStatistics, replay_cover
from repro.core.graph import ApplicationGraph, DiGraph
from repro.core.isomorphism import VF2Matcher
from repro.core.matching import Matching
from repro.core.primitives import make_gossip_primitive, make_path_primitive
from repro.exceptions import DecompositionError


@pytest.fixture()
def mgg4():
    return make_gossip_primitive(4)


@pytest.fixture()
def k4_matching(mgg4, k4_acg):
    mapping = {1: 1, 2: 2, 3: 3, 4: 4}
    return Matching.from_dict(mgg4, mapping)


class TestMatchingConstruction:
    def test_from_dict_requires_all_primitive_nodes(self, mgg4):
        with pytest.raises(DecompositionError):
            Matching.from_dict(mgg4, {1: 10, 2: 20})

    def test_from_dict_requires_injective_mapping(self, mgg4):
        with pytest.raises(DecompositionError):
            Matching.from_dict(mgg4, {1: 10, 2: 10, 3: 30, 4: 40})

    def test_from_mapping_via_isomorphism(self, mgg4, k4_acg):
        mapping = VF2Matcher(mgg4.representation, k4_acg.structural_copy()).find_one()
        assert mapping is not None
        matching = Matching.from_mapping(mgg4, mapping)
        assert set(matching.cores()) == {1, 2, 3, 4}

    def test_cores(self, k4_matching):
        assert sorted(k4_matching.cores()) == [1, 2, 3, 4]


class TestMatchingGeometry:
    def test_covered_edges_are_images_of_requirement_edges(self, k4_matching):
        covered = k4_matching.covered_edges()
        assert len(covered) == 12
        assert (1, 2) in covered and (4, 1) in covered

    def test_implementation_links_and_physical_links(self, k4_matching):
        directed = k4_matching.implementation_links()
        assert len(directed) == 8  # MGG-4: 4 full-duplex links
        assert len(k4_matching.physical_links()) == 4

    def test_routes_in_cores_covers_every_edge(self, k4_matching):
        routes = k4_matching.routes_in_cores()
        assert set(routes) == k4_matching.covered_edges()
        for (source, target), route in routes.items():
            assert route[0] == source and route[-1] == target


class TestMatchingGraphOperations:
    def test_subtract_from_removes_exactly_covered_edges(self, k4_matching, k4_acg):
        residual = k4_matching.subtract_from(k4_acg.structural_copy())
        assert residual.num_edges == 0
        assert residual.num_nodes == 4  # vertices preserved (Definition 2)

    def test_verify_against_detects_missing_edges(self, mgg4):
        matching = Matching.from_dict(mgg4, {1: 1, 2: 2, 3: 3, 4: 4})
        sparse = DiGraph.from_edges([(1, 2)])
        with pytest.raises(DecompositionError):
            matching.verify_against(sparse)


class TestMatchingReporting:
    def test_describe_uses_paper_format(self, mgg4):
        mgg4.primitive_id = 1
        matching = Matching.from_dict(mgg4, {1: 1, 2: 5, 3: 9, 4: 13})
        text = matching.describe()
        assert text.startswith("1: MGG4")
        assert "(1 1)" in text and "(4 13)" in text

    def test_sort_key_orders_matchings_deterministically(self, mgg4):
        path = make_path_primitive(3)
        mgg4.primitive_id = 1
        path.primitive_id = 7
        gossip_match = Matching.from_dict(mgg4, {1: 1, 2: 2, 3: 3, 4: 4})
        path_match = Matching.from_dict(path, {1: 1, 2: 2, 3: 3})
        assert gossip_match.sort_key() < path_match.sort_key()
        assert gossip_match.sort_key() == gossip_match.sort_key()


class TestRemainderListing:
    def test_empty_remainder(self, k4_acg, k4_matching):
        result = replay_cover(k4_acg, [k4_matching], LinkCountCostModel(), SearchStatistics())
        assert result.remainder.num_edges == 0
        assert result.describe().splitlines()[-1] == " 0: Remaining Graph: (empty)"

    def test_nonempty_remainder_lists_edges(self):
        acg = ApplicationGraph.from_traffic({(9, 11): 1.0, (11, 9): 1.0})
        result = replay_cover(acg, [], LinkCountCostModel(), SearchStatistics())
        assert result.remainder.num_edges == 2
        assert result.describe(include_cost=False) == "0: Remaining Graph: (9 11), (11 9)"

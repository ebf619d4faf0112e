"""Unit tests for communication primitives and their optimal implementations."""

from __future__ import annotations

import pytest

from repro.core.graph import DiGraph
from repro.core.primitives import (
    CommunicationPrimitive,
    PrimitiveKind,
    derive_internal_routes,
    make_broadcast_primitive,
    make_gossip_primitive,
    make_loop_primitive,
    make_multicast_primitive,
    make_path_primitive,
)
from repro.core.schedules import CommunicationSchedule, Round, broadcast_round_lower_bound
from repro.exceptions import LibraryError


class TestGossipPrimitive:
    def test_mgg4_structure_matches_figure1(self):
        mgg4 = make_gossip_primitive(4)
        assert mgg4.kind is PrimitiveKind.GOSSIP
        assert mgg4.size == 4
        assert mgg4.num_requirement_edges == 12  # complete digraph on 4 nodes
        assert mgg4.num_physical_links == 4  # the 4-cycle MGG-4
        assert mgg4.num_rounds == 2

    def test_mgg4_routes_node1_to_node4_via_node3(self):
        """Section 4.5: 'if vertex 1 needs to send a message to vertex 4, then
        it will forward its message to vertex 3 first'."""
        mgg4 = make_gossip_primitive(4)
        assert mgg4.route_for(1, 4) == (1, 3, 4)

    def test_mgg4_every_requirement_edge_routed(self):
        mgg4 = make_gossip_primitive(4)
        for edge in mgg4.representation.edges():
            route = mgg4.route_for(*edge)
            assert route[0] == edge[0] and route[-1] == edge[1]
            assert len(route) - 1 <= 2  # diameter of MGG-4 is 2

    def test_mgg2(self):
        mgg2 = make_gossip_primitive(2)
        assert mgg2.num_requirement_edges == 2
        assert mgg2.num_physical_links == 1
        assert mgg2.num_rounds == 1

    def test_mgg8_is_hypercube(self):
        mgg8 = make_gossip_primitive(8)
        assert mgg8.num_physical_links == 12  # 3-cube
        assert mgg8.num_rounds == 3
        assert mgg8.diameter() <= 3

    def test_non_power_of_two_rejected(self):
        with pytest.raises(LibraryError):
            make_gossip_primitive(6)
        with pytest.raises(LibraryError):
            make_gossip_primitive(1)


class TestBroadcastPrimitive:
    @pytest.mark.parametrize("receivers", [1, 2, 3, 4, 7])
    def test_broadcast_is_round_optimal_with_minimal_links(self, receivers):
        primitive = make_broadcast_primitive(receivers)
        assert primitive.kind is PrimitiveKind.BROADCAST
        assert primitive.num_requirement_edges == receivers
        assert primitive.num_physical_links == receivers  # tree: n-1 links
        assert primitive.num_rounds == broadcast_round_lower_bound(receivers + 1)

    def test_broadcast_g1to3_matches_paper(self):
        g13 = make_broadcast_primitive(3, name="G1to3")
        assert g13.size == 4
        assert g13.num_rounds == 2  # ceil(log2 4)

    def test_broadcast_needs_a_receiver(self):
        with pytest.raises(LibraryError):
            make_broadcast_primitive(0)


class TestPathAndLoopPrimitives:
    def test_path_primitive(self):
        p4 = make_path_primitive(4)
        assert p4.kind is PrimitiveKind.PATH
        assert p4.num_requirement_edges == 3
        assert p4.route_for(1, 2) == (1, 2)

    def test_loop_primitive(self):
        l5 = make_loop_primitive(5)
        assert l5.kind is PrimitiveKind.LOOP
        assert l5.num_requirement_edges == 5
        assert l5.route_for(5, 1) == (5, 1)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(LibraryError):
            make_path_primitive(1)
        with pytest.raises(LibraryError):
            make_loop_primitive(2)


class TestMulticastPrimitive:
    def test_multicast(self):
        m = make_multicast_primitive(5)
        assert m.kind is PrimitiveKind.MULTICAST
        assert m.num_requirement_edges == 5
        m.validate()

    def test_multicast_needs_receiver(self):
        with pytest.raises(LibraryError):
            make_multicast_primitive(0)


class TestPrimitiveValidation:
    def test_validate_catches_missing_route(self):
        mgg4 = make_gossip_primitive(4)
        broken = CommunicationPrimitive(
            name="broken",
            kind=PrimitiveKind.GOSSIP,
            representation=mgg4.representation,
            implementation=mgg4.implementation,
            schedule=mgg4.schedule,
            internal_routes={},
        )
        with pytest.raises(LibraryError):
            broken.validate()

    def test_validate_catches_route_over_missing_link(self):
        mgg4 = make_gossip_primitive(4)
        routes = dict(mgg4.internal_routes)
        routes[(1, 4)] = (1, 4)  # there is no direct 1->4 link in MGG-4
        broken = CommunicationPrimitive(
            name="broken",
            kind=PrimitiveKind.GOSSIP,
            representation=mgg4.representation,
            implementation=mgg4.implementation,
            schedule=mgg4.schedule,
            internal_routes=routes,
        )
        with pytest.raises(LibraryError):
            broken.validate()

    def test_validate_catches_node_set_mismatch(self):
        mgg4 = make_gossip_primitive(4)
        smaller = DiGraph.from_edges([(1, 2), (2, 1)])
        broken = CommunicationPrimitive(
            name="broken",
            kind=PrimitiveKind.GOSSIP,
            representation=mgg4.representation,
            implementation=smaller,
            schedule=mgg4.schedule,
            internal_routes=mgg4.internal_routes,
        )
        with pytest.raises(LibraryError):
            broken.validate()

    def test_validate_catches_non_gossiping_schedule(self):
        mgg4 = make_gossip_primitive(4)
        lazy_schedule = CommunicationSchedule.from_rounds([Round.exchanges((1, 2))])
        broken = CommunicationPrimitive(
            name="broken",
            kind=PrimitiveKind.GOSSIP,
            representation=mgg4.representation,
            implementation=mgg4.implementation,
            schedule=lazy_schedule,
            internal_routes=mgg4.internal_routes,
        )
        with pytest.raises(LibraryError):
            broken.validate()


class TestRouteDerivation:
    def test_derive_internal_routes_uses_shortest_paths(self):
        representation = DiGraph.from_edges([(1, 3)])
        implementation = DiGraph.from_edges([(1, 2), (2, 3)])
        routes = derive_internal_routes(representation, implementation)
        assert routes[(1, 3)] == (1, 2, 3)

    def test_derive_internal_routes_unroutable_raises(self):
        representation = DiGraph.from_edges([(1, 3)])
        implementation = DiGraph.from_edges([(3, 1)], nodes=[1, 3])
        with pytest.raises(LibraryError):
            derive_internal_routes(representation, implementation)

"""Unit tests for communication schedules and their optimality bounds."""

from __future__ import annotations

import pytest

from repro.core.graph import DiGraph
from repro.core.schedules import (
    CommunicationSchedule,
    Round,
    Transfer,
    binomial_broadcast_schedule,
    broadcast_round_lower_bound,
    gossip_round_lower_bound,
    hypercube_gossip_schedule,
    pair_exchange_schedule,
    ring_schedule,
)
from repro.exceptions import ScheduleError


class TestRound:
    def test_round_of_and_exchanges(self):
        one_way = Round.of((1, 2), (3, 4))
        assert len(one_way) == 2
        exchange = Round.exchanges((1, 2))
        assert len(exchange) == 2
        assert Transfer(1, 2) in exchange.transfers and Transfer(2, 1) in exchange.transfers

    def test_telephone_legality(self):
        assert Round.of((1, 2), (3, 4)).is_telephone_legal()
        assert Round.exchanges((1, 2)).is_telephone_legal()  # one pair, both ways
        assert not Round.of((1, 2), (1, 3)).is_telephone_legal()  # node 1 twice

    def test_transfer_reversed(self):
        assert Transfer(1, 2).reversed() == Transfer(2, 1)


class TestScheduleValidation:
    def test_validate_against_graph_rejects_missing_links(self):
        schedule = CommunicationSchedule.from_rounds([Round.of((1, 2))])
        graph = DiGraph.from_edges([(2, 1)])
        with pytest.raises(ScheduleError):
            schedule.validate_against_graph(graph)

    def test_validate_against_graph_rejects_illegal_round(self):
        schedule = CommunicationSchedule.from_rounds([Round.of((1, 2), (1, 3))])
        graph = DiGraph.from_edges([(1, 2), (1, 3)])
        with pytest.raises(ScheduleError):
            schedule.validate_against_graph(graph)

    def test_simulate_knowledge_rejects_foreign_nodes(self):
        schedule = CommunicationSchedule.from_rounds([Round.of((1, 99))])
        with pytest.raises(ScheduleError):
            schedule.simulate_knowledge([1, 2])


class TestLowerBounds:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (4, 2), (5, 3), (8, 3), (16, 4)])
    def test_broadcast_lower_bound(self, n, expected):
        assert broadcast_round_lower_bound(n) == expected

    @pytest.mark.parametrize("n,expected", [(2, 1), (4, 2), (8, 3), (16, 4), (5, 4), (7, 4)])
    def test_gossip_lower_bound(self, n, expected):
        assert gossip_round_lower_bound(n) == expected

    def test_bounds_reject_degenerate_inputs(self):
        with pytest.raises(ScheduleError):
            broadcast_round_lower_bound(0)
        with pytest.raises(ScheduleError):
            gossip_round_lower_bound(1)


class TestGossipSchedules:
    def test_pair_exchange(self):
        schedule = pair_exchange_schedule(1, 2)
        assert schedule.num_rounds == 1
        assert schedule.completes_gossip([1, 2])

    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_hypercube_gossip_meets_lower_bound(self, size):
        nodes = list(range(1, size + 1))
        schedule = hypercube_gossip_schedule(nodes)
        assert schedule.num_rounds == gossip_round_lower_bound(size)
        assert schedule.completes_gossip(nodes)
        for round_ in schedule.rounds:
            assert round_.is_telephone_legal()

    def test_hypercube_gossip_matches_paper_mgg4_rounds(self):
        """Section 4.5: round 1 pairs (1,3),(2,4); round 2 pairs (1,2),(3,4)."""
        schedule = hypercube_gossip_schedule([1, 2, 3, 4])
        first_pairs = {frozenset((t.sender, t.receiver)) for t in schedule.rounds[0]}
        second_pairs = {frozenset((t.sender, t.receiver)) for t in schedule.rounds[1]}
        assert first_pairs == {frozenset((1, 3)), frozenset((2, 4))}
        assert second_pairs == {frozenset((1, 2)), frozenset((3, 4))}

    def test_hypercube_gossip_rejects_non_power_of_two(self):
        with pytest.raises(ScheduleError):
            hypercube_gossip_schedule([1, 2, 3])


class TestBroadcastSchedules:
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 8, 9])
    def test_binomial_broadcast_meets_lower_bound(self, size):
        nodes = list(range(1, size + 1))
        schedule = binomial_broadcast_schedule(nodes)
        assert schedule.num_rounds == broadcast_round_lower_bound(size)
        assert schedule.completes_broadcast(nodes[0], nodes)
        for round_ in schedule.rounds:
            assert round_.is_telephone_legal()

    def test_broadcast_needs_nodes(self):
        with pytest.raises(ScheduleError):
            binomial_broadcast_schedule([])


class TestRingSchedules:
    @pytest.mark.parametrize("size,closed", [(2, False), (3, True), (4, True), (5, True), (6, False)])
    def test_ring_schedule_is_legal_and_on_graph(self, size, closed):
        nodes = list(range(1, size + 1))
        schedule = ring_schedule(nodes, closed=closed)
        graph = DiGraph()
        for a, b in zip(nodes, nodes[1:]):
            graph.add_edge(a, b)
        if closed:
            graph.add_edge(nodes[-1], nodes[0])
        schedule.validate_against_graph(graph)

    def test_closed_ring_completes_broadcast_from_head(self):
        nodes = [1, 2, 3, 4, 5]
        schedule = ring_schedule(nodes, closed=True)
        assert schedule.completes_broadcast(1, nodes)

    def test_open_path_floods_forward(self):
        nodes = [1, 2, 3, 4]
        schedule = ring_schedule(nodes, closed=False)
        knowledge = schedule.simulate_knowledge(nodes)
        assert 1 in knowledge[4]  # head token reached the tail

    def test_ring_needs_two_nodes(self):
        with pytest.raises(ScheduleError):
            ring_schedule([1], closed=False)

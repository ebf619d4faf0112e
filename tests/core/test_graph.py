"""Unit tests for the directed-graph substrate (Definitions 1-2 of the paper)."""

from __future__ import annotations

import pytest

from repro.core.graph import ApplicationGraph, CorePosition, DiGraph, GraphStatistics
from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    NotASubgraphError,
)


class TestDiGraphBasics:
    def test_empty_graph(self):
        graph = DiGraph(name="empty")
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.nodes() == []
        assert graph.edges() == []
        assert graph.is_weakly_connected()  # vacuously

    def test_add_nodes_and_edges(self):
        graph = DiGraph()
        graph.add_node("a")
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")

    def test_duplicate_node_raises(self):
        graph = DiGraph()
        graph.add_node(1)
        with pytest.raises(DuplicateNodeError):
            graph.add_node(1)
        graph.add_node(1, exist_ok=True)  # no raise

    def test_duplicate_edge_raises(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge(1, 2)
        graph.add_edge(1, 2, exist_ok=True)

    def test_self_loop_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_remove_edge_and_node(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        graph.remove_node(3)
        assert not graph.has_node(3)
        assert graph.num_edges == 0  # (2,3) and (3,1) removed with node 3

    def test_remove_missing_raises(self):
        graph = DiGraph()
        with pytest.raises(NodeNotFoundError):
            graph.remove_node(1)
        graph.add_node(1)
        graph.add_node(2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_degrees_and_neighbors(self):
        graph = DiGraph.from_edges([(1, 2), (1, 3), (3, 1)])
        assert graph.out_degree(1) == 2
        assert graph.in_degree(1) == 1
        assert graph.degree(1) == 3
        assert set(graph.successors(1)) == {2, 3}
        assert graph.predecessors(1) == [3]
        assert set(graph.neighbors(1)) == {2, 3}

    def test_degree_of_unknown_node_raises(self):
        graph = DiGraph()
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(42)

    def test_edge_attributes(self):
        graph = DiGraph()
        graph.add_edge(1, 2, weight=5)
        assert graph.edge_attributes(1, 2)["weight"] == 5
        with pytest.raises(EdgeNotFoundError):
            graph.edge_attributes(2, 1)

    def test_contains_len_iter(self):
        graph = DiGraph.from_edges([(1, 2)])
        assert 1 in graph and 2 in graph and 3 not in graph
        assert len(graph) == 2
        assert list(iter(graph)) == [1, 2]

    def test_copy_is_independent(self):
        graph = DiGraph.from_edges([(1, 2)])
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert not graph.has_edge(2, 3)
        assert graph == DiGraph.from_edges([(1, 2)])

    def test_equality_is_structural(self):
        first = DiGraph.from_edges([(1, 2), (2, 3)])
        second = DiGraph.from_edges([(2, 3), (1, 2)])
        assert first == second
        assert first != DiGraph.from_edges([(1, 2)])

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(DiGraph())


class TestGraphOperations:
    def test_graph_sum_definition1(self):
        first = DiGraph.from_edges([(1, 2)])
        second = DiGraph.from_edges([(2, 3)])
        total = first.graph_sum(second)
        assert set(total.nodes()) == {1, 2, 3}
        assert set(total.edges()) == {(1, 2), (2, 3)}
        # operands untouched
        assert first.num_edges == 1 and second.num_edges == 1

    def test_graph_difference_definition2_keeps_vertices(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        subgraph = DiGraph.from_edges([(1, 2)])
        remainder = graph.graph_difference(subgraph)
        assert set(remainder.nodes()) == {1, 2, 3}
        assert set(remainder.edges()) == {(2, 3), (3, 1)}

    def test_graph_difference_requires_subgraph(self):
        graph = DiGraph.from_edges([(1, 2)])
        with pytest.raises(NotASubgraphError):
            graph.graph_difference(DiGraph.from_edges([(2, 1)]))

    def test_edge_induced_subgraph(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        sub = graph.edge_induced_subgraph([(1, 2), (2, 3)])
        assert set(sub.nodes()) == {1, 2, 3}
        assert set(sub.edges()) == {(1, 2), (2, 3)}
        with pytest.raises(EdgeNotFoundError):
            graph.edge_induced_subgraph([(9, 9)])

    def test_isolated_nodes(self):
        graph = DiGraph.from_edges([(1, 2)], nodes=[3, 4])
        assert set(graph.isolated_nodes()) == {3, 4}
        cleaned = graph.without_isolated_nodes()
        assert set(cleaned.nodes()) == {1, 2}

    def test_weakly_connected_components(self):
        graph = DiGraph.from_edges([(1, 2), (3, 4)])
        components = graph.weakly_connected_components()
        assert sorted(sorted(c) for c in components) == [[1, 2], [3, 4]]
        assert not graph.is_weakly_connected()

    def test_find_cycle_on_cyclic_graph(self, triangle_graph):
        cycle = triangle_graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2, 3}
        assert not triangle_graph.is_acyclic()

    def test_find_cycle_on_dag(self):
        dag = DiGraph.from_edges([(1, 2), (1, 3), (2, 3)])
        assert dag.find_cycle() is None
        assert dag.is_acyclic()


class TestApplicationGraph:
    def test_from_traffic_mapping(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 100.0, (2, 3): 50.0}, name="t")
        assert acg.volume(1, 2) == 100.0
        assert acg.total_volume() == 150.0

    def test_from_traffic_triples_with_bandwidth_fraction(self):
        acg = ApplicationGraph.from_traffic([(1, 2, 100.0)], bandwidth_fraction=0.1)
        assert acg.bandwidth(1, 2) == pytest.approx(10.0)

    def test_add_communication_accumulates(self):
        acg = ApplicationGraph()
        acg.add_communication(1, 2, volume=10, bandwidth=1)
        acg.add_communication(1, 2, volume=5, bandwidth=2)
        assert acg.volume(1, 2) == 15
        assert acg.bandwidth(1, 2) == 3

    def test_add_communication_rejects_negative(self):
        acg = ApplicationGraph()
        with pytest.raises(GraphError):
            acg.add_communication(1, 2, volume=-1)

    @pytest.mark.parametrize(
        "volume, bandwidth",
        [(float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("nan")), (1.0, float("inf"))],
    )
    def test_add_communication_rejects_non_finite(self, volume, bandwidth):
        acg = ApplicationGraph()
        with pytest.raises(GraphError, match="finite"):
            acg.add_communication(1, 2, volume=volume, bandwidth=bandwidth)
        assert not acg.has_edge(1, 2)

    def test_positions_and_link_length(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 1.0})
        acg.set_position(1, 0.0, 0.0)
        acg.set_position(2, 3.0, 4.0)
        assert acg.link_length(1, 2) == pytest.approx(7.0)  # Manhattan
        assert acg.position(1) == CorePosition(0.0, 0.0)
        assert acg.has_position(1) and not acg.has_position(99) is True

    def test_set_position_unknown_node_raises(self):
        acg = ApplicationGraph()
        with pytest.raises(NodeNotFoundError):
            acg.set_position(1, 0, 0)

    def test_apply_floorplan_ignores_unknown_cores(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 1.0})
        acg.apply_floorplan({1: (0, 0), 2: (1, 1), 99: (5, 5)})
        assert acg.has_position(1) and acg.has_position(2)
        assert not acg.has_position(99)

    def test_copy_preserves_positions_and_volumes(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 7.0})
        acg.set_position(1, 1, 1)
        clone = acg.copy()
        assert clone.volume(1, 2) == 7.0
        assert clone.position(1) == acg.position(1)
        clone.add_communication(2, 1, volume=3)
        assert not acg.has_edge(2, 1)

    def test_structural_copy_is_plain_digraph(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 7.0})
        structural = acg.structural_copy()
        assert isinstance(structural, DiGraph)
        assert not isinstance(structural, ApplicationGraph)
        assert structural.has_edge(1, 2)


class TestCorePosition:
    def test_distances(self):
        a = CorePosition(0.0, 0.0)
        b = CorePosition(3.0, 4.0)
        assert a.manhattan_distance(b) == pytest.approx(7.0)


class TestGraphStatistics:
    def test_statistics_of_acg(self, k4_acg):
        stats = GraphStatistics.of(k4_acg)
        assert stats.num_nodes == 4
        assert stats.num_edges == 12
        assert stats.density == pytest.approx(1.0)
        assert stats.is_connected
        assert stats.total_volume == pytest.approx(12 * 32.0)

    def test_statistics_of_empty_graph(self):
        stats = GraphStatistics.of(DiGraph())
        assert stats.num_nodes == 0
        assert stats.density == 0.0


class TestCachedStructuralCounters:
    """num_edges / degrees are maintained incrementally and must never drift."""

    @staticmethod
    def _assert_counters_consistent(graph: DiGraph) -> None:
        recomputed_edges = sum(len(graph.successors(node)) for node in graph.nodes())
        assert graph.num_edges == recomputed_edges
        for node in graph.nodes():
            assert graph.out_degree(node) == len(graph.successors(node))
            assert graph.in_degree(node) == len(graph.predecessors(node))
            assert graph.degree(node) == len(graph.successors(node)) + len(
                graph.predecessors(node)
            )

    def test_counters_after_interleaved_add_remove(self):
        graph = DiGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.add_edge(3, 1)
        graph.add_edge(1, 3)
        self._assert_counters_consistent(graph)
        graph.remove_edge(2, 3)
        graph.add_edge(2, 3)
        graph.remove_node(3)  # removes (3, 1), (1, 3) and (2, 3)
        self._assert_counters_consistent(graph)
        assert graph.num_edges == 1
        assert graph.degree(1) == 1

    def test_counters_survive_copy_and_difference(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        clone = graph.copy()
        self._assert_counters_consistent(clone)
        remainder = graph.graph_difference(graph.edge_induced_subgraph([(1, 2), (2, 3)]))
        self._assert_counters_consistent(remainder)
        assert remainder.num_edges == 2

    def test_degree_queries_raise_for_missing_nodes(self):
        graph = DiGraph.from_edges([(1, 2)])
        with pytest.raises(NodeNotFoundError):
            graph.out_degree(99)
        with pytest.raises(NodeNotFoundError):
            graph.in_degree(99)

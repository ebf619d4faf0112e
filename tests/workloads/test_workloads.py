"""Unit tests for the TGFF-like, Pajek-like and curated workload generators."""

from __future__ import annotations

import pytest

from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.io import read_workload, write_workload
from repro.workloads.acg_builder import acg_from_task_graph, attach_grid_floorplan
from repro.workloads.pajek import erdos_renyi_acg, pajek_benchmark_suite, planted_primitive_acg
from repro.workloads.random_acg import (
    figure5_example_acg,
    random_decomposable_acg,
)
from repro.workloads.tgff import (
    TaskGraph,
    TgffParameters,
    automotive_benchmark,
    generate_tgff_task_graph,
    tgff_benchmark_suite,
)


class TestTgffGenerator:
    def test_parameters_validated(self):
        with pytest.raises(WorkloadError):
            TgffParameters(num_tasks=1)
        with pytest.raises(WorkloadError):
            TgffParameters(max_out_degree=0)
        with pytest.raises(WorkloadError):
            TgffParameters(min_volume_bits=100, max_volume_bits=10)
        with pytest.raises(WorkloadError):
            TgffParameters(extra_edge_probability=1.5)

    def test_generated_graph_is_connected_dag(self):
        graph = generate_tgff_task_graph(TgffParameters(num_tasks=15, seed=2))
        assert graph.num_tasks == 15
        acg = graph.to_acg()
        assert acg.is_weakly_connected()
        assert acg.is_acyclic()

    def test_degree_bounds_respected(self):
        params = TgffParameters(num_tasks=20, max_out_degree=2, max_in_degree=2, seed=4)
        graph = generate_tgff_task_graph(params)
        acg = graph.to_acg()
        assert max(acg.out_degree(n) for n in acg.nodes()) <= 2
        assert max(acg.in_degree(n) for n in acg.nodes()) <= 2

    def test_reproducible_with_seed(self):
        first = generate_tgff_task_graph(TgffParameters(num_tasks=10, seed=9))
        second = generate_tgff_task_graph(TgffParameters(num_tasks=10, seed=9))
        assert first.edges == second.edges

    def test_volumes_within_range(self):
        params = TgffParameters(num_tasks=10, min_volume_bits=50, max_volume_bits=60, seed=1)
        graph = generate_tgff_task_graph(params)
        assert all(50 <= volume <= 60 for volume in graph.edges.values())

    def test_task_graph_api_validation(self):
        graph = TaskGraph(name="x")
        graph.add_task(1)
        with pytest.raises(WorkloadError):
            graph.add_task(1)
        with pytest.raises(WorkloadError):
            graph.add_dependency(1, 99, 10)
        graph.add_task(2)
        with pytest.raises(WorkloadError):
            graph.add_dependency(1, 2, 0)

    def test_automotive_benchmark_matches_paper_size(self):
        graph = automotive_benchmark()
        assert graph.num_tasks == 18
        acg = graph.to_acg()
        assert acg.is_weakly_connected()

    def test_benchmark_suite_includes_automotive(self):
        suite = tgff_benchmark_suite(sizes=(5, 18))
        assert len(suite) == 2
        assert suite[-1].name == "tgff_automotive_18"


class TestPajekGenerators:
    def test_erdos_renyi_size_and_reproducibility(self):
        first = erdos_renyi_acg(12, 0.2, seed=5)
        second = erdos_renyi_acg(12, 0.2, seed=5)
        assert first.num_nodes == 12
        assert set(first.edges()) == set(second.edges())

    def test_erdos_renyi_validation(self):
        with pytest.raises(WorkloadError):
            erdos_renyi_acg(1, 0.5)
        with pytest.raises(WorkloadError):
            erdos_renyi_acg(5, 1.5)
        with pytest.raises(WorkloadError):
            erdos_renyi_acg(5, 0.5, min_volume_bits=10, max_volume_bits=5)

    def test_planted_primitive_graph_contains_gossip(self):
        acg = planted_primitive_acg(num_nodes=10, num_gossip=1, seed=3)
        # some 4 nodes must be all-to-all connected
        found = False
        nodes = acg.nodes()
        from itertools import combinations

        for quad in combinations(nodes, 4):
            if all(acg.has_edge(a, b) for a in quad for b in quad if a != b):
                found = True
                break
        assert found

    def test_planted_requires_enough_nodes(self):
        with pytest.raises(WorkloadError):
            planted_primitive_acg(num_nodes=3)

    def test_benchmark_suite_styles(self):
        planted = pajek_benchmark_suite(sizes=(10,), instances_per_size=2)
        assert len(planted) == 2
        er = pajek_benchmark_suite(sizes=(10,), instances_per_size=1, style="erdos_renyi")
        assert er[0].name.startswith("pajek_er")
        with pytest.raises(WorkloadError):
            pajek_benchmark_suite(style="bogus")

    def test_pajek_round_trip(self, tmp_path):
        acg = erdos_renyi_acg(8, 0.3, seed=7)
        path = tmp_path / "graph.net"
        write_workload(acg, path, fmt="pajek")
        loaded = read_workload(path, fmt="pajek")
        assert loaded.num_nodes == acg.num_nodes
        assert loaded.num_edges == acg.num_edges
        original_edges = {(str(s), str(t)) for s, t in acg.edges()}
        assert {(s, t) for s, t in loaded.edges()} == original_edges
        # volumes preserved
        source, target = acg.edges()[0]
        assert loaded.volume(str(source), str(target)) == pytest.approx(acg.volume(source, target))

    def test_read_pajek_edges_section_is_bidirectional(self, tmp_path):
        path = tmp_path / "undirected.net"
        path.write_text('*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 5\n', encoding="utf-8")
        acg = read_workload(path, fmt="pajek")
        assert acg.has_edge("a", "b") and acg.has_edge("b", "a")

    def test_read_pajek_malformed_arc(self, tmp_path):
        path = tmp_path / "broken.net"
        path.write_text("*Vertices 1\n1 \"a\"\n*Arcs\n1\n", encoding="utf-8")
        with pytest.raises(WorkloadError):
            read_workload(path, fmt="pajek")


class TestCuratedAcgs:
    def test_figure5_example_structure(self):
        acg = figure5_example_acg()
        assert acg.num_nodes == 8
        # contains the column gossip among {1, 2, 5, 6}
        for a in (1, 2, 5, 6):
            for b in (1, 2, 5, 6):
                if a != b:
                    assert acg.has_edge(a, b)

    def test_random_decomposable_acg(self):
        acg = random_decomposable_acg(num_nodes=12, seed=1)
        assert acg.num_nodes == 12
        assert acg.num_edges > 10


class TestAcgBuilder:
    def test_acg_from_task_graph(self):
        graph = automotive_benchmark()
        acg = acg_from_task_graph(graph)
        assert acg.num_nodes == 18
        assert all(acg.has_position(node) for node in acg.nodes())

    def test_attach_grid_floorplan_empty_rejected(self):
        with pytest.raises(WorkloadError):
            attach_grid_floorplan(ApplicationGraph())

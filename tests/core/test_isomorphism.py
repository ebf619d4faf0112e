"""Unit tests for the VF2 subgraph-isomorphism engine (Definition 3/4)."""

from __future__ import annotations

from repro.core.graph import DiGraph
from repro.core.isomorphism import IsomorphismMapping, VF2Matcher


def complete_digraph(n: int) -> DiGraph:
    graph = DiGraph()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                graph.add_edge(i, j)
    return graph


def directed_cycle(n: int, offset: int = 0) -> DiGraph:
    graph = DiGraph()
    nodes = [offset + i for i in range(1, n + 1)]
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        graph.add_edge(a, b)
    return graph


class TestBasicMatching:
    def test_single_edge_pattern(self):
        pattern = DiGraph.from_edges([("a", "b")])
        target = DiGraph.from_edges([(1, 2), (2, 3)])
        mapping = VF2Matcher(pattern, target).find_one()
        assert mapping is not None
        as_dict = mapping.as_dict()
        assert target.has_edge(as_dict["a"], as_dict["b"])

    def test_no_match_when_pattern_larger(self):
        pattern = complete_digraph(4)
        target = complete_digraph(3)
        assert VF2Matcher(pattern, target).find_one() is None

    def test_no_match_when_edges_insufficient(self):
        pattern = DiGraph.from_edges([(1, 2), (2, 3)])
        target = DiGraph.from_edges([(1, 2)], nodes=[3])
        assert not VF2Matcher(pattern, target).exists()

    def test_directed_edge_orientation_matters(self):
        pattern = DiGraph.from_edges([(1, 2)])
        reversed_target = DiGraph.from_edges([(2, 1)])
        # a single directed edge matches any directed edge (relabeling is free)
        assert VF2Matcher(pattern, reversed_target).exists()
        # but a 2-cycle pattern needs both directions in the target
        two_cycle = DiGraph.from_edges([(1, 2), (2, 1)])
        assert not VF2Matcher(two_cycle, reversed_target).exists()

    def test_cycle_in_cycle(self):
        assert VF2Matcher(directed_cycle(3), directed_cycle(3, offset=10)).exists()
        assert not VF2Matcher(directed_cycle(4), directed_cycle(3)).exists()

    def test_cycle_within_complete_graph(self):
        assert VF2Matcher(directed_cycle(4), complete_digraph(4)).exists()

    def test_star_pattern_in_dense_graph(self):
        star = DiGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        target = complete_digraph(4)
        mapping = VF2Matcher(star, target).find_one()
        assert mapping is not None
        assert len(set(mapping.as_dict().values())) == 4

    def test_empty_pattern_yields_nothing(self):
        matcher = VF2Matcher(DiGraph(), complete_digraph(3))
        assert matcher.find_one() is None


class TestMonomorphism:
    def test_monomorphism_allows_extra_target_edges(self):
        pattern = DiGraph.from_edges([(1, 2), (2, 3)])  # a path
        target = complete_digraph(3)  # plenty of extra edges
        assert VF2Matcher(pattern, target).find_one() is not None


class TestEnumeration:
    def test_deduplication_by_edge_set(self):
        # the 4-cycle has 4 automorphisms; with edge-set dedup only 1 result
        matches = VF2Matcher(directed_cycle(4), directed_cycle(4)).find_all()
        assert len(matches) == 1

    def test_multiple_distinct_matches(self):
        pattern = DiGraph.from_edges([(1, 2)])
        target = DiGraph.from_edges([(1, 2), (3, 4)])
        matches = VF2Matcher(pattern, target).find_all()
        covered = {match.covered_edges(pattern) for match in matches}
        assert covered == {frozenset({(1, 2)}), frozenset({(3, 4)})}

    def test_limit_respected(self):
        pattern = DiGraph.from_edges([(1, 2)])
        target = complete_digraph(5)
        matches = VF2Matcher(pattern, target).find_all(limit=3)
        assert len(matches) == 3


class TestTimeout:
    def test_timeout_returns_gracefully(self):
        pattern = complete_digraph(6)
        target = complete_digraph(12)
        matcher = VF2Matcher(pattern, target, timeout_seconds=0.0)
        assert matcher.find_all() == []
        # the truncation is observable, so callers (e.g. the decomposition's
        # matching cache) can tell a complete enumeration from a cut-off one
        assert matcher.timed_out

    def test_complete_enumeration_reports_no_timeout(self):
        pattern = DiGraph.from_edges([(1, 2)])
        target = DiGraph.from_edges([("a", "b"), ("b", "c")])
        matcher = VF2Matcher(pattern, target, timeout_seconds=30.0)
        assert len(matcher.find_all()) == 2
        assert not matcher.timed_out


class TestIsomorphismMapping:
    def test_mapping_accessors(self):
        mapping = IsomorphismMapping.from_dict({1: "x", 2: "y"})
        assert mapping.as_dict() == {1: "x", 2: "y"}
        assert len(mapping) == 2

    def test_covered_edges(self):
        pattern = DiGraph.from_edges([(1, 2)])
        mapping = IsomorphismMapping.from_dict({1: "x", 2: "y"})
        assert mapping.covered_edges(pattern) == frozenset({("x", "y")})

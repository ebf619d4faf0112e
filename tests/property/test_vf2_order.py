"""``VF2Matcher.find_all`` against a brute-force oracle of its enumeration order.

The decomposition keeps the first mapping the matcher yields for each
covered edge set (it fixes ``Matching.assignment``), so the order of
``find_all()`` is part of its contract, not only the set it returns.  The
oracle tries every injective assignment of the matcher's pattern order to
target nodes, lexicographically in the target's node order (the order a
depth-first search that offers candidates in target-index order visits
them), keeps the monomorphisms and drops each
mapping whose covered edge set an earlier one already produced.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import DiGraph
from repro.core.isomorphism import IsomorphismMapping, VF2Matcher
from repro.core.library import default_library


def oracle(matcher: VF2Matcher, pattern: DiGraph, target: DiGraph) -> list[IsomorphismMapping]:
    """The first mapping of each edge set, in lexicographic target order."""
    order = list(matcher._pattern_order)
    if not order or len(order) > target.num_nodes or pattern.num_edges > target.num_edges:
        return []
    first: list[IsomorphismMapping] = []
    seen: set[frozenset] = set()
    for images in permutations(target.nodes(), len(order)):
        mapping = dict(zip(order, images))
        if not all(target.has_edge(mapping[s], mapping[t]) for s, t in pattern.edges()):
            continue
        covered = frozenset((mapping[s], mapping[t]) for s, t in pattern.edges())
        if covered in seen:
            continue
        seen.add(covered)
        first.append(IsomorphismMapping.from_dict(mapping))
    return first


def graphs(min_nodes: int, max_nodes: int, max_edges: int):
    """Small random digraphs; a few nodes may stay isolated."""

    def build(drawn):
        num_nodes, edges = drawn
        graph = DiGraph()
        for node in range(num_nodes):
            graph.add_node(node)
        for source, target in edges:
            if source < num_nodes and target < num_nodes:
                graph.add_edge(source, target, exist_ok=True)
        return graph

    nodes = st.integers(min_value=0, max_value=max_nodes - 1)
    edge_lists = st.lists(
        st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1]),
        max_size=max_edges,
        unique=True,
    )
    return st.tuples(st.integers(min_value=min_nodes, max_value=max_nodes), edge_lists).map(
        build
    )


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs(1, 4, 6), graphs(1, 6, 14))
def test_find_all_returns_the_oracle_list_in_order(pattern, target):
    matcher = VF2Matcher(pattern, target)
    assert matcher.find_all() == oracle(matcher, pattern, target)


@pytest.mark.parametrize("entry", default_library().sorted_for_search(), ids=lambda e: e.name)
def test_library_primitives_enumerate_in_oracle_order(entry):
    pattern = entry.primitive.representation
    target = DiGraph()
    # a shuffled node order, a dense core and a sparse tail
    for node in (5, 2, 7, 0, 3, 6, 1, 4):
        target.add_node(node)
    for source in range(5):
        for target_node in range(5):
            if source != target_node and (source + 2 * target_node) % 7 != 3:
                target.add_edge(source, target_node)
    target.add_edge(4, 5)
    target.add_edge(5, 6)
    target.add_edge(6, 4)
    target.add_edge(7, 1)
    matcher = VF2Matcher(pattern, target)
    expected = oracle(matcher, pattern, target)
    assert matcher.find_all() == expected
    assert matcher.find_all(limit=3) == expected[:3]

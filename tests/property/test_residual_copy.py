"""``DiGraph.copy`` and ``Matching.subtract_from`` against edge-by-edge rebuilding.

The greedy decomposition and the replay that rebuilds a chosen cover's
remainder clone residuals, and the VF2 matcher's candidate order follows
the clone's node order, so the dict-level clone must be
indistinguishable from rebuilding the graph through ``add_node`` /
``add_edge`` -- and subtracting a matching from it from the
``graph_difference(edge_induced_subgraph(...))`` formulation of
Definition 2 -- in edge set, attributes, node / successor / predecessor
order and degrees.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import ApplicationGraph, DiGraph
from repro.core.matching import Matching
from repro.core.primitives import (
    make_broadcast_primitive,
    make_gossip_primitive,
    make_loop_primitive,
    make_path_primitive,
)

PRIMITIVES = [
    make_gossip_primitive(2),
    make_gossip_primitive(4),
    make_broadcast_primitive(3),
    make_loop_primitive(4),
    make_path_primitive(3),
]


def rebuilt(graph: DiGraph) -> DiGraph:
    """The graph re-added node by node, then edge by edge in edge order."""
    clone = type(graph)(name=graph.name)
    for node in graph.nodes():
        clone.add_node(node, **dict(graph.node_attributes(node)))
    for source, target, attrs in graph.edges(data=True):
        clone.add_edge(source, target, **dict(attrs))
    if isinstance(graph, ApplicationGraph):
        for node in graph.nodes():
            if graph.has_position(node):
                position = graph.position(node)
                clone.set_position(node, position.x, position.y)
    return clone


def subtracted_by_rebuilding(matching: Matching, graph: DiGraph) -> DiGraph:
    """Definition 2 the long way: induced subgraph, rebuilt copy, removals."""
    subgraph = graph.edge_induced_subgraph(matching.covered_edges())
    result = rebuilt(graph)
    for source, target in subgraph.edges():
        result.remove_edge(source, target)
    return result


def layout(graph: DiGraph) -> dict[str, object]:
    """Everything observable about a graph's structure and its orders."""
    nodes = graph.nodes()
    return {
        "type": type(graph),
        "name": graph.name,
        "nodes": nodes,
        "node_attrs": [graph.node_attributes(node) for node in nodes],
        "edges": graph.edges(data=True),
        "successors": [graph.successors(node) for node in nodes],
        "predecessors": [graph.predecessors(node) for node in nodes],
        "degrees": [(graph.out_degree(node), graph.in_degree(node)) for node in nodes],
        "num_edges": graph.num_edges,
        "positions": (
            [graph.position(node) if graph.has_position(node) else None for node in nodes]
            if isinstance(graph, ApplicationGraph)
            else None
        ),
    }


@st.composite
def graphs_with_matching(draw, plain: bool = False):
    """A graph built in a random node/edge order that contains one matching."""
    primitive = draw(st.sampled_from(PRIMITIVES))
    count = draw(st.integers(min_value=primitive.size, max_value=9))
    order = draw(st.permutations(range(count)))
    images = draw(st.permutations(range(count)))[: primitive.size]
    matching = Matching.from_dict(
        primitive, dict(zip(primitive.representation.nodes(), images))
    )
    pairs = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    extra = draw(st.lists(pairs.filter(lambda edge: edge[0] != edge[1]), max_size=20))
    edges = draw(st.permutations(sorted(set(extra) | set(matching.covered_edges()))))
    graph = DiGraph(name="plain") if plain else ApplicationGraph(name="acg")
    for node in order:
        graph.add_node(node, label=f"n{node}")
    for index, (source, target) in enumerate(edges):
        if plain:
            graph.add_edge(source, target)
        else:
            graph.add_communication(source, target, volume=8.0 * (index + 1), bandwidth=0.5)
    if not plain:
        for node in order[: count // 2]:
            graph.set_position(node, float(node), 2.0 * node)
    return graph, matching


_settings = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


#: plain pattern graphs and ACGs (volumes, bandwidths, positions) alike
any_graph_with_matching = st.booleans().flatmap(graphs_with_matching)


@_settings
@given(any_graph_with_matching)
def test_subtract_from_matches_rebuilding(drawn):
    graph, matching = drawn
    before = layout(graph)
    residual = matching.subtract_from(graph)
    assert layout(residual) == layout(subtracted_by_rebuilding(matching, graph))
    assert layout(residual) == layout(
        graph.graph_difference(graph.edge_induced_subgraph(matching.covered_edges()))
    )
    assert set(residual.edges()) == set(graph.edges()) - matching.covered_edges()
    assert layout(graph) == before


@_settings
@given(any_graph_with_matching)
def test_copy_matches_rebuilding_and_is_independent(drawn):
    graph, _ = drawn
    clone = graph.copy()
    assert layout(clone) == layout(rebuilt(graph))
    assert set(clone.edges()) == set(graph.edges())

    source, target = graph.edges()[0]
    before = dict(graph.edge_attributes(source, target))
    clone.edge_attributes(source, target)["volume"] = -1.0
    clone.node_attributes(source)["label"] = "changed"
    clone.remove_edge(source, target)
    assert graph.has_edge(source, target)
    assert graph.edge_attributes(source, target) == before
    assert graph.node_attributes(source)["label"] == f"n{source}"
    assert set(clone.edges()) != set(graph.edges())


@_settings
@given(any_graph_with_matching)
def test_clone_shares_one_attribute_dict_per_edge(drawn):
    graph, _ = drawn
    clone = graph.copy()
    for source, target in clone.edges():
        assert clone._succ[source][target] is clone._pred[target][source]
        assert clone.edge_attributes(source, target) is not graph.edge_attributes(
            source, target
        )

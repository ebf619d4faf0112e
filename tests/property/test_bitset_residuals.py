"""The search's edge-mask residuals against the ``DiGraph`` residuals they replace.

The branch-and-bound keeps a residual as an ``int`` over the ACG's
``EdgeIndex`` and subtracts a matching as ``residual & ~mask``.  Along a
random chain of edge-disjoint root matchings:

* the decoded mask equals the ``Matching.subtract_from`` chain from the
  ACG's structural copy: node, edge, successor and predecessor orders and
  degrees;
* the bound value, and the leaf's remainder price, is float-equal (not
  approximately equal) to the graph formula the search used before, kept
  here as a reference copy, under the three built-in cost models.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import CheapestEdgeBound, EdgeCharges, bound_tables
from repro.core.cost import EnergyCostModel, LinkCountCostModel, UnitCostModel
from repro.core.decomposition import (
    BranchAndBoundDecomposer,
    DecompositionConfig,
    inherit_lists,
    remainder_pricer,
)
from repro.core.graph import ApplicationGraph, DiGraph, EdgeIndex
from repro.core.library import default_library

_LIBRARY = default_library()
_COST_MODELS = {
    "link_count": LinkCountCostModel(),
    "unit": UnitCostModel(remainder_penalty=1.3),
    "energy": EnergyCostModel(),
}


# ----------------------------------------------------------------------
# the graph formulas the mask code replaced (reference copies)
# ----------------------------------------------------------------------
def _paired_degree(graph: DiGraph, node) -> int:
    return sum(1 for other in graph.successors(node) if graph.has_edge(other, node))


def reference_cheapest_edge(tables, cost_model, acg, residual: DiGraph) -> float:
    """Per-edge cheapest feasible charge, summed over ``residual.edges()``."""

    def degrees_of(node):
        return (residual.out_degree(node), residual.in_degree(node), _paired_degree(residual, node))

    total = 0.0
    for source, target in residual.edges():
        edge = (source, target)
        is_bidirectional = residual.has_edge(target, source)
        cheapest = cost_model.edge_remainder_cost(acg, edge)
        for offer in tables.offers:
            if not offer.feasible(is_bidirectional, degrees_of(source), degrees_of(target)):
                continue
            if offer.flat_share is not None:
                charge = offer.flat_share
            else:
                charge = cost_model.edge_cover_cost(acg, edge, offer.hops)
            if charge < cheapest:
                cheapest = charge
        total += cheapest
    return total


def layout(graph: DiGraph) -> dict[str, object]:
    """Everything observable about a residual's structure and its orders."""
    return {
        "nodes": graph.nodes(),
        "edges": graph.edges(),
        "successors": {node: graph.successors(node) for node in graph.nodes()},
        "predecessors": {node: graph.predecessors(node) for node in graph.nodes()},
        "degrees": {node: (graph.out_degree(node), graph.in_degree(node)) for node in graph},
    }


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
def _acgs(max_nodes: int = 7, max_edges: int = 16):
    nodes = st.integers(min_value=1, max_value=max_nodes)
    edges = st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1])

    def build(drawn):
        edge_list, placed = drawn
        acg = ApplicationGraph(name="hyp")
        for index, (source, target) in enumerate(edge_list):
            acg.add_communication(source, target, volume=float(8 * (index + 1)) / 3.0)
        # some cores floorplanned, the rest priced at the fallback length
        for node in acg.nodes()[:placed]:
            acg.set_position(node, 1.5 * (node % 3), 0.7 * node)
        return acg

    return st.tuples(
        st.lists(edges, min_size=1, max_size=max_edges, unique=True),
        st.integers(min_value=0, max_value=max_nodes),
    ).map(build)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_acgs(), st.integers(min_value=0, max_value=2**16), st.sampled_from(sorted(_COST_MODELS)))
def test_mask_residuals_and_bounds_equal_the_graph_formulas(acg, seed, model_name):
    rng = random.Random(seed)
    cost_model = _COST_MODELS[model_name]
    index = EdgeIndex(acg)
    decomposer = BranchAndBoundDecomposer(_LIBRARY, cost_model, DecompositionConfig())
    lists = decomposer.matching_lists(index, cost_model)
    tables = bound_tables(_LIBRARY, cost_model)
    cheapest_edge = CheapestEdgeBound(EdgeCharges(tables, cost_model, index))
    price = remainder_pricer(cost_model, acg, index)

    residual = index.full
    graph: DiGraph = acg.structural_copy()
    while True:
        assert layout(index.graph_of(residual)) == layout(graph)
        assert index.edges_of(residual) == graph.edges()
        assert cheapest_edge.value(residual) == reference_cheapest_edge(
            tables, cost_model, acg, graph
        )
        assert price(residual) == cost_model.remainder_cost(graph, acg)
        if not lists:
            return
        candidate = rng.choice([c for found in lists.values() for c in found])
        assert candidate.mask & residual == candidate.mask
        residual &= ~candidate.mask
        graph = candidate.matching.subtract_from(graph)
        lists = inherit_lists(lists, candidate.mask)

"""The branch-and-bound's matching lists, checked against independent oracles.

The search enumerates each primitive's matchings once, at the root, and
every node below filters its parent's lists.  Two properties pin that down
without going through the search's own code:

* along any path of chosen matchings, each inherited list holds exactly
  the matchings a fresh, complete VF2 enumeration finds in that residual
  (the search's edge-mask residual, decoded to a graph);
* on small ACGs, the uncapped search's cost equals the cheapest choice of
  pairwise edge-disjoint root matchings plus the remainder, found by a
  plain exact-cover dynamic program (no bound, no symmetry key, no table),
  and a capped search never beats it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import (
    BranchAndBoundDecomposer,
    DecompositionConfig,
    capped_survivors,
    decompose,
    inherit_lists,
)
from repro.core.graph import ApplicationGraph, DiGraph, EdgeIndex
from repro.core.isomorphism import VF2Matcher
from repro.core.library import default_library, minimal_library
from repro.core.matching import Matching

_LIBRARY = default_library()


def _acgs(max_nodes: int, max_edges: int):
    nodes = st.integers(min_value=1, max_value=max_nodes)
    edges = st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1])

    def build(edge_list):
        acg = ApplicationGraph(name="hyp")
        for source, target in edge_list:
            acg.add_communication(source, target, volume=8.0)
        return acg

    return st.lists(edges, min_size=1, max_size=max_edges, unique=True).map(build)


def _fresh_matchings(library, graph: DiGraph) -> dict[int, set[frozenset]]:
    """Per primitive id, the covered edge sets of every VF2 matching."""
    found: dict[int, set[frozenset]] = {}
    for entry in library.sorted_for_search():
        matcher = VF2Matcher(entry.primitive.representation, graph)
        covered = {
            Matching.from_mapping(entry.primitive, mapping).covered_edges()
            for mapping in matcher.find_all()
        }
        if covered:
            found[entry.primitive_id] = covered
    return found


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_acgs(max_nodes=7, max_edges=14), st.integers(min_value=0, max_value=2**16))
def test_inherited_lists_equal_a_fresh_enumeration(acg, seed):
    rng = random.Random(seed)
    decomposer = BranchAndBoundDecomposer(_LIBRARY, LinkCountCostModel(), DecompositionConfig())
    index = EdgeIndex(acg)
    residual = index.full
    lists = decomposer.matching_lists(index, LinkCountCostModel())
    while True:
        assert {
            primitive_id: {c.matching.covered_edges() for c in found}
            for primitive_id, found in lists.items()
        } == _fresh_matchings(_LIBRARY, index.graph_of(residual))
        for found in lists.values():
            matchings = [c.matching for c in found]
            assert matchings == sorted(matchings, key=Matching.sort_key)
        if not lists:
            return
        candidate = rng.choice([c for found in lists.values() for c in found])
        residual &= ~candidate.mask
        lists = inherit_lists(lists, candidate.mask)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _acgs(max_nodes=7, max_edges=14),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([1, 2, 3, None]),
)
def test_the_cap_takes_its_width_after_the_symmetry_filter(acg, seed, limit):
    rng = random.Random(seed)
    decomposer = BranchAndBoundDecomposer(_LIBRARY, LinkCountCostModel(), DecompositionConfig())
    lists = decomposer.matching_lists(EdgeIndex(acg), LinkCountCostModel())
    # (key rank, sort key) pairs; the root's rank -1 stands for ()
    keys = [(-1, ())] + [(c.key, c.matching.sort_key()) for found in lists.values() for c in found]
    for min_rank, min_key in rng.sample(keys, min(len(keys), 5)):
        expected: list[Matching] = []
        for found in lists.values():
            expected += [c.matching for c in found if c.matching.sort_key() >= min_key][:limit]
        survivors = [c.matching for c in capped_survivors(lists, min_rank, limit)]
        assert survivors == sorted(expected, key=Matching.sort_key)


def _exact_cover_cost(acg: ApplicationGraph, library, cost_model) -> float:
    """Cheapest set of pairwise edge-disjoint matchings plus its remainder.

    A dynamic program over the ACG's edges in a fixed order: the first
    undecided edge either stays in the remainder (whose cost is a sum over
    its edges under every cost model here) or is taken by one root matching
    that clashes with no chosen one.  The state is the edge index and the
    set of later edges already covered, both as bitmasks.
    """
    edges = sorted(acg.edges())
    bit = {edge: 1 << index for index, edge in enumerate(edges)}
    options: dict[int, list[tuple[int, float]]] = {index: [] for index in range(len(edges))}
    for entry in library.sorted_for_search():
        matcher = VF2Matcher(entry.primitive.representation, acg)
        for mapping in matcher.find_all():
            matching = Matching.from_mapping(entry.primitive, mapping)
            mask = sum(bit[edge] for edge in matching.covered_edges())
            first = (mask & -mask).bit_length() - 1
            options[first].append((mask, cost_model.matching_cost(matching, acg)))
    alone = [
        cost_model.remainder_cost(DiGraph.from_edges([edge]), acg) for edge in edges
    ]
    memo: dict[tuple[int, int], float] = {}

    def cheapest(index: int, covered: int) -> float:
        while index < len(edges) and covered >> index & 1:
            index += 1
        if index == len(edges):
            return 0.0
        key = (index, covered >> index)
        if key not in memo:
            memo[key] = min(
                [alone[index] + cheapest(index + 1, covered)]
                + [
                    cost + cheapest(index + 1, covered | mask)
                    for mask, cost in options[index]
                    if not mask & covered
                ]
            )
        return memo[key]

    return cheapest(0, 0)


def _assert_search_matches_oracle(acg: ApplicationGraph, library) -> None:
    cost_model = LinkCountCostModel()
    optimum = _exact_cover_cost(acg, library, cost_model)
    for cap in (None, 2):
        config = DecompositionConfig(max_matchings_per_primitive=cap, max_leaves=None)
        result = decompose(acg, library, cost_model, config)
        result.validate_cover()
        assert result.statistics.truncated_by is None
        if cap is None:
            assert abs(result.total_cost - optimum) < 1e-9
        else:
            assert result.total_cost >= optimum - 1e-9


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_acgs(max_nodes=7, max_edges=14))
def test_uncapped_search_equals_the_exact_cover_oracle(acg):
    _assert_search_matches_oracle(acg, _LIBRARY)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_acgs(max_nodes=6, max_edges=12))
def test_uncapped_search_equals_the_oracle_on_the_minimal_library(acg):
    _assert_search_matches_oracle(acg, minimal_library())


def _seeded_acg(seed: int, num_nodes: int = 7, num_edges: int = 14) -> ApplicationGraph:
    rng = random.Random(seed)
    acg = ApplicationGraph(name=f"seeded-{seed}")
    edges: set[tuple[int, int]] = set()
    while len(edges) < num_edges:
        edges.add(tuple(rng.sample(range(num_nodes), 2)))
    for source, target in sorted(edges):
        acg.add_communication(source, target, volume=8.0)
    return acg


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("library", [_LIBRARY, minimal_library()], ids=["default", "minimal"])
def test_fourteen_edge_acgs_match_the_oracle(seed, library):
    _assert_search_matches_oracle(_seeded_acg(seed), library)

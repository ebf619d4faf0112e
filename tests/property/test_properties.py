"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

from itertools import permutations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import LinkCountCostModel, UnitCostModel
from repro.core.decomposition import DecompositionConfig, decompose
from repro.core.graph import ApplicationGraph, DiGraph
from repro.core.isomorphism import VF2Matcher
from repro.core.library import default_library
from repro.core.schedules import binomial_broadcast_schedule, broadcast_round_lower_bound
from repro.energy.bit_energy import BitEnergyModel
from repro.energy.technology import CMOS_180NM
from repro.floorplan.core_spec import CoreSpec
from repro.floorplan.placement import grid_floorplan
from repro.noc.traffic import split_volume_into_messages

_LIBRARY = default_library()

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def edge_lists(max_nodes: int = 8, max_edges: int = 16):
    """Random directed edge lists without self-loops."""
    nodes = st.integers(min_value=1, max_value=max_nodes)
    edges = st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1])
    return st.lists(edges, max_size=max_edges, unique=True)


def graphs(max_nodes: int = 8, max_edges: int = 16):
    return edge_lists(max_nodes, max_edges).map(DiGraph.from_edges)


def acgs(max_nodes: int = 8, max_edges: int = 14):
    def build(edge_list):
        acg = ApplicationGraph(name="hyp")
        for index, (source, target) in enumerate(edge_list):
            acg.add_communication(source, target, volume=float(8 * (index + 1)))
        return acg

    return edge_lists(max_nodes, max_edges).map(build)


# ----------------------------------------------------------------------
# graph algebra invariants (Definitions 1-2)
# ----------------------------------------------------------------------
@given(graphs(), graphs())
def test_graph_sum_is_commutative(first, second):
    assert first.graph_sum(second) == second.graph_sum(first)


@given(graphs())
def test_graph_sum_with_itself_is_identity(graph):
    assert graph.graph_sum(graph) == graph


@given(graphs())
def test_difference_with_self_removes_all_edges_keeps_nodes(graph):
    remainder = graph.graph_difference(graph)
    assert remainder.num_edges == 0
    assert set(remainder.nodes()) == set(graph.nodes())


@given(graphs(), st.data())
def test_difference_then_sum_restores_edge_set(graph, data):
    edges = graph.edges()
    if not edges:
        return
    subset_size = data.draw(st.integers(min_value=1, max_value=len(edges)))
    subset = edges[:subset_size]
    subgraph = graph.edge_induced_subgraph(subset)
    remainder = graph.graph_difference(subgraph)
    restored = remainder.graph_sum(subgraph)
    assert set(restored.edges()) == set(graph.edges())


@given(graphs())
def test_copy_equals_original(graph):
    assert graph.copy() == graph


# ----------------------------------------------------------------------
# subgraph isomorphism invariants
# ----------------------------------------------------------------------
@given(graphs(max_nodes=6, max_edges=10), st.data())
def test_every_edge_subgraph_is_found(graph, data):
    """Any edge-induced subgraph of a graph must be found as a monomorphism."""
    edges = graph.edges()
    if not edges:
        return
    subset_size = data.draw(st.integers(min_value=1, max_value=min(4, len(edges))))
    pattern = graph.edge_induced_subgraph(edges[:subset_size])
    mapping = VF2Matcher(pattern, graph).find_one()
    assert mapping is not None
    covered = mapping.covered_edges(pattern)
    assert all(graph.has_edge(*edge) for edge in covered)


@given(graphs(max_nodes=6, max_edges=8))
def test_isomorphism_mapping_is_injective(graph):
    if graph.num_edges == 0:
        return
    pattern = graph.edge_induced_subgraph(graph.edges()[:2])
    mapping = VF2Matcher(pattern, graph).find_one()
    assert mapping is not None
    targets = [target for _, target in mapping.mapping]
    assert len(targets) == len(set(targets))


def _brute_force_covered_edge_sets(pattern: DiGraph, target: DiGraph) -> set[frozenset]:
    """All distinct covered target-edge sets of pattern monomorphisms.

    Exhaustive reference enumerator: try every injective assignment of
    pattern nodes to target nodes and keep the ones where every pattern edge
    lands on a target edge (the monomorphism semantics of Definition 3/4).
    """
    pattern_nodes = pattern.nodes()
    edge_sets: set[frozenset] = set()
    for assignment in permutations(target.nodes(), len(pattern_nodes)):
        binding = dict(zip(pattern_nodes, assignment))
        if all(
            target.has_edge(binding[source], binding[target_node])
            for source, target_node in pattern.edges()
        ):
            edge_sets.add(
                frozenset(
                    (binding[source], binding[target_node])
                    for source, target_node in pattern.edges()
                )
            )
    return edge_sets


_VF2_PATTERNS = {
    "pair": DiGraph.from_edges([(1, 2), (2, 1)]),
    "path3": DiGraph.from_edges([(1, 2), (2, 3)]),
    "fork": DiGraph.from_edges([(1, 2), (1, 3)]),
    "triangle": DiGraph.from_edges([(1, 2), (2, 3), (3, 1)]),
}


@settings(max_examples=60, deadline=None)
@given(graphs(max_nodes=6, max_edges=12), st.sampled_from(sorted(_VF2_PATTERNS)))
def test_vf2_find_all_agrees_with_brute_force(target, pattern_name):
    """VF2's de-duplicated enumeration is exactly the brute-force edge sets."""
    pattern = _VF2_PATTERNS[pattern_name]
    matcher = VF2Matcher(pattern, target)
    found = matcher.find_all(limit=None)
    vf2_edge_sets = {mapping.covered_edges(pattern) for mapping in found}
    assert len(vf2_edge_sets) == len(found)  # de-duplication really is by edges
    assert vf2_edge_sets == _brute_force_covered_edge_sets(pattern, target)


@settings(max_examples=60, deadline=None)
@given(edge_lists(max_nodes=6, max_edges=20))
def test_cached_degree_counters_match_recomputation(operations):
    """Interleaved add/remove sequences never let the O(1) counters drift."""
    graph = DiGraph()
    for source, target in operations:
        if graph.has_edge(source, target):
            graph.remove_edge(source, target)
        else:
            graph.add_edge(source, target, exist_ok=True)
    assert graph.num_edges == sum(len(graph.successors(n)) for n in graph.nodes())
    for node in graph.nodes():
        assert graph.out_degree(node) == len(graph.successors(node))
        assert graph.in_degree(node) == len(graph.predecessors(node))


# ----------------------------------------------------------------------
# decomposition invariants (Equation 2: matchings + remainder == ACG)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acgs())
def test_decomposition_partitions_the_edge_set(acg):
    config = DecompositionConfig(max_matchings_per_primitive=2, max_nodes_expanded=100)
    result = decompose(acg, _LIBRARY, cost_model=LinkCountCostModel(), config=config)
    result.validate_cover()  # raises on overlap or missing edges
    covered = set()
    for matching in result.matchings:
        covered |= matching.covered_edges()
    assert covered | set(result.remainder.edges()) == set(acg.edges())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acgs())
def test_decomposition_cost_is_sum_of_parts(acg):
    config = DecompositionConfig(max_matchings_per_primitive=2, max_nodes_expanded=100)
    result = decompose(acg, _LIBRARY, cost_model=UnitCostModel(), config=config)
    assert result.total_cost >= 0
    assert abs(result.total_cost - (sum(result.matching_costs) + result.remainder_cost)) < 1e-6


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acgs(max_nodes=7, max_edges=10))
def test_matching_cache_and_transposition_preserve_cost(acg):
    """With uncapped branching, the transposition table keeps the cost."""
    costs = set()
    for table in (True, False):
        config = DecompositionConfig(
            max_matchings_per_primitive=None,
            max_nodes_expanded=300,
            use_transposition_table=table,
        )
        result = decompose(acg, _LIBRARY, cost_model=LinkCountCostModel(), config=config)
        result.validate_cover()
        costs.add(round(result.total_cost, 9))
    assert len(costs) == 1


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=32))
def test_binomial_broadcast_always_optimal(num_nodes):
    nodes = list(range(num_nodes))
    schedule = binomial_broadcast_schedule(nodes)
    assert schedule.num_rounds == broadcast_round_lower_bound(num_nodes)
    assert schedule.completes_broadcast(0, nodes)
    assert all(round_.is_telephone_legal() for round_ in schedule.rounds)


# ----------------------------------------------------------------------
# energy model
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=1e4),
)
def test_bit_energy_monotone_and_linear_in_volume(lengths, volume):
    model = BitEnergyModel(CMOS_180NM)
    energy_one = model.bit_energy_for_lengths(lengths)
    assert energy_one > 0
    longer = model.bit_energy_for_lengths(lengths + [1.0])
    assert longer > energy_one
    assert model.transfer_energy_pj(volume, lengths) <= model.transfer_energy_pj(
        volume + 1, lengths
    )


# ----------------------------------------------------------------------
# floorplan
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=25),
    st.floats(min_value=0.5, max_value=4.0),
)
def test_grid_floorplan_never_overlaps_and_covers_area(count, size):
    cores = [CoreSpec(core_id=i, width_mm=size, height_mm=size) for i in range(count)]
    floorplan = grid_floorplan(cores)
    rectangles = list(floorplan.placements.values())
    for i, first in enumerate(rectangles):
        for second in rectangles[i + 1 :]:
            assert not first.overlaps(second)
    assert floorplan.die_area_mm2() >= count * size * size - 1e-6


# ----------------------------------------------------------------------
# traffic packing
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=256),
)
def test_split_volume_conserves_bits(volume, packet_size):
    messages = split_volume_into_messages(1, 2, float(volume), packet_size)
    assert sum(message.size_bits for message in messages) == volume
    assert all(1 <= message.size_bits <= packet_size for message in messages)

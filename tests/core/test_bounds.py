"""Unit tests for the residual lower-bound family (``repro.core.bounds``).

The admissibility *property* (every bound below the brute-force optimum)
lives in ``tests/property/test_bound_admissibility.py``; here we pin the
mechanics: residual edge masks, offer tables, the per-edge cheapest-cover
bound, the lazy max-of-parts composition, the per-search bound cache
counters, and how the search uses the bound.  Bounds take a residual as
an edge mask over the ACG's ``EdgeIndex``; ``full(acg)`` is the whole ACG.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import (
    CheapestEdgeBound,
    CoverOffer,
    EdgeCharges,
    ResidualBound,
    StackedBound,
    bound_tables,
)
from repro.core.cost import LinkCountCostModel, UnitCostModel
from repro.core.decomposition import (
    BranchAndBoundDecomposer,
    DecompositionConfig,
    SearchStatistics,
    decompose,
)
from repro.core.graph import ApplicationGraph, DiGraph, EdgeIndex
from repro.core.library import default_library

LINK = LinkCountCostModel()
UNIT = UnitCostModel()


def acg_from_edges(edges, name="unit") -> ApplicationGraph:
    acg = ApplicationGraph(name=name)
    for index, (source, target) in enumerate(edges):
        acg.add_communication(source, target, volume=float(8 * (index + 1)))
    return acg


def full(acg) -> int:
    """The residual mask of the whole ACG."""
    return EdgeIndex(acg).full


def cheapest_edge(acg, statistics=None) -> CheapestEdgeBound:
    """The search's bound on ``acg``: default library, link-count model."""
    charges = EdgeCharges(bound_tables(default_library(), LINK), LINK, EdgeIndex(acg))
    return CheapestEdgeBound(charges, statistics)


class HalvedCharges:
    """Half of another bound's charges: a looser bound, admissible with it."""

    def __init__(self, charges) -> None:
        self.charges = charges

    def total(self, residual: int) -> float:
        return self.charges.total(residual) / 2.0


class HalvedBound(ResidualBound):
    name = "halved"

    def __init__(self, bound: ResidualBound) -> None:
        super().__init__(charges=HalvedCharges(bound.charges))


class TestResidualMask:
    INDEX = EdgeIndex(DiGraph.from_edges([(1, 2), (2, 3), (3, 1), (1, 3)]))

    def test_order_independent_and_exact(self):
        forward = self.INDEX.mask_of(DiGraph.from_edges([(1, 2), (2, 3), (3, 1)]).edges())
        shuffled = self.INDEX.mask_of(DiGraph.from_edges([(3, 1), (1, 2), (2, 3)]).edges())
        assert forward == shuffled
        other = self.INDEX.mask_of(DiGraph.from_edges([(1, 2), (2, 3), (1, 3)]).edges())
        assert forward != other

    def test_isolated_nodes_do_not_enter_the_mask(self):
        graph = DiGraph.from_edges([(1, 2)])
        with_isolate = DiGraph.from_edges([(1, 2)])
        with_isolate.add_node(99)
        assert self.INDEX.mask_of(graph.edges()) == self.INDEX.mask_of(with_isolate.edges())


class TestBoundTables:
    def test_flat_model_yields_flat_offers(self):
        tables = bound_tables(default_library(), LINK)
        assert tables.offers
        # link count distributes the matching cost evenly over rep edges
        assert all(offer.flat_share is not None for offer in tables.offers)
        # the library's full-duplex primitives contribute paired offers
        assert any(offer.paired for offer in tables.offers)

    def test_additive_model_prices_offers_by_route(self):
        tables = bound_tables(default_library(), UNIT)
        assert tables.offers
        assert all(offer.flat_share is None for offer in tables.offers)

    def test_tables_are_memoized_per_library_and_cost_model(self):
        library = default_library()
        assert bound_tables(library, LINK) is bound_tables(library, LinkCountCostModel())
        assert bound_tables(library, LINK) is not bound_tables(library, UNIT)
        assert bound_tables(library, LINK) is not bound_tables(default_library(), LINK)


class TestCoverOffer:
    OFFER = CoverOffer(
        primitive_name="p",
        paired=True,
        source_out=2,
        source_in=0,
        source_bi=1,
        target_out=1,
        target_in=1,
        target_bi=1,
        hops=1,
        flat_share=1.0,
    )

    def test_paired_offer_rejects_unidirectional_edges(self):
        assert not self.OFFER.feasible(False, (9, 9, 9), (9, 9, 9))
        assert self.OFFER.feasible(True, (9, 9, 9), (9, 9, 9))

    def test_endpoint_degree_requirements_gate_feasibility(self):
        assert self.OFFER.feasible(True, (2, 0, 1), (1, 1, 1))
        assert not self.OFFER.feasible(True, (1, 0, 1), (1, 1, 1))  # source out
        assert not self.OFFER.feasible(True, (2, 0, 0), (1, 1, 1))  # source bi
        assert not self.OFFER.feasible(True, (2, 0, 1), (1, 0, 1))  # target in


class TestCheapestEdgeBound:
    def test_single_edge_never_beats_the_remainder_charge(self):
        acg = acg_from_edges([(1, 2)])
        value = cheapest_edge(acg).value(full(acg))
        assert 0 < value <= LINK.edge_remainder_cost(acg, (1, 2)) + 1e-9

    def test_empty_residual_is_free(self):
        acg = acg_from_edges([(1, 2)])
        assert cheapest_edge(acg).value(0) == 0.0

    def test_bound_cache_counts_misses_then_hits(self):
        statistics = SearchStatistics()
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3)])
        bound = cheapest_edge(acg, statistics)
        first = bound.value(full(acg))
        assert (statistics.bound_cache_misses, statistics.bound_cache_hits) == (1, 0)
        assert bound.value(full(acg)) == first
        assert (statistics.bound_cache_misses, statistics.bound_cache_hits) == (1, 1)


    def test_searches_share_charges_but_not_the_bound_cache(self):
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3), (3, 1)])
        charges = EdgeCharges(bound_tables(default_library(), LINK), LINK, EdgeIndex(acg))
        first, second = SearchStatistics(), SearchStatistics()
        one = CheapestEdgeBound(charges, first)
        other = CheapestEdgeBound(charges, second)
        value = one.value(full(acg))
        assert value == cheapest_edge(acg).value(full(acg))
        assert other.value(full(acg)) == value
        # each bound keeps its own residual cache and counters
        assert (first.bound_cache_misses, second.bound_cache_misses) == (1, 1)
        assert first.bound_cache_hits == second.bound_cache_hits == 0


class TestStackedBound:
    def build(self, acg, statistics=None):
        tighter = cheapest_edge(acg, statistics)
        return StackedBound([HalvedBound(tighter), tighter])

    def test_value_is_the_max_of_the_parts(self):
        acg = acg_from_edges([(1, 2), (2, 1), (1, 3), (3, 4)])
        stacked = self.build(acg)
        assert stacked.value(full(acg)) == max(part.value(full(acg)) for part in stacked.parts)

    def test_prune_reason_names_the_first_firing_part(self):
        acg = acg_from_edges([(1, 2), (2, 1), (1, 3), (3, 4)])
        stacked = self.build(acg)
        halved, cheapest = (part.value(full(acg)) for part in stacked.parts)
        assert 0 < halved < cheapest
        # both parts reach the halved value: the first part in order fires
        assert stacked.prune_reason(full(acg), halved) == "halved"
        # only the tighter part reaches its own value
        assert stacked.prune_reason(full(acg), cheapest) == "cheapest_edge"
        assert stacked.prune_reason(full(acg), cheapest + 1.0) is None

    def test_infinite_target_never_prunes(self):
        acg = acg_from_edges([(1, 2)])
        stacked = self.build(acg)
        assert stacked.prune_reason(full(acg), float("inf")) is None

    def test_prune_reason_stops_at_the_first_firing_part(self):
        acg = acg_from_edges([(1, 2), (2, 1), (1, 3), (3, 4)])
        statistics = SearchStatistics()
        stacked = self.build(acg, statistics)
        halved = stacked.parts[0].value(full(acg))
        # the cheap part fires, so the later part is never evaluated
        assert stacked.prune_reason(full(acg), halved) == "halved"
        assert statistics.bound_cache_misses == 0
        # a target above the cheap part falls through to the next one
        assert stacked.prune_reason(full(acg), halved + 1e-6) == "cheapest_edge"
        assert statistics.bound_cache_misses == 1


class TestSearchIntegration:
    CONFIG = dict(max_leaves=None)

    def test_search_records_bound_cache_and_provenance(self):
        acg = acg_from_edges(
            [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (1, 4), (4, 1), (1, 3)],
            name="ring",
        )
        config = DecompositionConfig(max_matchings_per_primitive=3, **self.CONFIG)
        statistics = decompose(acg, default_library(), LINK, config).statistics
        assert statistics.branches_pruned > 0
        pruned_by_bounds = {
            reason: count
            for reason, count in statistics.branches_pruned_by.items()
            if reason != "transposition"
        }
        assert sum(pruned_by_bounds.values()) == statistics.branches_pruned
        assert set(pruned_by_bounds) == {"cheapest_edge"}
        assert statistics.bound_cache_misses > 0
        as_dict = statistics.as_dict()
        assert as_dict["branches_pruned_by"] == statistics.branches_pruned_by
        assert as_dict["bound_cache_hits"] == statistics.bound_cache_hits

    def test_disabling_the_bound_short_circuits(self):
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3)])
        config = DecompositionConfig(
            max_matchings_per_primitive=3, use_lower_bound=False, **self.CONFIG
        )
        statistics = decompose(acg, default_library(), LINK, config).statistics
        assert statistics.bound_cache_hits == 0
        assert statistics.bound_cache_misses == 0
        assert set(statistics.branches_pruned_by) <= {"transposition"}

    def test_no_bound_name_to_choose(self):
        with pytest.raises(TypeError, match="lower_bound"):
            DecompositionConfig(lower_bound="cost_model")

    @pytest.mark.parametrize("bounded, charges", [(True, EdgeCharges), (False, type(None))])
    def test_the_basis_holds_charges_only_for_a_bounded_search(self, bounded, charges):
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3)])
        config = DecompositionConfig(use_lower_bound=bounded)
        basis = BranchAndBoundDecomposer(default_library(), LINK, config).search_basis(acg, LINK)
        assert type(basis.charges) is charges

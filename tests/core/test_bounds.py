"""Unit tests for the residual lower-bound family (``repro.core.bounds``).

The admissibility *property* (every bound below the brute-force optimum)
lives in ``tests/property/test_bound_admissibility.py``; here we pin the
mechanics: residual edge masks, offer tables, the per-edge cheapest-cover
bound, the lazy max-of-parts composition, the per-search bound cache
counters, and the factory surface.  Bounds take a residual as an edge
mask over the ACG's ``EdgeIndex``; ``full(acg)`` is the whole ACG.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import (
    BOUND_NAMES,
    CheapestEdgeBound,
    CostModelBound,
    CoverOffer,
    StackedBound,
    bound_tables,
    build_lower_bound,
)
from repro.core.cost import LinkCountCostModel, UnitCostModel
from repro.core.decomposition import DecompositionConfig, SearchStatistics, decompose
from repro.core.graph import ApplicationGraph, DiGraph, EdgeIndex
from repro.core.library import default_library
from repro.exceptions import DecompositionError

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
        bound = CheapestEdgeBound(bound_tables(default_library(), LINK), LINK, acg)
        value = bound.value(full(acg))
        assert 0 < value <= LINK.edge_remainder_cost(acg, (1, 2)) + 1e-9

    def test_empty_residual_is_free(self):
        acg = acg_from_edges([(1, 2)])
        bound = CheapestEdgeBound(bound_tables(default_library(), LINK), LINK, acg)
        assert bound.value(0) == 0.0

    def test_bound_cache_counts_misses_then_hits(self):
        statistics = SearchStatistics()
        acg = acg_from_edges([(1, 2), (2, 1), (2, 3)])
        tables = bound_tables(default_library(), LINK)
        bound = CheapestEdgeBound(tables, LINK, acg, statistics=statistics)
        first = bound.value(full(acg))
        assert (statistics.bound_cache_misses, statistics.bound_cache_hits) == (1, 0)
        assert bound.value(full(acg)) == first
        assert (statistics.bound_cache_misses, statistics.bound_cache_hits) == (1, 1)


class TestStackedBound:
    def build(self, acg):
        tables = bound_tables(default_library(), LINK)
        return StackedBound(
            [CostModelBound(LINK, acg), CheapestEdgeBound(tables, LINK, acg)]
        )

    def test_value_is_the_max_of_the_parts(self):
        acg = acg_from_edges([(1, 2), (2, 1), (1, 3), (3, 4)])
        stacked = self.build(acg)
        assert stacked.value(full(acg)) == max(part.value(full(acg)) for part in stacked.parts)

    def test_prune_reason_names_the_first_firing_part(self):
        acg = acg_from_edges([(1, 2), (2, 1), (1, 3), (3, 4)])
        stacked = self.build(acg)
        legacy, cheapest = (part.value(full(acg)) for part in stacked.parts)
        assert 0 < legacy < cheapest
        # both parts reach the legacy value: the first part in order fires
        assert stacked.prune_reason(full(acg), legacy) == "cost_model"
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
        tables = bound_tables(default_library(), LINK)
        stacked = StackedBound(
            [
                CostModelBound(LINK, acg),
                CheapestEdgeBound(tables, LINK, acg, statistics=statistics),
            ]
        )
        legacy = stacked.parts[0].value(full(acg))
        # the cheap part fires, so the later part is never evaluated
        assert stacked.prune_reason(full(acg), legacy) == "cost_model"
        assert statistics.bound_cache_misses == 0
        # a target above the cheap part falls through to the next one
        assert stacked.prune_reason(full(acg), legacy + 1e-6) == "cheapest_edge"
        assert statistics.bound_cache_misses == 1


class TestBuildLowerBound:
    @pytest.mark.parametrize("name", ["nope", "stacked", "packing", "exact_small"])
    def test_unknown_name_raises(self, name):
        acg = acg_from_edges([(1, 2)])
        with pytest.raises(DecompositionError, match="unknown lower bound"):
            build_lower_bound(name, default_library(), LINK, acg)

    def test_names_are_the_two_remaining_bounds(self):
        assert BOUND_NAMES == ("cost_model", "cheapest_edge")

    def test_config_rejects_an_unknown_name_at_construction(self):
        with pytest.raises(DecompositionError, match="cost_model, cheapest_edge"):
            DecompositionConfig(lower_bound="stacked")

    def test_config_defaults_to_cheapest_edge(self):
        assert DecompositionConfig().lower_bound == "cheapest_edge"

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_config_accepts_every_bound_name(self, name):
        assert DecompositionConfig(lower_bound=name).lower_bound == name

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("cost_model", CostModelBound),
            ("cheapest_edge", CheapestEdgeBound),
        ],
    )
    def test_every_name_builds_its_kind(self, name, kind):
        assert name in BOUND_NAMES
        bound = build_lower_bound(name, default_library(), LINK, acg_from_edges([(1, 2)]))
        assert isinstance(bound, kind)


class TestSearchIntegration:
    CONFIG = dict(max_leaves=None)

    def test_search_records_bound_cache_and_provenance(self):
        acg = acg_from_edges(
            [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (1, 4), (4, 1), (1, 3)],
            name="ring",
        )
        config = DecompositionConfig(
            max_matchings_per_primitive=3, lower_bound="cheapest_edge", **self.CONFIG
        )
        statistics = decompose(acg, default_library(), LINK, config).statistics
        assert statistics.branches_pruned > 0
        pruned_by_bounds = {
            reason: count
            for reason, count in statistics.branches_pruned_by.items()
            if reason != "transposition"
        }
        assert sum(pruned_by_bounds.values()) == statistics.branches_pruned
        assert set(pruned_by_bounds) <= {"cheapest_edge"}
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

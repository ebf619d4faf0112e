"""Unit tests for the branch-and-bound / greedy decomposition engines."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

import repro.core.decomposition as decomposition_module
import repro.core.isomorphism as isomorphism_module

from repro.core.cost import LinkCountCostModel, UnitCostModel
from repro.core.decomposition import (
    BranchAndBoundDecomposer,
    DecompositionConfig,
    GreedyDecomposer,
    SearchStatistics,
    SearchStrategy,
    decompose,
    replay_cover,
)
from repro.core.graph import ApplicationGraph
from repro.core.library import CommunicationLibrary, minimal_library
from repro.core.primitives import make_broadcast_primitive, make_gossip_primitive
from repro.exceptions import DecompositionError
from repro.experiments.ablation import standard_ablation_acgs
from repro.workloads.random_acg import figure5_example_acg


def quick_config(**overrides) -> DecompositionConfig:
    base = dict(max_matchings_per_primitive=4)
    base.update(overrides)
    return DecompositionConfig(**base)


def _jump_clocks(monkeypatch) -> None:
    """From now on, every clock read of the search and of VF2 leaps an hour."""
    hours = itertools.count(3600.0, 3600.0)
    clock = SimpleNamespace(monotonic=lambda: next(hours))
    monkeypatch.setattr(decomposition_module, "time", clock)
    monkeypatch.setattr(isomorphism_module, "time", clock)


def _outcome(result) -> tuple:
    """Cover, cost and search statistics, the elapsed time aside."""
    statistics = result.statistics.as_dict()
    del statistics["elapsed_seconds"]
    return (
        result.total_cost,
        [matching.sort_key() for matching in result.matchings],
        sorted(result.remainder.edges()),
        statistics,
    )


class TestNoClockDecides:
    @pytest.mark.parametrize("strategy", list(SearchStrategy))
    @pytest.mark.parametrize("max_nodes", [None, 3])
    def test_covers_are_identical_under_a_jumping_clock(
        self, library, monkeypatch, strategy, max_nodes
    ):
        acg = figure5_example_acg()
        config = DecompositionConfig(strategy=strategy, max_nodes_expanded=max_nodes)
        expected = _outcome(decompose(acg, library, LinkCountCostModel(), config))
        _jump_clocks(monkeypatch)
        assert _outcome(decompose(acg, library, LinkCountCostModel(), config)) == expected

    def test_a_dse_cell_is_identical_under_a_jumping_clock(self, monkeypatch):
        from repro.dse.pipeline import EvaluationSettings, evaluate_cells
        from repro.dse.scenarios import tgff_scenario

        def run():
            (record,) = evaluate_cells(
                [(tgff_scenario(10, 7), EvaluationSettings(), {}, "cell")]
            )
            del record.search_statistics["elapsed_seconds"]
            return record.status, record.metrics, record.search_statistics

        expected = run()
        assert expected[0] == "ok"
        _jump_clocks(monkeypatch)
        assert run() == expected

    @pytest.mark.parametrize("strategy", list(SearchStrategy))
    def test_a_vf2_abort_raises_instead_of_clipping(self, library, monkeypatch, strategy):
        _jump_clocks(monkeypatch)
        config = DecompositionConfig(strategy=strategy, isomorphism_timeout_seconds=60.0)
        with pytest.raises(DecompositionError, match="isomorphism_timeout_seconds=60"):
            decompose(figure5_example_acg(), library, LinkCountCostModel(), config)

    def test_a_search_abort_raises_instead_of_truncating(self, library, monkeypatch):
        _jump_clocks(monkeypatch)
        config = DecompositionConfig(total_timeout_seconds=60.0)
        with pytest.raises(DecompositionError, match="total_timeout_seconds=60"):
            decompose(figure5_example_acg(), library, LinkCountCostModel(), config)


class TestDecompositionBasics:
    def test_k4_decomposes_into_single_gossip(self, k4_acg, library):
        result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=quick_config())
        assert result.primitives_used() == {"MGG4": 1}
        assert result.remainder.num_edges == 0
        assert result.total_cost == pytest.approx(4.0)

    def test_pipeline_decomposes_into_paths(self, pipeline_acg, library):
        result = decompose(
            pipeline_acg, library, cost_model=LinkCountCostModel(), config=quick_config()
        )
        result.validate_cover()
        assert result.covered_edge_fraction() >= 0.5
        assert all(
            matching.primitive.name.startswith(("P", "L")) for matching in result.matchings
        )

    def test_empty_acg(self, library):
        acg = ApplicationGraph(name="empty")
        acg.add_node(1)
        result = decompose(acg, library, cost_model=UnitCostModel(), config=quick_config())
        assert result.num_matchings == 0
        assert result.remainder.num_edges == 0
        assert result.total_cost == 0.0

    def test_unmatchable_graph_goes_to_remainder(self):
        # with a gossip-only library, a lone directed edge cannot be matched
        library = CommunicationLibrary()
        library.add(make_gossip_primitive(4))
        acg = ApplicationGraph.from_traffic({(1, 2): 10.0})
        result = decompose(acg, library, cost_model=UnitCostModel(), config=quick_config())
        assert result.num_matchings == 0
        assert result.remainder.num_edges == 1
        assert result.covered_edge_fraction() == 0.0

    def test_figure5_acg_fully_covered(self, library):
        result = decompose(
            figure5_example_acg(), library, cost_model=LinkCountCostModel(), config=quick_config()
        )
        assert result.remainder.num_edges == 0
        assert result.primitives_used() == {"MGG4": 1, "G1to3": 3, "G1to4": 1}


class TestCoverValidation:
    def test_validate_cover_accepts_valid_result(self, k4_acg, library):
        result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=quick_config())
        result.validate_cover()  # must not raise

    def test_validate_cover_detects_missing_edges(self, k4_acg, library):
        result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=quick_config())
        result.acg.add_communication(1, 5, volume=1.0)  # edge not covered
        with pytest.raises(DecompositionError):
            result.validate_cover()


class TestBranchAndBoundVsGreedy:
    def test_branch_and_bound_never_worse_than_greedy(self, library):
        acg = figure5_example_acg()
        cost_model = LinkCountCostModel()
        bnb = BranchAndBoundDecomposer(library, cost_model, quick_config()).decompose(acg)
        greedy = GreedyDecomposer(library, cost_model, quick_config()).decompose(acg)
        assert bnb.total_cost <= greedy.total_cost + 1e-9

    def test_strategy_selection_via_config(self, k4_acg, library):
        greedy_result = decompose(
            k4_acg,
            library,
            cost_model=LinkCountCostModel(),
            config=quick_config(strategy=SearchStrategy.GREEDY),
        )
        assert greedy_result.primitives_used() == {"MGG4": 1}

    def test_greedy_prefers_cheapest_matching_of_largest_primitive(self, library):
        acg = figure5_example_acg()
        result = GreedyDecomposer(library, LinkCountCostModel(), quick_config()).decompose(acg)
        assert result.matchings[0].primitive.name == "MGG4"
        result.validate_cover()


class TestSearchBudgets:
    def test_max_nodes_expanded_budget(self, library):
        acg = figure5_example_acg()
        config = quick_config(max_nodes_expanded=1)
        result = decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
        result.validate_cover()

    def test_node_budget_checked_inside_candidate_loop(self, library):
        # Regression: the cap used to be checked only at node entry, so one
        # node could keep expanding children long after the budget was hit.
        acg = figure5_example_acg()
        for cap in (1, 3, 5):
            config = quick_config(max_nodes_expanded=cap)
            result = decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
            result.validate_cover()
            assert result.statistics.truncated
        # with the loop check, a second child is never expanded once the
        # budget is exhausted: greedy-fallback node counts aside, the
        # branch-and-bound itself cannot exceed the cap
        config = quick_config(max_nodes_expanded=4)
        bnb = BranchAndBoundDecomposer(library, LinkCountCostModel(), config)
        bnb_result = bnb.decompose(acg)
        bnb_result.validate_cover()

    @pytest.mark.parametrize(
        ("graph", "max_nodes", "cover", "remainder", "counters"),
        [
            (
                "figure5",
                1,
                [
                    "1: MGG4,  Mapping: (1 1), (2 2), (3 5), (4 6)",
                    "2: G1to4,  Mapping: (1 8), (2 1), (3 3), (4 6), (5 7)",
                    "3: G1to3,  Mapping: (1 3), (2 2), (3 5), (4 6)",
                    "3: G1to3,  Mapping: (1 4), (2 5), (3 6), (4 7)",
                    "3: G1to3,  Mapping: (1 7), (2 3), (3 5), (4 6)",
                ],
                [],
                dict(nodes_expanded=6, matchings_tried=30, matchings_enumerated=210,
                     matching_cache_hits=7, matching_cache_misses=9),
            ),
            (
                "figure5",
                2,
                [
                    "1: MGG4,  Mapping: (1 1), (2 2), (3 5), (4 6)",
                    "2: G1to4,  Mapping: (1 8), (2 1), (3 3), (4 6), (5 7)",
                    "3: G1to3,  Mapping: (1 3), (2 2), (3 5), (4 6)",
                    "3: G1to3,  Mapping: (1 4), (2 5), (3 6), (4 7)",
                    "3: G1to3,  Mapping: (1 7), (2 3), (3 5), (4 6)",
                ],
                [],
                dict(nodes_expanded=7, matchings_tried=30, matchings_enumerated=210,
                     matching_cache_hits=11, matching_cache_misses=9),
            ),
            (
                "aes",
                1,
                [
                    "1: MGG4,  Mapping: (1 1), (2 5), (3 9), (4 13)",
                    "1: MGG4,  Mapping: (1 2), (2 6), (3 10), (4 14)",
                    "1: MGG4,  Mapping: (1 3), (2 7), (3 11), (4 15)",
                    "1: MGG4,  Mapping: (1 4), (2 8), (3 12), (4 16)",
                    "4: L4,  Mapping: (1 5), (2 8), (3 7), (4 6)",
                    "4: L4,  Mapping: (1 13), (2 14), (3 15), (4 16)",
                ],
                [(9, 11), (10, 12), (11, 9), (12, 10)],
                dict(nodes_expanded=7, matchings_tried=33, matchings_enumerated=287,
                     matching_cache_hits=5, matching_cache_misses=5),
            ),
            (
                "aes",
                2,
                [
                    "1: MGG4,  Mapping: (1 1), (2 5), (3 9), (4 13)",
                    "1: MGG4,  Mapping: (1 2), (2 6), (3 10), (4 14)",
                    "1: MGG4,  Mapping: (1 3), (2 7), (3 11), (4 15)",
                    "1: MGG4,  Mapping: (1 4), (2 8), (3 12), (4 16)",
                    "4: L4,  Mapping: (1 5), (2 8), (3 7), (4 6)",
                    "4: L4,  Mapping: (1 13), (2 14), (3 15), (4 16)",
                ],
                [(9, 11), (10, 12), (11, 9), (12, 10)],
                dict(nodes_expanded=8, matchings_tried=33, matchings_enumerated=287,
                     matching_cache_hits=10, matching_cache_misses=5),
            ),
        ],
    )
    def test_no_leaf_fallback_counts_search_and_greedy_pass(
        self, library, aes_lib, aes_acg, graph, max_nodes, cover, remainder, counters
    ):
        # the budget runs out before any leaf, so the greedy pass supplies
        # the cover; its counters add to the truncated search's
        acg, graph_library = (
            (figure5_example_acg(), library) if graph == "figure5" else (aes_acg, aes_lib)
        )
        config = quick_config(max_nodes_expanded=max_nodes)
        result = decompose(acg, graph_library, cost_model=LinkCountCostModel(), config=config)
        statistics = result.statistics.as_dict()
        del statistics["elapsed_seconds"]
        assert [matching.describe() for matching in result.matchings] == cover
        assert sorted(result.remainder.edges()) == remainder
        assert statistics == {
            "leaves_evaluated": 1,
            "branches_pruned": 0,
            "branches_pruned_by": {},
            "bound_cache_hits": 0,
            "bound_cache_misses": 0,
            "transposition_hits": 0,
            "truncated": True,
            "truncated_by": "nodes",
            **counters,
        }

    def test_max_leaves_budget(self, library):
        acg = figure5_example_acg()
        config = quick_config(max_leaves=1)
        result = decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
        result.validate_cover()
        assert result.statistics.leaves_evaluated <= 1 or result.statistics.truncated

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("max_matchings_per_primitive", 0),
            ("max_matchings_per_primitive", -1),
            ("max_nodes_expanded", -5),
            ("max_nodes_expanded", 0),
            ("max_leaves", 0),
            ("isomorphism_timeout_seconds", 0.0),
            ("total_timeout_seconds", -1.0),
            ("use_lower_bound", "no"),
            ("use_lower_bound", 1),
            ("use_transposition_table", 0.0),
            ("use_transposition_table", None),
        ],
    )
    def test_out_of_range_budget_rejected(self, name, value):
        with pytest.raises(DecompositionError, match=name):
            DecompositionConfig(**{name: value})

    def test_strategy_given_as_a_string_rejected(self):
        with pytest.raises(DecompositionError, match="'branch_and_bound', 'greedy'"):
            DecompositionConfig(strategy="greedy")

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    @pytest.mark.parametrize(
        "name", ["max_matchings_per_primitive", "max_leaves", "max_nodes_expanded"]
    )
    def test_counter_of_the_wrong_type_rejected(self, name, value):
        with pytest.raises(DecompositionError, match=f"{name} must be an int"):
            DecompositionConfig(**{name: value})

    @pytest.mark.parametrize("value", ["5", True, [1.0]])
    @pytest.mark.parametrize("name", ["isomorphism_timeout_seconds", "total_timeout_seconds"])
    def test_timeout_of_the_wrong_type_rejected(self, name, value):
        with pytest.raises(DecompositionError, match=f"{name} must be a number"):
            DecompositionConfig(**{name: value})

    def test_integer_timeout_accepted(self):
        assert DecompositionConfig(total_timeout_seconds=5).total_timeout_seconds == 5

    def test_disabling_lower_bound_still_finds_optimum(self, k4_acg, library):
        config = quick_config(use_lower_bound=False)
        result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=config)
        assert result.total_cost == pytest.approx(4.0)


class TestStatisticsAndReporting:
    def test_statistics_populated(self, k4_acg, library):
        result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=quick_config())
        stats = result.statistics.as_dict()
        assert stats["nodes_expanded"] >= 1
        assert stats["leaves_evaluated"] >= 1
        assert stats["elapsed_seconds"] >= 0.0

    def test_describe_contains_cost_and_matchings(self, k4_acg, library):
        result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=quick_config())
        text = result.describe()
        assert text.startswith("COST:")
        assert "MGG4" in text
        assert "Remaining Graph" in text

    def test_matching_costs_align_with_total(self, k4_acg, library):
        result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=quick_config())
        assert result.total_cost == pytest.approx(
            sum(result.matching_costs) + result.remainder_cost
        )


class TestSymmetryFilteredLeaves:
    """Regression: a partial decomposition whose children are all removed by
    the symmetry filter must still be evaluated as a leaf.

    The fixture is built so the optimum *requires* stopping early: covering
    the star with G1to3 costs more than leaving it in the remainder (one of
    the binomial-tree routes takes two hops), while covering the pair with
    MGG2 is worthwhile.  Because MGG2 carries the larger canonical key, the
    branch that takes MGG2 first finds the star matching filtered out
    (``sort_key() < min_key``) — the buggy search silently dropped that
    partial decomposition and returned the strictly worse full cover.
    """

    @staticmethod
    def _library() -> CommunicationLibrary:
        library = CommunicationLibrary(name="leaf-regression")
        library.add(make_broadcast_primitive(3))  # id 1: G1to3, low sort key
        library.add(make_gossip_primitive(2, name="MGG2"))  # id 2: high sort key
        return library

    @staticmethod
    def _acg() -> ApplicationGraph:
        acg = ApplicationGraph(name="star-plus-pair")
        for receiver in ("a", "b", "c"):
            acg.add_communication("s", receiver, volume=1.0)
        acg.add_communication("x", "y", volume=1.0)
        acg.add_communication("y", "x", volume=1.0)
        return acg

    def test_optimum_requires_symmetry_filtered_leaf(self):
        # Cover costs: G1to3 = 1+1+2 hops = 4 > 3 * 1.2 remainder; MGG2 = 2
        # < 2 * 1.2 remainder.  Optimum: MGG2 alone at 2 + 3.6 = 5.6; the
        # buggy search could only score the full cover at 4 + 2 = 6.
        cost_model = UnitCostModel(remainder_penalty=1.2)
        result = BranchAndBoundDecomposer(
            self._library(), cost_model, quick_config(max_matchings_per_primitive=None)
        ).decompose(self._acg())
        result.validate_cover()
        assert result.primitives_used() == {"MGG2": 1}
        assert result.remainder.num_edges == 3
        assert result.total_cost == pytest.approx(5.6)

    def test_leaf_also_scored_without_lower_bound(self):
        cost_model = UnitCostModel(remainder_penalty=1.2)
        result = BranchAndBoundDecomposer(
            self._library(),
            cost_model,
            quick_config(max_matchings_per_primitive=None, use_lower_bound=False),
        ).decompose(self._acg())
        assert result.total_cost == pytest.approx(5.6)

    def test_optimum_independent_of_library_order(self):
        # With the library order reversed, MGG2 carries the *lower* key and
        # the unprofitable star primitive survives the symmetry filter on the
        # MGG2-first branch.  Stop-early leaves are scored at interior nodes
        # too, so the 5.6 optimum must not depend on primitive insertion
        # order.
        library = CommunicationLibrary(name="leaf-regression-reversed")
        library.add(make_gossip_primitive(2, name="MGG2"))  # id 1: low sort key
        library.add(make_broadcast_primitive(3))  # id 2: G1to3, high sort key
        cost_model = UnitCostModel(remainder_penalty=1.2)
        result = BranchAndBoundDecomposer(
            library, cost_model, quick_config(max_matchings_per_primitive=None)
        ).decompose(self._acg())
        result.validate_cover()
        assert result.primitives_used() == {"MGG2": 1}
        assert result.total_cost == pytest.approx(5.6)


class TestSearchAccelerations:
    """The matching inheritance and transposition table must not change results."""

    def _all_configs(self):
        for table in (True, False):
            yield quick_config(use_transposition_table=table)

    def test_cache_and_table_preserve_figure5_result(self, library):
        acg = figure5_example_acg()
        costs = set()
        for config in self._all_configs():
            result = decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
            result.validate_cover()
            costs.add(result.total_cost)
            assert result.primitives_used() == {"MGG4": 1, "G1to3": 3, "G1to4": 1}
        assert len(costs) == 1

    def test_cache_and_table_preserve_k4_result(self, k4_acg, library):
        for config in self._all_configs():
            result = decompose(k4_acg, library, cost_model=LinkCountCostModel(), config=config)
            assert result.total_cost == pytest.approx(4.0)

    def test_cache_statistics_populated(self, library):
        acg = figure5_example_acg()
        result = decompose(
            acg, library, cost_model=LinkCountCostModel(), config=quick_config()
        )
        stats = result.statistics
        assert stats.matching_cache_hits > 0
        assert stats.matching_cache_misses > 0

    @staticmethod
    def _revisiting_acg() -> ApplicationGraph:
        """A small random digraph whose capped branches reach the same
        residual edge set through different matching interleavings."""
        import random

        rng = random.Random(10)
        acg = ApplicationGraph(name="transposition-probe")
        edges: set[tuple[int, int]] = set()
        while len(edges) < 14:
            source, target = rng.sample(range(8), 2)
            edges.add((source, target))
        for source, target in sorted(edges):
            acg.add_communication(source, target, volume=1.0)
        return acg

    def test_transposition_hits_on_commuting_overlaps(self, library):
        # unbounded: the residual bound prunes these commuting
        # interleavings before they ever reach the table
        acg = self._revisiting_acg()
        config = quick_config(max_matchings_per_primitive=3, use_lower_bound=False)
        result = decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
        result.validate_cover()
        assert result.statistics.transposition_hits > 0
        assert result.statistics.branches_pruned_by["transposition"] == (
            result.statistics.transposition_hits
        )

        # ... and disabling the table reproduces the same cost.
        baseline = decompose(
            acg,
            library,
            cost_model=LinkCountCostModel(),
            config=quick_config(max_matchings_per_primitive=3, use_transposition_table=False),
        )
        assert baseline.statistics.transposition_hits == 0
        assert baseline.total_cost == pytest.approx(result.total_cost)


class TestRootEnumeration:
    """VF2 runs once per primitive, at the root; the cap keeps its width."""

    @staticmethod
    def _mgg2_library() -> CommunicationLibrary:
        library = CommunicationLibrary(name="mgg2-only")
        library.add(make_gossip_primitive(2, name="MGG2"))
        return library

    @staticmethod
    def _record_vf2_limits(monkeypatch) -> list:
        """From now on, every VF2 ``find_all`` call appends its limit."""
        limits = []
        find_all = isomorphism_module.VF2Matcher.find_all

        def recorded(matcher, limit=None):
            limits.append(limit)
            return find_all(matcher, limit)

        monkeypatch.setattr(isomorphism_module.VF2Matcher, "find_all", recorded)
        return limits

    def test_capped_search_reaches_the_uncapped_optimum(self):
        # AES-16 with pair gossips only: a cap that clipped each VF2 list
        # before the symmetry filter left deep nodes without candidates and
        # settled for 49; the uncapped optimum is 34.
        acg = standard_ablation_acgs()[0]
        for cap in (4, None):
            result = decompose(
                acg,
                self._mgg2_library(),
                cost_model=LinkCountCostModel(),
                config=quick_config(max_matchings_per_primitive=cap),
            )
            result.validate_cover()
            assert result.total_cost == pytest.approx(34.0)
            assert result.statistics.truncated_by is None

    def test_vf2_runs_only_at_the_root(self, library, monkeypatch):
        queries = self._record_vf2_limits(monkeypatch)
        result = decompose(
            figure5_example_acg(), library, LinkCountCostModel(), quick_config()
        )
        statistics = result.statistics
        assert statistics.nodes_expanded > 1
        assert queries == [None] * len(library.sorted_for_search())
        assert statistics.matching_cache_misses == len(queries)
        assert statistics.matching_cache_hits > 0

    def test_greedy_keeps_the_capped_vf2_order(self, library, monkeypatch):
        queries = self._record_vf2_limits(monkeypatch)
        decompose(
            figure5_example_acg(),
            library,
            LinkCountCostModel(),
            quick_config(strategy=SearchStrategy.GREEDY),
        )
        assert queries and set(queries) == {4}


class TestMinimalLibraryBehaviour:
    def test_minimal_library_covers_with_paths_only(self, k4_acg):
        result = decompose(
            k4_acg, minimal_library(), cost_model=LinkCountCostModel(), config=quick_config()
        )
        result.validate_cover()
        assert all(m.primitive.name in {"P3", "P2", "MGG2"} for m in result.matchings)
        # covering a gossip clique with paths needs more links than MGG-4
        assert result.total_cost > 4.0


class TestReplayCover:
    """The one path from chosen matchings to a validated result."""

    def test_replaying_a_search_result_reproduces_it(self, library):
        acg = figure5_example_acg()
        cost_model = LinkCountCostModel()
        searched = decompose(acg, library, cost_model, quick_config())
        statistics = SearchStatistics()
        replayed = replay_cover(acg, searched.matchings, cost_model, statistics)
        assert replayed.statistics is statistics
        assert replayed.matchings == searched.matchings
        assert replayed.matching_costs == searched.matching_costs
        assert replayed.remainder_cost == searched.remainder_cost
        assert replayed.total_cost == searched.total_cost
        assert replayed.remainder.edges() == searched.remainder.edges()

    def test_an_empty_cover_leaves_every_edge_in_the_remainder(self, k4_acg):
        result = replay_cover(k4_acg, [], LinkCountCostModel(), SearchStatistics())
        assert result.remainder.num_edges == k4_acg.num_edges
        assert result.total_cost == result.remainder_cost == float(k4_acg.num_edges)

    def test_overlapping_matchings_are_rejected(self, k4_acg):
        gossip = BranchAndBoundDecomposer(minimal_library()).decompose(k4_acg).matchings
        assert gossip
        with pytest.raises(DecompositionError, match="not present in the graph"):
            replay_cover(k4_acg, gossip + gossip, LinkCountCostModel(), SearchStatistics())

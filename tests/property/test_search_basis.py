"""Searches that share a basis through a memo equal fresh searches.

``decompose(..., memo=)`` lets branch-and-bound searches of one ACG that
differ only in their budgets share one :class:`SearchBasis`: the edge
index, the complete sorted root candidate lists and the bound's per-edge
tables.  Each search replays the enumeration counters at its own cap, so
a run of searches through one memo must equal the same searches run
fresh in cost, matchings (in order), remainder and every
:class:`SearchStatistics` counter but ``elapsed_seconds``.  A basis is
never shared across a different ACG, library or cost model, nor between
a bounded and an unbounded search.

The example budgets scale with the ``REPRO_HYPOTHESIS_BUDGET`` multiplier
(e.g. ``REPRO_HYPOTHESIS_BUDGET=8``), as in ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import DecompositionConfig, DecompositionResult, decompose
from repro.core.graph import ApplicationGraph
from repro.core.library import default_library, minimal_library

_LIBRARY = default_library()

#: uniform example-budget multiplier for the deeper CI runs
BUDGET = int(os.environ.get("REPRO_HYPOTHESIS_BUDGET", "1"))


def examples(base: int) -> int:
    """The per-test hypothesis example count, scaled by the budget."""
    return base * BUDGET


def _acgs(max_nodes: int = 7, max_edges: int = 14):
    nodes = st.integers(min_value=1, max_value=max_nodes)
    edges = st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1])

    def build(edge_list):
        acg = ApplicationGraph(name="hyp")
        for source, target in edge_list:
            acg.add_communication(source, target, volume=8.0)
        return acg

    return st.lists(edges, min_size=1, max_size=max_edges, unique=True).map(build)


#: one search of a sequence: (cap, node budget, leaf budget, bounded)
_searches = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([None, 1, 2, 5, 20]),
    st.sampled_from([None, 1, 3]),
    st.booleans(),
)


def _config(cap, nodes, leaves, bounded) -> DecompositionConfig:
    return DecompositionConfig(
        max_matchings_per_primitive=cap,
        max_nodes_expanded=nodes,
        max_leaves=leaves,
        use_lower_bound=bounded,
    )


def _outcome(result: DecompositionResult) -> tuple:
    """Everything a search decides and counts, but its wall time."""
    statistics = result.statistics.as_dict()
    del statistics["elapsed_seconds"]
    return (
        result.total_cost,
        result.matching_costs,
        result.remainder_cost,
        list(result.matchings),
        sorted(result.remainder.edges()),
        statistics,
    )


@settings(
    max_examples=examples(40), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(_acgs(), st.lists(_searches, min_size=2, max_size=5))
def test_searches_through_one_memo_equal_fresh_searches(acg, searches):
    memo: dict = {}
    cost_model = LinkCountCostModel()
    for search in searches:
        config = _config(*search)
        shared = decompose(acg, _LIBRARY, cost_model, config, memo=memo)
        fresh = decompose(acg, _LIBRARY, LinkCountCostModel(), config)
        assert _outcome(shared) == _outcome(fresh)
    # one basis with and one without the bound: the budgets never split it
    assert len(memo) == len({bounded for *_, bounded in searches})


@settings(
    max_examples=examples(20), deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(_acgs(), st.integers(min_value=1, max_value=4))
def test_a_different_library_bound_acg_or_cost_model_never_shares_a_basis(acg, cap):
    twin = ApplicationGraph(name="twin")
    for source, target in acg.edges():
        twin.add_communication(source, target, volume=8.0)
    runs = [
        (acg, _LIBRARY, LinkCountCostModel(), True),
        (acg, minimal_library(), LinkCountCostModel(), True),
        (acg, _LIBRARY, LinkCountCostModel(), False),
        (twin, _LIBRARY, LinkCountCostModel(), True),
        (acg, _LIBRARY, LinkCountCostModel(remainder_penalty=2.0), True),
    ]
    memo: dict = {}
    for graph, library, cost_model, bounded in runs:
        config = _config(cap, None, None, bounded)
        shared = decompose(graph, library, cost_model, config, memo=memo)
        fresh = decompose(graph, library, cost_model, config)
        assert _outcome(shared) == _outcome(fresh)
    assert len(memo) == len(runs)
    assert len({id(basis) for basis in memo.values()}) == len(runs)
    # an equal cost model object with equal fields is the same key
    config = _config(cap + 1, None, None, False)
    decompose(acg, _LIBRARY, LinkCountCostModel(), config, memo=memo)
    assert len(memo) == len(runs)

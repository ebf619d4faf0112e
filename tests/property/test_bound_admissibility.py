"""Admissibility properties of the residual lower bounds (hypothesis).

The whole bit-identical-pruning argument of ``repro.core.bounds`` rests on
one inequality: every bound value is at or below the true optimal cost of
completing the residual.  These tests check that inequality directly
against a brute-force optimum — an exhaustive branch-and-bound with no
enumeration clipping, no timeouts and no lower bound — on random
Erdos-Renyi-style and scale-free ACGs, for both the flat link-count model
and the additive unit model.  A second property pins ``cheapest_edge`` at
or above the legacy ``cost_model`` bound on every drawn residual, so the
legacy bound can serve as a cheap pre-test in front of the strong one.
A third pins an explicit cheap-first stack of the two to the pointwise
maximum of its parts (so provenance never changes values).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import BOUND_NAMES, StackedBound, build_lower_bound
from repro.core.cost import LinkCountCostModel, UnitCostModel
from repro.core.decomposition import DecompositionConfig, decompose
from repro.core.graph import ApplicationGraph, EdgeIndex
from repro.core.library import default_library
from repro.workloads.random_acg import scale_free_acg

_LIBRARY = default_library()
_COST_MODELS = {"link_count": LinkCountCostModel(), "unit": UnitCostModel()}

#: the ground truth: exhaustive search, nothing clipped, no bound pruning
_EXHAUSTIVE = DecompositionConfig(
    max_matchings_per_primitive=None,
    max_leaves=None,
    use_lower_bound=False,
)


def true_optimum(acg: ApplicationGraph, cost_model) -> float:
    """Brute-force optimal decomposition cost of the whole graph."""
    return decompose(acg, _LIBRARY, cost_model, _EXHAUSTIVE).total_cost


def random_acgs(max_nodes: int = 6, max_edges: int = 7):
    """Small random ACGs (kept small: the oracle is exhaustive search)."""
    nodes = st.integers(min_value=1, max_value=max_nodes)
    edges = st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1])

    def build(edge_list):
        acg = ApplicationGraph(name="hyp")
        for index, (source, target) in enumerate(edge_list):
            acg.add_communication(source, target, volume=float(8 * (index + 1)))
        return acg

    return st.lists(edges, min_size=1, max_size=max_edges, unique=True).map(build)


def scale_free_acgs():
    """Small scale-free ACGs (power-law out-degrees, hub-heavy)."""
    return st.builds(
        lambda num_nodes, seed: scale_free_acg(
            num_nodes, seed=seed, exponent=2.0, max_out_degree=3
        ),
        num_nodes=st.integers(min_value=4, max_value=7),
        seed=st.integers(min_value=0, max_value=10_000),
    )


def assert_cheapest_edge_dominates(acg, model_name):
    cost_model = _COST_MODELS[model_name]
    whole = EdgeIndex(acg).full
    legacy = build_lower_bound("cost_model", _LIBRARY, cost_model, acg).value(whole)
    cheapest = build_lower_bound("cheapest_edge", _LIBRARY, cost_model, acg).value(whole)
    assert cheapest >= legacy - 1e-9, (
        f"cheapest_edge {cheapest} below cost_model {legacy} under {model_name} "
        f"on edges {sorted(acg.edges())}"
    )


@pytest.mark.parametrize("model_name", sorted(_COST_MODELS))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=random_acgs())
def test_every_bound_is_admissible_on_random_acgs(model_name, acg):
    cost_model = _COST_MODELS[model_name]
    optimum = true_optimum(acg, cost_model)
    for name in BOUND_NAMES:
        bound = build_lower_bound(name, _LIBRARY, cost_model, acg)
        whole = EdgeIndex(acg).full
        assert bound.value(whole) <= optimum + 1e-9, (
            f"bound {name!r} over-estimated under {model_name}: "
            f"{bound.value(whole)} > optimum {optimum}"
        )
    assert_cheapest_edge_dominates(acg, model_name)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=scale_free_acgs())
def test_every_bound_is_admissible_on_scale_free_acgs(acg):
    cost_model = _COST_MODELS["link_count"]
    optimum = true_optimum(acg, cost_model)
    for name in BOUND_NAMES:
        bound = build_lower_bound(name, _LIBRARY, cost_model, acg)
        whole = EdgeIndex(acg).full
        assert bound.value(whole) <= optimum + 1e-9, (
            f"bound {name!r} over-estimated on {acg.name}: "
            f"{bound.value(whole)} > optimum {optimum}"
        )
    assert_cheapest_edge_dominates(acg, "link_count")


@pytest.mark.parametrize("model_name", sorted(_COST_MODELS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=random_acgs(max_nodes=8, max_edges=14))
def test_cheapest_edge_dominates_cost_model_on_random_acgs(model_name, acg):
    assert_cheapest_edge_dominates(acg, model_name)


@pytest.mark.parametrize("model_name", sorted(_COST_MODELS))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=scale_free_acgs())
def test_cheapest_edge_dominates_cost_model_on_scale_free_acgs(model_name, acg):
    assert_cheapest_edge_dominates(acg, model_name)


@pytest.mark.parametrize("model_name", sorted(_COST_MODELS))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=random_acgs())
def test_stacked_is_the_pointwise_max_of_its_parts(model_name, acg):
    cost_model = _COST_MODELS[model_name]
    stacked = StackedBound(
        [build_lower_bound(name, _LIBRARY, cost_model, acg) for name in BOUND_NAMES]
    )
    whole = EdgeIndex(acg).full
    assert stacked.value(whole) == max(part.value(whole) for part in stacked.parts)

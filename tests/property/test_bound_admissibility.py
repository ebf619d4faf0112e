"""Admissibility properties of the residual lower bound (hypothesis).

The whole bit-identical-pruning argument of ``repro.core.bounds`` rests on
one inequality: the bound's value is at or below the true optimal cost of
completing the residual.  These tests check that inequality directly
against a brute-force optimum — an exhaustive branch-and-bound with no
enumeration clipping, no timeouts and no lower bound — on random
Erdos-Renyi-style and scale-free ACGs, for both the flat link-count model
and the additive unit model.  A further property pins an explicit stack of
bounds to the pointwise maximum of its parts (so provenance never changes
values).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bounds import CheapestEdgeBound, EdgeCharges, StackedBound, bound_tables
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


def cheapest_edge(acg: ApplicationGraph, cost_model) -> CheapestEdgeBound:
    """The search's residual bound on the whole of ``acg``."""
    return CheapestEdgeBound(
        EdgeCharges(bound_tables(_LIBRARY, cost_model), cost_model, EdgeIndex(acg))
    )


def assert_admissible(acg: ApplicationGraph, model_name: str) -> None:
    cost_model = _COST_MODELS[model_name]
    optimum = true_optimum(acg, cost_model)
    value = cheapest_edge(acg, cost_model).value(EdgeIndex(acg).full)
    assert value <= optimum + 1e-9, (
        f"cheapest_edge over-estimated under {model_name} on edges "
        f"{sorted(acg.edges())}: {value} > optimum {optimum}"
    )


@pytest.mark.parametrize("model_name", sorted(_COST_MODELS))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=random_acgs())
def test_the_bound_is_admissible_on_random_acgs(model_name, acg):
    assert_admissible(acg, model_name)


@pytest.mark.parametrize("model_name", sorted(_COST_MODELS))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=scale_free_acgs())
def test_the_bound_is_admissible_on_scale_free_acgs(model_name, acg):
    assert_admissible(acg, model_name)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(acg=random_acgs())
def test_stacked_is_the_pointwise_max_of_its_parts(acg):
    stacked = StackedBound([cheapest_edge(acg, model) for model in _COST_MODELS.values()])
    whole = EdgeIndex(acg).full
    assert stacked.value(whole) == max(part.value(whole) for part in stacked.parts)

"""Golden search-shape regression tests for the decomposition bound.

``tests/fixtures/golden/decomposition_search.json`` pins the *shape* of
the branch-and-bound — nodes expanded, prune provenance, final cost — for
the two published case studies (the Figure-5 example on the default
library and the Figure-6 AES graph on its compact library), under the
``cheapest_edge`` bound.  A drift in nodes expanded means the pruning
power changed; a drift in cost means the search *answer* changed — both
deserve a deliberate fixture update:

    pytest tests/core/test_golden_decomposition.py --update-golden

The replay config has no leaf cap and only counter budgets ever cut a
search short, so the fixtures reproduce bit-identically on any machine.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.aes.acg import build_aes_acg
from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import DecompositionConfig, decompose
from repro.core.library import aes_library, default_library
from repro.workloads.random_acg import figure5_example_acg

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "fixtures"
    / "golden"
    / "decomposition_search.json"
)

#: the two published case studies the corpus replays
CASES = ("figure5", "aes")

#: the corpus key of each case's entry: the bound the search prunes with
BOUND = "cheapest_edge"


def case_inputs(case: str):
    """(acg, library) for one corpus case."""
    if case == "figure5":
        return figure5_example_acg(), default_library()
    return build_aes_acg(), aes_library()


def replay(case: str) -> dict[str, object]:
    """One deterministic search; the JSON-shaped fields the corpus pins."""
    acg, library = case_inputs(case)
    config = DecompositionConfig(
        max_matchings_per_primitive=4,
        max_leaves=None,
    )
    result = decompose(acg, library, LinkCountCostModel(), config)
    statistics = result.statistics
    return json.loads(
        json.dumps(
            {
                "total_cost": result.total_cost,
                "num_matchings": len(result.matchings),
                "remainder_edges": result.remainder.num_edges,
                "nodes_expanded": statistics.nodes_expanded,
                "branches_pruned": statistics.branches_pruned,
                "branches_pruned_by": dict(sorted(statistics.branches_pruned_by.items())),
            },
            sort_keys=True,
        )
    )


def test_update_golden_corpus(request):
    """Regenerate the corpus with ``--update-golden`` (no-op otherwise)."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("corpus update not requested (pass --update-golden)")
    corpus = {case: {BOUND: replay(case)} for case in CASES}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(corpus, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("case", CASES)
def test_golden_search_shape(case, request):
    """The search reproduces the committed shape bit for bit."""
    if request.config.getoption("--update-golden"):
        pytest.skip("corpus being regenerated in this run")
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; generate the corpus with "
        "pytest tests/core/test_golden_decomposition.py --update-golden"
    )
    corpus = json.loads(GOLDEN_PATH.read_text())
    assert replay(case) == corpus[case][BOUND]

"""Ablation benches for the design choices listed in docs/paper-mapping.md.

Not a paper table — these quantify (a) what the branch-and-bound search buys
over a greedy first-fit cover and (b) how sensitive the result is to the
library content, on the AES ACG, the Figure-5 example and a random ACG.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import run_library_ablation, run_strategy_ablation


@pytest.mark.smoke
def test_ablation_search_strategy(benchmark):
    result = benchmark.pedantic(run_strategy_ablation, rounds=1, iterations=1)
    print()
    print(result.describe("Branch-and-bound vs. greedy first-fit"))

    for row in result.rows:
        assert row.covered_fraction > 0.0
    # the branch-and-bound result is never worse than greedy on the same ACG
    acg_names = {row.acg_name for row in result.rows}
    for name in acg_names:
        bnb = result.cost_of(name, "branch_and_bound")
        greedy = result.cost_of(name, "greedy")
        assert bnb <= greedy + 1e-9


@pytest.mark.smoke
def test_ablation_library_content(benchmark):
    result = benchmark.pedantic(run_library_ablation, rounds=1, iterations=1)
    print()
    print(result.describe("Library-content sensitivity"))

    acg_names = {row.acg_name for row in result.rows}
    for name in acg_names:
        minimal = result.cost_of(name, "minimal_library")
        default = result.cost_of(name, "default_library")
        # a richer library never produces a more expensive cover
        assert default <= minimal + 1e-9

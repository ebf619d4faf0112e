#!/usr/bin/env python3
"""Design-space exploration: cost models, search strategies and libraries.

The decomposition engine exposes the three levers a designer actually turns:

* the **cost model** (wiring/link count, volume-weighted hops, or the full
  Equation-5 energy model with floorplan distances),
* the **search strategy** (branch-and-bound vs. greedy first-fit),
* the **library content** (minimal / default / extended primitive sets).

This example sweeps all three on the AES application graph and prints the
resulting decomposition cost, resource usage and run time, plus the ablation
tables from :mod:`repro.experiments.ablation`.

Run with:  python examples/design_space_exploration.py
"""

from __future__ import annotations

import time

from repro import (
    DecompositionConfig,
    EnergyCostModel,
    LinkCountCostModel,
    UnitCostModel,
    decompose,
    synthesize_architecture,
)
from repro.aes.acg import build_aes_acg
from repro.core.library import aes_library, default_library, extended_library
from repro.experiments import format_table, run_library_ablation, run_strategy_ablation


def sweep_cost_models() -> None:
    acg = build_aes_acg()
    library = aes_library()
    rows = []
    for label, cost_model in (
        ("link_count", LinkCountCostModel()),
        ("unit_hops", UnitCostModel()),
        ("energy_eq5", EnergyCostModel()),
    ):
        start = time.perf_counter()
        result = decompose(
            acg,
            library,
            cost_model=cost_model,
            config=DecompositionConfig(max_matchings_per_primitive=4),
        )
        runtime = time.perf_counter() - start
        architecture = synthesize_architecture(acg, result)
        rows.append(
            {
                "cost_model": label,
                "cost": result.total_cost,
                "matchings": result.num_matchings,
                "remainder_edges": result.remainder.num_edges,
                "physical_links": architecture.topology.num_physical_links,
                "runtime_s": runtime,
            }
        )
    print(format_table(rows, title="AES decomposition under different cost models"))
    print()


def sweep_libraries_and_strategies() -> None:
    print(run_strategy_ablation().describe("Branch-and-bound vs. greedy"))
    print()
    print(run_library_ablation().describe("Library content sensitivity"))
    print()
    rows = []
    for label, library in (
        ("aes_library", aes_library()),
        ("default_library", default_library()),
        ("extended_library", extended_library()),
    ):
        rows.append(
            {
                "library": label,
                "primitives": len(library),
                "max_diameter": library.max_diameter(),
            }
        )
    print(format_table(rows, title="Library inventory"))


def main() -> None:
    sweep_cost_models()
    sweep_libraries_and_strategies()


if __name__ == "__main__":
    main()

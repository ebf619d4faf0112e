#!/usr/bin/env python3
"""Quickstart: synthesize a customized NoC topology for a small application.

This walks through the full flow on a hand-written application
characterization graph (ACG):

1. describe the application's communication (who talks to whom, how much),
2. floorplan the cores (area-driven grid),
3. decompose the ACG into communication primitives (branch-and-bound),
4. glue the primitives' optimal implementations into a customized topology
   with a schedule-derived routing table,
5. inspect the result: structural metrics, constraint check, and a short
   simulation of the application traffic on the synthesized network.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ApplicationGraph,
    DecompositionConfig,
    LinkCountCostModel,
    decompose,
    default_library,
    synthesize_architecture,
)
from repro.arch.metrics import topology_report
from repro.noc.simulator import NoCSimulator, SimulatorConfig
from repro.noc.traffic import acg_messages
from repro.workloads.acg_builder import attach_grid_floorplan


def build_application() -> ApplicationGraph:
    """A small streaming application: a 4-core gossip cluster feeding a
    post-processing chain, plus a controller broadcasting configuration."""
    traffic = {
        # all-to-all exchange between the four worker cores 1-4
        **{(i, j): 256.0 for i in (1, 2, 3, 4) for j in (1, 2, 3, 4) if i != j},
        # pipeline: 4 -> 5 -> 6 -> 7
        (4, 5): 512.0,
        (5, 6): 512.0,
        (6, 7): 512.0,
        # controller 8 broadcasts configuration to the workers
        (8, 1): 64.0,
        (8, 2): 64.0,
        (8, 3): 64.0,
    }
    acg = ApplicationGraph.from_traffic(traffic, name="quickstart", bandwidth_fraction=0.01)
    attach_grid_floorplan(acg, core_size_mm=2.0)
    return acg


def main() -> None:
    acg = build_application()
    library = default_library()
    print("Application:", acg)
    print(library.describe())
    print()

    result = decompose(
        acg,
        library,
        cost_model=LinkCountCostModel(),
        config=DecompositionConfig(max_matchings_per_primitive=4),
    )
    print("Decomposition (paper-style listing):")
    print(result.describe())
    print()

    architecture = synthesize_architecture(acg, result)
    print(architecture.describe())
    print()

    report = topology_report(architecture.topology, traffic=acg)
    print("Topology metrics:", report.as_dict())
    print()

    simulator = NoCSimulator(
        architecture.topology,
        architecture.routing_table.next_hop,
        config=SimulatorConfig(router_pipeline_delay_cycles=2),
    )
    simulator.schedule_messages(acg_messages(acg, packet_size_bits=32))
    simulator.run_until_drained()
    summary = simulator.report()
    print("Simulated application traffic on the synthesized network:")
    for key in (
        "delivered",
        "total_cycles",
        "average_latency_cycles",
        "average_hops",
        "average_power_mw",
        "total_energy_uj",
    ):
        print(f"  {key:>24s}: {summary[key]:.3f}")


if __name__ == "__main__":
    main()

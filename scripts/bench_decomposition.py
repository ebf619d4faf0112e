#!/usr/bin/env python
"""Time the branch-and-bound decomposition over the benchmark graphs.

Runs the branch-and-bound search, which prunes with the ``cheapest_edge``
residual bound of :mod:`repro.core.bounds`, once per benchmark graph —
the Fig-4a TGFF sweep, the Fig-4b Pajek sweep and the embedded suite
(MPEG-4, VOPD, MWD, 263enc+mp3dec, the Figure-5 example and the AES case
study) — and reports nodes expanded, prune provenance and wall seconds
per suite.

``--check`` gates **cover quality**: no graph's cover may cost more than
in the latest trajectory entry that records per-graph costs
(``graph_costs``), so a search change cannot quietly settle for worse
covers.

Every invocation (without ``--no-write``) appends one entry to
``BENCH_decomposition.json`` so the trajectory ratchets across changes.

Usage::

    PYTHONPATH=src python scripts/bench_decomposition.py            # measure + record
    PYTHONPATH=src python scripts/bench_decomposition.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.aes.acg import build_aes_acg  # noqa: E402
from repro.core.cost import LinkCountCostModel  # noqa: E402
from repro.core.decomposition import DecompositionConfig, decompose  # noqa: E402
from repro.core.library import aes_library, default_library  # noqa: E402
from repro.workloads.benchmarks import (  # noqa: E402
    embedded_benchmark_acg,
    embedded_benchmark_names,
)
from repro.workloads.pajek import pajek_benchmark_suite  # noqa: E402
from repro.workloads.random_acg import figure5_example_acg  # noqa: E402
from repro.workloads.tgff import tgff_benchmark_suite  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_decomposition.json"

#: Fig-4a / Fig-4b sweep shapes (matching repro.experiments.runtime_sweep)
TGFF_SIZES = (5, 8, 10, 12, 15, 18)
PAJEK_SIZES = (10, 15, 20, 25, 30, 35, 40)
PAJEK_INSTANCES = 2

#: one benchmark search: deterministic and untruncated (only counter
#: budgets can cut a search short, and none is set)
CONFIG = DecompositionConfig(max_matchings_per_primitive=4, max_leaves=None)


def benchmark_cases() -> list[tuple[str, str, object, object]]:
    """(suite, name, acg, library) for every benchmark graph."""
    lib = default_library()
    cases: list[tuple[str, str, object, object]] = []
    for task_graph in tgff_benchmark_suite(sizes=TGFF_SIZES, seed=7):
        cases.append(("fig4a_tgff", task_graph.name, task_graph.to_acg(), lib))
    for acg in pajek_benchmark_suite(
        sizes=PAJEK_SIZES, instances_per_size=PAJEK_INSTANCES, edge_density=0.12, seed=11
    ):
        cases.append(("fig4b_pajek", acg.name, acg, lib))
    for name in embedded_benchmark_names():
        cases.append(("embedded", name, embedded_benchmark_acg(name), lib))
    cases.append(("embedded", "figure5", figure5_example_acg(), lib))
    cases.append(("embedded", "aes", build_aes_acg(), aes_library()))
    return cases


def run_benchmark() -> dict[str, object]:
    """One search per graph: nodes, walls and cover costs, per suite."""
    per_suite: dict[str, dict[str, float]] = {}
    pruned_by: dict[str, int] = {}
    graph_costs: dict[str, float] = {}
    for suite, name, acg, library in benchmark_cases():
        start = time.perf_counter()
        result = decompose(acg, library, LinkCountCostModel(), CONFIG)
        wall = time.perf_counter() - start
        statistics = result.statistics
        stats = per_suite.setdefault(suite, {"graphs": 0, "nodes": 0, "wall_seconds": 0.0})
        stats["graphs"] += 1
        stats["nodes"] += statistics.nodes_expanded
        stats["wall_seconds"] += wall
        for reason, count in statistics.branches_pruned_by.items():
            pruned_by[reason] = pruned_by.get(reason, 0) + count
        graph_costs[f"{suite}/{name}"] = result.total_cost
    total_wall = sum(stats["wall_seconds"] for stats in per_suite.values())
    for stats in per_suite.values():
        stats["wall_seconds"] = round(stats["wall_seconds"], 3)
    return {
        "bound": "cheapest_edge",
        "graphs": len(graph_costs),
        "nodes": sum(stats["nodes"] for stats in per_suite.values()),
        "wall_seconds": round(total_wall, 3),
        "per_suite": dict(sorted(per_suite.items())),
        "branches_pruned_by": dict(sorted(pruned_by.items())),
        "graph_costs": graph_costs,
    }


def check(result: dict[str, object], entries: list[dict[str, object]]) -> list[str]:
    """The ``--check`` gate: no cover worse than the latest trajectory
    entry with ``graph_costs``."""
    recorded = next(
        (entry["graph_costs"] for entry in reversed(entries) if "graph_costs" in entry), {}
    )
    worse = [
        f"{graph}: {cost:g} > {recorded[graph]:g}"
        for graph, cost in result["graph_costs"].items()
        if graph in recorded and cost > recorded[graph] + 1e-9
    ]
    if worse:
        return ["covers cost more than recorded: " + "; ".join(worse)]
    return []


def write_job_summary(result: dict[str, object]) -> None:
    """Append the per-suite table to the CI job summary, when in CI."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = [
        "### Decomposition search (cheapest_edge bound)",
        "",
        "| suite | graphs | nodes expanded | wall (s) |",
        "|---|---|---|---|",
    ]
    for suite, stats in result["per_suite"].items():
        lines.append(
            f"| {suite} | {stats['graphs']} | {stats['nodes']} | {stats['wall_seconds']:.3f} |"
        )
    lines += [
        f"| **all** | {result['graphs']} | {result['nodes']} | {result['wall_seconds']:.3f} |",
        "",
        "Prune provenance: "
        + ", ".join(f"{reason} {count}" for reason, count in result["branches_pruned_by"].items()),
    ]
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--label", default="", help="trajectory entry label")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a cover costs more than the trajectory records",
    )
    parser.add_argument("--no-write", action="store_true", help="measure and print only")
    args = parser.parse_args(argv)

    result = run_benchmark()
    for suite, stats in result["per_suite"].items():
        print(
            f"{suite}: {stats['graphs']} graphs, {stats['nodes']} nodes, "
            f"{stats['wall_seconds']:.3f}s"
        )
    print(
        f"all: {result['graphs']} graphs, {result['nodes']} nodes, "
        f"{result['wall_seconds']:.3f}s; prune provenance "
        + json.dumps(result["branches_pruned_by"])
    )

    payload = {"entries": []}
    if args.output.exists():
        try:
            payload = json.loads(args.output.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            pass
    # the ratchet compares against the entries recorded before this run
    failures = check(result, list(payload.get("entries", []))) if args.check else []

    if not args.no_write:
        entry = {
            "label": args.label or "cheapest_edge run",
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            **result,
        }
        payload.setdefault("entries", []).append(entry)
        args.output.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"trajectory written to {args.output}")

    write_job_summary(result)

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

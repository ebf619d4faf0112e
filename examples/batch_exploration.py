#!/usr/bin/env python3
"""Batch design-space exploration with ``repro.dse``.

Sweeps the embedded-benchmark suite (MPEG-4, VOPD, MWD, 263enc+mp3dec and
the paper's AES case study) over an architecture x configuration grid,
caches every evaluated cell in a content-hash-keyed JSONL file, and prints
the Pareto report: which cells are non-dominated on energy / latency /
throughput and how each compares to the standard-mesh baseline.

Run it twice to see the caches at work — the second invocation evaluates
nothing and still reproduces the full report, and cells differing only in
simulator axes share one decomposition through the stage-artifact store
(see docs/dse.md).

Run with:  python examples/batch_exploration.py [--parallel]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.dse import (
    ResultCache,
    StageArtifactStore,
    get_suite,
    pareto_report,
    run_sweep,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="embedded",
                        help="scenario suite to sweep (default: embedded)")
    parser.add_argument("--results", type=Path,
                        default=Path("dse_results") / "results.jsonl",
                        help="JSONL result cache")
    parser.add_argument("--parallel", action="store_true",
                        help="fan stage-sharing groups over a process pool")
    arguments = parser.parse_args()

    spec = get_suite(arguments.suite)
    scenarios = spec.build()
    cache = ResultCache(arguments.results)
    result = run_sweep(
        scenarios,
        base=spec.base_settings,
        axes=spec.default_axes,
        cache=cache,
        parallel=arguments.parallel,
        artifacts=StageArtifactStore(arguments.results.parent / "stage_artifacts"),
    )
    print(f"suite {spec.name!r}: {len(scenarios)} scenarios — {result.describe()}")
    print()
    print(pareto_report(result.records))


if __name__ == "__main__":
    main()

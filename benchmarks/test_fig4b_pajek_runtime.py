"""Figure 4b — average decomposition run time on Pajek-style random graphs.

Paper: more than 60 random graphs of 10-40 nodes, average run times growing
with size, the largest under 3 minutes (Matlab + C++ VF2).  Shape criterion:
the averaged run time grows from the small sizes to the large ones and every
graph stays within the per-graph budget.

As for Figure 4a, the sweep doubles as the hot-path perf guard for the
root enumeration and transposition table on the larger (30-40 node) random
graphs: VF2-enumerated matchings must stay at least 2x below the recorded
seed baseline, with the counters printed for inspection.
"""

from __future__ import annotations

from statistics import mean

import pytest

from repro.experiments.reporting import format_series
from repro.experiments.runtime_sweep import run_pajek_runtime_sweep

PAJEK_SIZES = (10, 15, 20, 25, 30, 35, 40)
INSTANCES_PER_SIZE = 2

# Seed-implementation total of branch candidates from fresh VF2 queries over
# this exact sweep (sizes, instances, density, seed), measured with a capped
# VF2 query at every node and no transposition table (there, every
# enumerated matching was a branch candidate).  The search enumerates each
# primitive once, completely, at the root: `matchings_tried` (the capped
# share of each root list) must stay at least 2x below it, and the total VF2
# enumeration (`matchings_enumerated`, every root matching) must not exceed
# it.
SEED_MATCHINGS_TRIED = 19465


@pytest.mark.smoke
def test_fig4b_pajek_runtime_series(benchmark):
    """Regenerate the Figure-4b series: nodes vs. average decomposition time."""
    result = benchmark.pedantic(
        lambda: run_pajek_runtime_sweep(
            sizes=PAJEK_SIZES, instances_per_size=INSTANCES_PER_SIZE
        ),
        rounds=1,
        iterations=1,
    )
    series = result.average_runtime_by_size()
    print()
    print(format_series(series, x_label="nodes", y_label="avg_runtime_s"))
    print(f"cache summary: {result.cache_summary()}")

    assert len(result.points) == len(PAJEK_SIZES) * INSTANCES_PER_SIZE
    assert result.max_runtime() < 60.0

    # shape: the large half of the size range is on average slower than the
    # small half (individual instances are noisy, the trend must hold)
    runtimes = dict(series)
    small = mean(runtimes[size] for size in PAJEK_SIZES[:3])
    large = mean(runtimes[size] for size in PAJEK_SIZES[-3:])
    assert large >= small

    # every decomposition is a valid cover with meaningful coverage
    assert all(point.covered_fraction >= 0.3 for point in result.points)

    # hot path: inherited lists must outnumber root VF2 queries on the
    # 30+-node random graphs that dominate this sweep's wall-clock, and the
    # complete root enumeration must not cost more total VF2 work than the
    # seed implementation spent
    summary = result.cache_summary()
    assert summary["matchings_tried"] * 2 <= SEED_MATCHINGS_TRIED
    assert summary["matchings_enumerated"] <= SEED_MATCHINGS_TRIED
    assert summary["matching_cache_hits"] > summary["matching_cache_misses"]

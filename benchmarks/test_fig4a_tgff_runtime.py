"""Figure 4a — decomposition run time on TGFF-style task graphs.

Paper: run times up to 0.3 s, the largest case being an 18-node automotive
benchmark.  Shape criterion: all TGFF-style graphs decompose in well under a
few seconds and the run time grows with graph size, with the automotive
benchmark the slowest of the suite.

The sweep also guards the decomposition hot path: each search runs VF2 once
per primitive, at the root, and every node below inherits its parent's
matchings, which must keep the number of VF2-enumerated matchings at least
2x below the pre-inheritance implementation (the recorded seed baseline);
the counters are printed so the effect is measured rather than asserted
blindly.
"""

from __future__ import annotations

import pytest

from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import decompose
from repro.core.library import default_library
from repro.experiments.reporting import format_series
from repro.experiments.runtime_sweep import default_sweep_config, run_tgff_runtime_sweep
from repro.workloads.tgff import automotive_benchmark

TGFF_SIZES = (5, 8, 10, 12, 15, 18)

# Total branch candidates produced by fresh VF2 queries over the full sweep
# in the seed implementation (a capped VF2 query at every node, no
# transposition table — there, every enumerated matching was a branch
# candidate), measured with the same sizes, seed and sweep config.  The
# search's root lists must keep `matchings_tried` (the capped share of each
# root list) at least 2x below this, and its *total* VF2 enumeration
# (`matchings_enumerated`, every root matching) must not exceed the seed's.
SEED_MATCHINGS_TRIED = 2917


@pytest.mark.smoke
def test_fig4a_tgff_runtime_series(benchmark):
    """Regenerate the Figure-4a series: nodes vs. average decomposition time."""
    result = benchmark.pedantic(
        lambda: run_tgff_runtime_sweep(sizes=TGFF_SIZES), rounds=1, iterations=1
    )
    series = result.average_runtime_by_size()
    print()
    print(format_series(series, x_label="nodes", y_label="avg_runtime_s"))
    print(f"cache summary: {result.cache_summary()}")

    # shape: every graph finishes quickly and the curve trends upward
    assert result.max_runtime() < 30.0
    sizes = [size for size, _ in series]
    runtimes = [runtime for _, runtime in series]
    assert sizes == sorted(sizes)
    assert max(runtimes) == runtimes[-1] or runtimes[-1] > runtimes[0]
    # the 18-node automotive benchmark is present and fully processed
    automotive = [p for p in result.points if p.name == "tgff_automotive_18"]
    assert automotive and automotive[0].covered_fraction > 0.5

    # hot path: inherited lists must outnumber root VF2 queries, and the
    # complete root enumeration must not cost more VF2 work in total than
    # the seed implementation spent
    summary = result.cache_summary()
    assert summary["matchings_tried"] * 2 <= SEED_MATCHINGS_TRIED
    assert summary["matchings_enumerated"] <= SEED_MATCHINGS_TRIED
    assert summary["matching_cache_hits"] > summary["matching_cache_misses"]


@pytest.mark.smoke
def test_fig4a_automotive_benchmark_decomposition(benchmark):
    """Benchmark the single headline case: the 18-node automotive task graph."""
    acg = automotive_benchmark().to_acg()
    library = default_library()
    config = default_sweep_config()

    result = benchmark(
        lambda: decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
    )
    result.validate_cover()
    assert result.covered_edge_fraction() > 0.5

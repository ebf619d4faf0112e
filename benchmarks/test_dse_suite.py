"""DSE suite benchmark: mesh vs. custom over the embedded benchmarks.

Regenerates the paper's Section-5.2 *shape* at sweep scale: across the
embedded-benchmark suite the synthesized architecture must Pareto-dominate
the standard mesh on the AES scenario (win on energy, latency and
throughput simultaneously), and the on-disk cache must make a re-run free.

The stage-granular benchmark then pins the tentpole speed-up: a sweep over
simulator-only axes must run the decomposition search exactly once per
scenario (asserted on the stage-reuse counters) and beat the cell-granular
baseline on wall clock.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.dse.analysis import custom_dominates_mesh, pareto_front, pareto_report
from repro.dse.cache import ResultCache
from repro.dse.pipeline import evaluate
from repro.dse.runner import plan_sweep, run_sweep
from repro.dse.scenarios import erdos_renyi_scenario, get_suite, planted_scenario

#: alternating baseline/staged timing repeats of the stage-reuse benchmark
REPEATS = 3


@pytest.fixture(scope="module")
def embedded_sweep(tmp_path_factory):
    spec = get_suite("embedded")
    cache = ResultCache(tmp_path_factory.mktemp("dse") / "results.jsonl")
    result = run_sweep(
        spec.build(), base=spec.base_settings, axes=spec.default_axes, cache=cache
    )
    return spec, cache, result


@pytest.mark.smoke
def test_embedded_suite_custom_pareto_dominates_mesh_on_aes(embedded_sweep):
    _, _, result = embedded_sweep
    assert result.num_cells >= 10
    assert not result.failed(), [record.error for record in result.failed()]
    # the paper's prototype claim, reproduced on the shared pipeline: the
    # customized architecture wins every figure of merit on AES
    assert custom_dominates_mesh(result.records, "aes")
    front = pareto_front([r for r in result.records if r.scenario == "aes"])
    assert all(record.architecture == "custom" for record in front)
    print()
    print(pareto_report(result.records))


@pytest.mark.smoke
def test_second_invocation_is_pure_cache_hits(embedded_sweep):
    spec, cache, first = embedded_sweep
    rerun = run_sweep(
        spec.build(),
        base=spec.base_settings,
        axes=spec.default_axes,
        cache=ResultCache(cache.path),
    )
    assert rerun.cache_misses == 0
    assert rerun.cache_hit_fraction == 1.0
    assert [record.cache_key for record in rerun.records] == [
        record.cache_key for record in first.records
    ]


@pytest.mark.smoke
def test_simulator_axis_sweep_decomposes_once_per_scenario(tmp_path):
    """The tentpole claim: stage-granular caching makes simulator-axis sweeps
    pay for one decomposition per scenario, with measurable wall-clock savings
    over the cell-granular baseline that re-searched every grid point."""
    # the node budget caps each search deterministically; searching is
    # cheap next to simulating, so each timed section lasts only ~0.04-0.2s
    scenarios = [
        erdos_renyi_scenario(num_nodes=14, edge_probability=0.15, seed=9),
        planted_scenario(num_nodes=16, seed=11),
    ]
    axes = {
        "architecture": ("custom",),
        "max_nodes_expanded": (2000,),
        "buffer_capacity_packets": (2, 4, 8),  # simulator-only axis, 3 values
    }
    cells = plan_sweep(scenarios, axes=axes)

    def cell_granular():
        """The baseline: every cell evaluated in isolation, one search per
        grid point, as the runner did before stage sharing."""
        return [
            evaluate(cell.scenario, cell.settings, cache_key=cell.key, axes=cell.axes)
            for cell in cells
        ]

    def stage_granular(run):
        """One stage-granular sweep with a fresh result cache and stage store."""
        return run_sweep(
            scenarios,
            axes=axes,
            cache=ResultCache(tmp_path / f"results{run}.jsonl"),
            artifacts=tmp_path / f"stage_artifacts{run}",
        )

    # time alternating repeats (each order half the time) and compare medians,
    # so one slow spell on a shared host does not decide the ratio
    baseline_times, staged_times, results = [], [], []
    for run in range(REPEATS):
        for side in ("baseline", "staged") if run % 2 == 0 else ("staged", "baseline"):
            start = time.perf_counter()
            if side == "baseline":
                baseline_records = cell_granular()
                baseline_times.append(time.perf_counter() - start)
            else:
                results.append(stage_granular(run))
                staged_times.append(time.perf_counter() - start)
    assert all(record.succeeded for record in baseline_records)

    # exactly one search per scenario; every other cell reused it
    for result in results:
        assert result.decomposition_searches == len(scenarios)
        assert result.decomposition_reuses == result.num_evaluations - len(scenarios)
    result = results[0]
    per_scenario = {}
    for record in result.records:
        per_scenario.setdefault(record.scenario, []).append(
            record.stage_reuse["decompose"]
        )
    for provenances in per_scenario.values():
        assert provenances.count("computed") == 1
        assert set(provenances) <= {"computed", "memory"}

    # the shared search must buy real wall clock against the baseline; the
    # exact ratio (locally ~0.3-0.5) is machine-dependent, so the bound is
    # deliberately loose — the stage-reuse counters above pin the invariant
    baseline_elapsed = statistics.median(baseline_times)
    staged_elapsed = statistics.median(staged_times)
    print(f"\ncell-granular {baseline_elapsed:.2f}s vs stage-granular {staged_elapsed:.2f}s "
          f"(medians of {REPEATS})")
    assert staged_elapsed < 0.85 * baseline_elapsed, (
        f"stage-granular sweep ({staged_elapsed:.2f}s) should clearly beat the "
        f"cell-granular baseline ({baseline_elapsed:.2f}s)"
    )

    # identical measurements, cell for cell
    assert [r.cache_key for r in result.records] == [
        r.cache_key for r in baseline_records
    ]
    for staged, isolated in zip(result.records, baseline_records):
        assert staged.metrics["total_cycles"] == isolated.metrics["total_cycles"]
        assert staged.metrics["decomposition_cost"] == isolated.metrics["decomposition_cost"]

    # a re-run stays a pure cache hit under the current PIPELINE_VERSION, and
    # a fresh result cache re-materializes the sweep from stage artifacts
    # without a single new search
    rerun = run_sweep(
        scenarios,
        axes=axes,
        cache=ResultCache(tmp_path / "results0.jsonl"),
        artifacts=tmp_path / "stage_artifacts0",
    )
    assert rerun.cache_misses == 0 and rerun.cache_hit_fraction == 1.0
    cold_results = run_sweep(
        scenarios,
        axes=axes,
        cache=ResultCache(tmp_path / "fresh.jsonl"),
        artifacts=tmp_path / "stage_artifacts0",
    )
    assert cold_results.decomposition_searches == 0
    assert cold_results.decomposition_reuses == cold_results.num_evaluations

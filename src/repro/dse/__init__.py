"""Batch design-space exploration over the full synthesis flow.

``repro.dse`` turns the per-figure experiment scripts into a batch
exploration engine:

* :mod:`repro.dse.pipeline` — ``evaluate(scenario, settings)`` chains the
  stages decompose -> synthesize -> route -> simulate -> score under a
  :class:`StageContext` and returns every metric (and every failure) as
  one record;
* :mod:`repro.dse.scenarios` — named scenario suites over the AES case
  study, published embedded benchmarks, TGFF/Pajek generators and
  degree-sequence random graphs;
* :mod:`repro.dse.cache` — the layered on-disk caches: content-hash-keyed
  JSONL cell results plus a stage-artifact store that shares one
  serialized decomposition across every cell of a simulator-axis sweep;
* :mod:`repro.dse.runner` — grid expansion + process-pool fan-out of
  stage-sharing cell groups (re-runs only execute new cells, and
  the search runs once per decomposition sub-key);
* :mod:`repro.dse.search` — multi-fidelity guided search: Pareto-aware
  successive halving over a fidelity ladder (truncated budgets + short
  simulation windows at low rungs), reproducing the exhaustive grid's
  front with far fewer full-fidelity evaluations;
* :mod:`repro.dse.analysis` — Pareto fronts over energy/latency/
  throughput, mesh-baseline normalization, stage-reuse summaries and
  flagging of budget-truncated (approximate) cells;
* ``python -m repro.dse`` — the ``run`` / ``report`` / ``list-scenarios``
  command line (worked example in ``docs/dse.md``).

The names of :mod:`~repro.dse.search` and :mod:`~repro.dse.analysis` are
resolved on first access, so a process that only runs sweeps never
imports those two modules.

Quickstart::

    from repro.dse import build_suite, get_suite, run_sweep, pareto_report, ResultCache

    spec = get_suite("smoke")
    result = run_sweep(spec.build(), base=spec.base_settings,
                       axes=spec.default_axes, cache=ResultCache("results.jsonl"))
    print(pareto_report(result.records))
"""

from repro._lazy import lazy_attributes
from repro.dse.cache import (
    PIPELINE_VERSION,
    ResultCache,
    StageArtifactStore,
    StageContext,
    cache_key,
    decomposition_stage_key,
    synthesis_stage_key,
)
from repro.dse.pipeline import (
    LIBRARIES,
    SCORES,
    STRATEGIES,
    TRAFFIC_MODES,
    ArchitectureMetrics,
    EvaluationSettings,
    Scenario,
    TrafficModeSpec,
    TrafficProgram,
    baseline_route_stage,
    build_baseline_fabric,
    evaluate,
    get_library,
    get_traffic_mode,
    register_library,
    register_score,
    register_traffic_mode,
    route_stage,
    score_stage,
    simulate_aes_traffic,
    synthesize_stage,
)
from repro.dse.records import (
    STAGE_COMPUTED,
    STAGE_REUSED_MEMORY,
    STAGE_REUSED_STORE,
    STATUS_DECOMPOSITION_FAILED,
    STATUS_OK,
    STATUS_ROUTING_FAILED,
    STATUS_SIMULATION_FAILED,
    STATUS_SYNTHESIS_FAILED,
    EvaluationRecord,
)
from repro.dse.runner import (
    SweepCell,
    SweepResult,
    axis_label,
    expand_grid,
    plan_sweep,
    run_cells,
    run_sweep,
)
from repro.dse.scenarios import (
    FILE_SUITE_PREFIX,
    SUITES,
    SuiteSpec,
    aes_scenario,
    build_suite,
    describe_suites,
    embedded_scenario,
    erdos_renyi_scenario,
    file_scenario,
    file_suite,
    get_suite,
    planted_scenario,
    register_suite,
    resolve_suite,
    scale_free_scenario,
    scenario_rows,
    suite_names,
    tgff_scenario,
)

# the guided search and the Pareto analysis are not on a sweep's path:
# their names import the defining module on first access
__getattr__, __dir__ = lazy_attributes(
    __name__,
    {
        **dict.fromkeys(
            (
                "DEFAULT_MAXIMIZE",
                "DEFAULT_MINIMIZE",
                "custom_dominates_mesh",
                "dominates",
                "mesh_baseline_for",
                "normalize_to_mesh",
                "pareto_front",
                "pareto_report",
                "stage_reuse_summary",
                "truncated_cells",
            ),
            "repro.dse.analysis",
        ),
        **dict.fromkeys(
            (
                "RungSpec",
                "SearchConfig",
                "SearchResult",
                "default_ladder",
                "margin_dominated",
                "run_search",
            ),
            "repro.dse.search",
        ),
    },
)

__all__ = [
    "evaluate",
    "synthesize_stage",
    "route_stage",
    "score_stage",
    "EvaluationRecord",
    "EvaluationSettings",
    "Scenario",
    "ArchitectureMetrics",
    "simulate_aes_traffic",
    "build_baseline_fabric",
    "baseline_route_stage",
    "STATUS_OK",
    "STATUS_DECOMPOSITION_FAILED",
    "STATUS_SYNTHESIS_FAILED",
    "STATUS_ROUTING_FAILED",
    "STATUS_SIMULATION_FAILED",
    "STAGE_COMPUTED",
    "STAGE_REUSED_MEMORY",
    "STAGE_REUSED_STORE",
    "ResultCache",
    "StageArtifactStore",
    "StageContext",
    "cache_key",
    "decomposition_stage_key",
    "synthesis_stage_key",
    "PIPELINE_VERSION",
    "stage_reuse_summary",
    "truncated_cells",
    "run_sweep",
    "run_cells",
    "plan_sweep",
    "expand_grid",
    "axis_label",
    "SweepCell",
    "SweepResult",
    "run_search",
    "SearchConfig",
    "SearchResult",
    "RungSpec",
    "default_ladder",
    "margin_dominated",
    "SuiteSpec",
    "register_suite",
    "get_suite",
    "resolve_suite",
    "build_suite",
    "suite_names",
    "describe_suites",
    "SUITES",
    "FILE_SUITE_PREFIX",
    "file_scenario",
    "file_suite",
    "LIBRARIES",
    "STRATEGIES",
    "TRAFFIC_MODES",
    "SCORES",
    "TrafficModeSpec",
    "TrafficProgram",
    "get_library",
    "register_library",
    "get_traffic_mode",
    "register_traffic_mode",
    "register_score",
    "scenario_rows",
    "aes_scenario",
    "embedded_scenario",
    "tgff_scenario",
    "planted_scenario",
    "erdos_renyi_scenario",
    "scale_free_scenario",
    "pareto_front",
    "pareto_report",
    "dominates",
    "custom_dominates_mesh",
    "normalize_to_mesh",
    "mesh_baseline_for",
    "DEFAULT_MINIMIZE",
    "DEFAULT_MAXIMIZE",
]

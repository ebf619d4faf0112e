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

Every name here is resolved on first access, so ``import repro.dse``
loads none of these modules, and a process that only runs sweeps never
imports :mod:`~repro.dse.search` or :mod:`~repro.dse.analysis`.

Quickstart::

    from repro.dse import build_suite, get_suite, run_sweep, pareto_report, ResultCache

    spec = get_suite("smoke")
    result = run_sweep(spec.build(), base=spec.base_settings,
                       axes=spec.default_axes, cache=ResultCache("results.jsonl"))
    print(pareto_report(result.records))
"""

from repro._lazy import lazy_attributes

#: public name -> the module that defines it, imported on first access
_EXPORTS: dict[str, str] = {
    "evaluate": "repro.dse.pipeline",
    "synthesize_stage": "repro.dse.pipeline",
    "route_stage": "repro.dse.pipeline",
    "score_stage": "repro.dse.pipeline",
    "EvaluationSettings": "repro.dse.pipeline",
    "Scenario": "repro.dse.pipeline",
    "ArchitectureMetrics": "repro.dse.pipeline",
    "build_baseline_fabric": "repro.dse.pipeline",
    "baseline_route_stage": "repro.dse.pipeline",
    "axis_label": "repro.dse.pipeline",
    "LIBRARIES": "repro.dse.pipeline",
    "TRAFFIC_MODES": "repro.dse.pipeline",
    "SCORES": "repro.dse.pipeline",
    "TrafficModeSpec": "repro.dse.pipeline",
    "TrafficProgram": "repro.dse.pipeline",
    "get_library": "repro.dse.pipeline",
    "register_library": "repro.dse.pipeline",
    "get_traffic_mode": "repro.dse.pipeline",
    "register_traffic_mode": "repro.dse.pipeline",
    "register_score": "repro.dse.pipeline",
    "EvaluationRecord": "repro.dse.records",
    "STATUS_OK": "repro.dse.records",
    "STATUS_DECOMPOSITION_FAILED": "repro.dse.records",
    "STATUS_SYNTHESIS_FAILED": "repro.dse.records",
    "STATUS_ROUTING_FAILED": "repro.dse.records",
    "STATUS_SIMULATION_FAILED": "repro.dse.records",
    "STAGE_COMPUTED": "repro.dse.records",
    "STAGE_REUSED_MEMORY": "repro.dse.records",
    "STAGE_REUSED_STORE": "repro.dse.records",
    "ResultCache": "repro.dse.cache",
    "StageArtifactStore": "repro.dse.cache",
    "StageContext": "repro.dse.cache",
    "cache_key": "repro.dse.cache",
    "decomposition_stage_key": "repro.dse.cache",
    "synthesis_stage_key": "repro.dse.cache",
    "PIPELINE_VERSION": "repro.dse.cache",
    "run_sweep": "repro.dse.runner",
    "run_cells": "repro.dse.runner",
    "plan_sweep": "repro.dse.runner",
    "expand_grid": "repro.dse.runner",
    "SweepCell": "repro.dse.runner",
    "SweepResult": "repro.dse.runner",
    "SuiteSpec": "repro.dse.scenarios",
    "register_suite": "repro.dse.scenarios",
    "get_suite": "repro.dse.scenarios",
    "resolve_suite": "repro.dse.scenarios",
    "build_suite": "repro.dse.scenarios",
    "suite_names": "repro.dse.scenarios",
    "describe_suites": "repro.dse.scenarios",
    "SUITES": "repro.dse.scenarios",
    "FILE_SUITE_PREFIX": "repro.dse.scenarios",
    "file_scenario": "repro.dse.scenarios",
    "file_suite": "repro.dse.scenarios",
    "scenario_rows": "repro.dse.scenarios",
    "aes_scenario": "repro.dse.scenarios",
    "embedded_scenario": "repro.dse.scenarios",
    "tgff_scenario": "repro.dse.scenarios",
    "planted_scenario": "repro.dse.scenarios",
    "erdos_renyi_scenario": "repro.dse.scenarios",
    "scale_free_scenario": "repro.dse.scenarios",
    "run_search": "repro.dse.search",
    "SearchConfig": "repro.dse.search",
    "SearchResult": "repro.dse.search",
    "RungSpec": "repro.dse.search",
    "default_ladder": "repro.dse.search",
    "margin_dominated": "repro.dse.search",
    "stage_reuse_summary": "repro.dse.analysis",
    "truncated_cells": "repro.dse.analysis",
    "pareto_front": "repro.dse.analysis",
    "pareto_report": "repro.dse.analysis",
    "dominates": "repro.dse.analysis",
    "custom_dominates_mesh": "repro.dse.analysis",
    "normalize_to_mesh": "repro.dse.analysis",
    "mesh_baseline_for": "repro.dse.analysis",
    "DEFAULT_MINIMIZE": "repro.dse.analysis",
    "DEFAULT_MAXIMIZE": "repro.dse.analysis",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_attributes(__name__, _EXPORTS)

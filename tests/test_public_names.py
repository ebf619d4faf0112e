"""Guards on the one public name table and the packages that re-export nothing.

``repro.api._EXPORTS`` maps each public name to the module that defines
it, and ``repro.X`` resolves through the same table.  The other lazy
facades (``repro.dse``, ``repro.experiments``, ``repro.obs`` and
``repro.plugins``) keep one such table each.  Every other package
``__init__`` holds a docstring only: library code imports the defining
module.
"""

from __future__ import annotations

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: the lazy facades, each with one ``_EXPORTS`` table of name -> defining module
FACADES = ("repro", "repro.api", "repro.dse", "repro.experiments", "repro.obs", "repro.plugins")

#: packages whose ``__init__`` may import: the facades, and ``repro.io``,
#: whose ``__init__`` defines the read/write functions and registers the formats
IMPORTING_PACKAGES = {*FACADES, "repro.io"} - {"repro.api"}

#: every name each facade offered before the subpackage facades were
#: emptied; each must keep resolving to the object its defining module binds
PINNED: dict[str, list[str]] = {
    "repro": """
        ApplicationGraph BranchAndBoundDecomposer CommunicationLibrary CommunicationPrimitive
        CostModel DecompositionConfig DecompositionResult DesignConstraints DiGraph
        EnergyCostModel GreedyDecomposer LinkCountCostModel Matching PrimitiveKind
        ReproError SearchStrategy SynthesisOptions SynthesizedArchitecture
        TopologySynthesizer UnitCostModel __version__ aes_library decompose default_library
        extended_library minimal_library synthesize_architecture
    """.split(),
    "repro.api": """
        ApplicationGraph ArchitectureMetrics BUILTIN_PROVIDER Channel CommunicationLibrary
        CommunicationPrimitive ConfigurationError DecompositionConfig DecompositionResult
        DesignConstraints DiGraph ENTRY_POINT_GROUP EXPORTERS EvaluationSettings ExporterSpec
        FAMILIES FORMATS FamilySpec GraphFormat LIBRARIES MetricsRegistry NULL_SESSION
        NULL_TRACER NullTracer ObsSession POLICIES PluginError PluginFailure PolicySpec
        PrimitiveKind Registry ReproError ResidualBound ResultCache RungSpec SCORES
        SUITES Scenario SearchConfig SearchResult SimulatorProbe Span SuiteSpec SynthesisOptions
        SynthesizedArchitecture TRAFFIC_MODES Topology Tracer TrafficModeSpec TrafficProgram
        UnknownPluginError WorkloadError aes_library annotate build_fabric build_policy_table
        build_suite decompose default_ladder default_library detect_format discover
        discovered_plugins erdos_renyi_acg evaluate exporter_names extended_library family_names
        file_scenario file_suite format_names get_exporter get_family get_format get_library
        get_policy get_session get_suite get_tracer get_traffic_mode infrastructure_router
        margin_dominated minimal_library pad_node_ids pajek_benchmark_suite pareto_front
        pareto_report plan_sweep planted_primitive_acg plugin_failures policy_names providing
        read_event_log read_topology read_workload register_exporter register_family
        register_format register_library register_policy register_score register_suite
        register_traffic_mode render_trace_summary resolve_suite run_cells run_search run_sweep
        suite_names supported_policies synthesize_architecture use_session write_event_log
        write_topology write_workload
    """.split(),
    "repro.dse": """
        ArchitectureMetrics DEFAULT_MAXIMIZE DEFAULT_MINIMIZE EvaluationRecord
        EvaluationSettings FILE_SUITE_PREFIX LIBRARIES PIPELINE_VERSION ResultCache RungSpec
        SCORES STAGE_COMPUTED STAGE_REUSED_MEMORY STAGE_REUSED_STORE STATUS_DECOMPOSITION_FAILED
        STATUS_OK STATUS_ROUTING_FAILED STATUS_SIMULATION_FAILED STATUS_SYNTHESIS_FAILED
        SUITES Scenario SearchConfig SearchResult StageArtifactStore StageContext
        SuiteSpec SweepCell SweepResult TRAFFIC_MODES TrafficModeSpec TrafficProgram
        aes_scenario axis_label baseline_route_stage build_baseline_fabric build_suite cache_key
        custom_dominates_mesh decomposition_stage_key default_ladder describe_suites dominates
        embedded_scenario erdos_renyi_scenario evaluate expand_grid file_scenario file_suite
        get_library get_suite get_traffic_mode margin_dominated mesh_baseline_for
        normalize_to_mesh pareto_front pareto_report plan_sweep planted_scenario
        register_library register_score register_suite register_traffic_mode resolve_suite
        route_stage run_cells run_search run_sweep scale_free_scenario scenario_rows score_stage
        stage_reuse_summary suite_names synthesis_stage_key synthesize_stage tgff_scenario
        truncated_cells
    """.split(),
    "repro.experiments": """
        AblationResult AesSynthesisResult ArchitectureMetrics EXPECTED_PRIMITIVE_COUNTS
        Figure5Result PAPER_AES_COST PAPER_AES_PRIMITIVES PAPER_RESULTS PrototypeComparison
        RuntimePoint RuntimeSweepResult format_series format_table percentage_change rows_to_csv
        run_aes_synthesis run_figure5_example run_library_ablation run_pajek_runtime_sweep
        run_prototype_comparison run_strategy_ablation run_tgff_runtime_sweep
        standard_ablation_acgs
    """.split(),
    "repro.obs": """
        Counter EXPORTERS ExporterSpec Gauge Histogram METRIC_EVENT MetricsRegistry NULL_SESSION
        NULL_TRACER NullTracer ObsSession SPAN_EVENT STAGE_SPAN_NAMES SimulatorProbe Span Tracer
        annotate current_span exporter_names get_exporter get_session get_tracer read_event_log
        register_exporter render_jsonl render_prometheus render_summary render_trace_summary
        use_session write_event_log
    """.split(),
    "repro.plugins": """
        BUILTIN_PROVIDER ENTRY_POINT_GROUP PluginFailure Registry discover discovered_plugins
        plugin_failures providing reset_discovery
    """.split(),
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@cache
def definitions() -> dict[str, frozenset[str]]:
    """name -> the modules under ``src/repro`` that bind it at top level
    by a definition or an assignment (an import does not count)."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef | ast.ClassDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                found.setdefault(name, set()).add(module_name(path))
    return {name: frozenset(modules) for name, modules in found.items()}


@pytest.mark.parametrize("facade", FACADES[1:])
def test_every_table_entry_names_the_defining_module(facade):
    table = importlib.import_module(facade)._EXPORTS
    wrong = {
        name: module
        for name, module in table.items()
        if module not in definitions().get(name, ())
    }
    assert not wrong, f"{facade} entries not naming the defining module: {wrong}"


def test_repro_resolves_through_the_api_table():
    import repro
    import repro.api

    assert repro._EXPORTS is repro.api._EXPORTS
    assert repro.__all__ == ["__version__", *repro.api.__all__]


@pytest.mark.parametrize("facade", FACADES)
def test_pinned_names_resolve_to_the_defining_modules_object(facade):
    module = importlib.import_module(facade)
    assert set(PINNED[facade]) <= set(module.__all__)
    for name in PINNED[facade]:
        if name == "__version__":
            continue
        value = getattr(module, name)
        owners = [
            owner
            for owner in definitions()[name]
            if getattr(importlib.import_module(owner), name, None) is value
        ]
        assert owners, f"{facade}.{name} is not the object any defining module binds"


def test_package_inits_outside_the_facades_import_nothing():
    importing = {}
    for path in sorted(SRC.rglob("__init__.py")):
        package = module_name(path)
        if package in IMPORTING_PACKAGES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Import | ast.ImportFrom) for node in ast.walk(tree)):
            importing[package] = str(path.relative_to(SRC))
    assert not importing, f"package __init__s that import (use the defining module): {importing}"

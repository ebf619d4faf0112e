"""The stable, lazily-imported facade over the whole library.

``repro.api`` is the one import an application or plugin needs: every
load-bearing symbol of the synthesis flow — core decomposition and
synthesis, fabric families, routing policies, interchange IO, the DSE
pipeline registries and the plugin kernel — is reachable here by name,
but nothing heavy is imported until the name is actually touched
(PEP 562 module ``__getattr__``).  In particular ``import repro.api``
must not pull in :mod:`repro.core`, :mod:`repro.noc`, :mod:`repro.dse`
or hypothesis-sized test dependencies; ``tests/test_api_facade.py`` and
``tests/test_import_budget.py`` assert that budget in a subprocess.

Quickstart::

    from repro import api

    acg = api.read_workload("app.net")
    result = api.decompose(acg, api.default_library())
    arch = api.synthesize_architecture(acg, result)
"""

from __future__ import annotations

from repro._lazy import lazy_attributes

#: public name -> the module that defines it; ``repro.X`` resolves through
#: this table too.  A name is imported on its first access.
_EXPORTS: dict[str, str] = {
    # core: graphs, library, decomposition, synthesis
    "ApplicationGraph": "repro.core.graph",
    "DiGraph": "repro.core.graph",
    "CommunicationPrimitive": "repro.core.primitives",
    "PrimitiveKind": "repro.core.primitives",
    "CommunicationLibrary": "repro.core.library",
    "minimal_library": "repro.core.library",
    "default_library": "repro.core.library",
    "extended_library": "repro.core.library",
    "aes_library": "repro.core.library",
    "Matching": "repro.core.matching",
    "CostModel": "repro.core.cost",
    "UnitCostModel": "repro.core.cost",
    "LinkCountCostModel": "repro.core.cost",
    "EnergyCostModel": "repro.core.cost",
    "DecompositionConfig": "repro.core.decomposition",
    "DecompositionResult": "repro.core.decomposition",
    "SearchStrategy": "repro.core.decomposition",
    "BranchAndBoundDecomposer": "repro.core.decomposition",
    "GreedyDecomposer": "repro.core.decomposition",
    "decompose": "repro.core.decomposition",
    "ResidualBound": "repro.core.bounds",
    "DesignConstraints": "repro.core.constraints",
    "SynthesisOptions": "repro.core.synthesis",
    "SynthesizedArchitecture": "repro.core.synthesis",
    "TopologySynthesizer": "repro.core.synthesis",
    "synthesize_architecture": "repro.core.synthesis",
    # exceptions
    "ReproError": "repro.exceptions",
    "ConfigurationError": "repro.exceptions",
    "WorkloadError": "repro.exceptions",
    "PluginError": "repro.exceptions",
    "UnknownPluginError": "repro.exceptions",
    # plugin kernel
    "Registry": "repro.plugins.registry",
    "providing": "repro.plugins.registry",
    "BUILTIN_PROVIDER": "repro.plugins.registry",
    "ENTRY_POINT_GROUP": "repro.plugins.discovery",
    "PluginFailure": "repro.plugins.discovery",
    "discover": "repro.plugins.discovery",
    "discovered_plugins": "repro.plugins.discovery",
    "plugin_failures": "repro.plugins.discovery",
    # fabric families
    "Topology": "repro.arch.topology",
    "Channel": "repro.arch.topology",
    "FAMILIES": "repro.arch.families",
    "FamilySpec": "repro.arch.families",
    "register_family": "repro.arch.families",
    "family_names": "repro.arch.families",
    "get_family": "repro.arch.families",
    "build_fabric": "repro.arch.families",
    "pad_node_ids": "repro.arch.families",
    "infrastructure_router": "repro.arch.families",
    # routing policies
    "POLICIES": "repro.routing.policies",
    "PolicySpec": "repro.routing.policies",
    "register_policy": "repro.routing.policies",
    "policy_names": "repro.routing.policies",
    "get_policy": "repro.routing.policies",
    "build_policy_table": "repro.routing.policies",
    "supported_policies": "repro.routing.policies",
    # graph interchange
    "FORMATS": "repro.io.base",
    "GraphFile": "repro.io.base",
    "GraphFormat": "repro.io.base",
    "register_format": "repro.io.base",
    "format_names": "repro.io.base",
    "get_format": "repro.io.base",
    "detect_format": "repro.io.base",
    "read_workload": "repro.io",
    "write_workload": "repro.io",
    "read_topology": "repro.io",
    "write_topology": "repro.io",
    # workload generators (light: no simulator import)
    "erdos_renyi_acg": "repro.workloads.pajek",
    "planted_primitive_acg": "repro.workloads.pajek",
    "pajek_benchmark_suite": "repro.workloads.pajek",
    # DSE pipeline + registries (these pull in the simulator on access)
    "evaluate": "repro.dse.pipeline",
    "EvaluationSettings": "repro.dse.pipeline",
    "Scenario": "repro.dse.pipeline",
    "ArchitectureMetrics": "repro.dse.pipeline",
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
    # DSE scenarios + sweeps
    "SUITES": "repro.dse.scenarios",
    "SuiteSpec": "repro.dse.scenarios",
    "register_suite": "repro.dse.scenarios",
    "suite_names": "repro.dse.scenarios",
    "get_suite": "repro.dse.scenarios",
    "resolve_suite": "repro.dse.scenarios",
    "build_suite": "repro.dse.scenarios",
    "file_scenario": "repro.dse.scenarios",
    "file_suite": "repro.dse.scenarios",
    "run_sweep": "repro.dse.runner",
    "plan_sweep": "repro.dse.runner",
    "run_cells": "repro.dse.runner",
    "ResultCache": "repro.dse.cache",
    "pareto_report": "repro.dse.analysis",
    "pareto_front": "repro.dse.analysis",
    # guided search (multi-fidelity successive halving over the pipeline)
    "run_search": "repro.dse.search",
    "SearchConfig": "repro.dse.search",
    "SearchResult": "repro.dse.search",
    "RungSpec": "repro.dse.search",
    "default_ladder": "repro.dse.search",
    "margin_dominated": "repro.dse.search",
    # observability (stdlib-only: safe to resolve without the simulator)
    "Tracer": "repro.obs.tracer",
    "NullTracer": "repro.obs.tracer",
    "NULL_TRACER": "repro.obs.tracer",
    "Span": "repro.obs.tracer",
    "annotate": "repro.obs.tracer",
    "get_tracer": "repro.obs.session",
    "ObsSession": "repro.obs.session",
    "NULL_SESSION": "repro.obs.session",
    "use_session": "repro.obs.session",
    "get_session": "repro.obs.session",
    "MetricsRegistry": "repro.obs.metrics",
    "SimulatorProbe": "repro.obs.probes",
    "EXPORTERS": "repro.obs.export",
    "ExporterSpec": "repro.obs.export",
    "register_exporter": "repro.obs.export",
    "get_exporter": "repro.obs.export",
    "exporter_names": "repro.obs.export",
    "write_event_log": "repro.obs.export",
    "read_event_log": "repro.obs.export",
    "render_trace_summary": "repro.obs.export",
}

__all__ = sorted(_EXPORTS)


_resolve, __dir__ = lazy_attributes(__name__, _EXPORTS)


def __getattr__(name: str) -> object:
    """Resolve a facade name on first access (PEP 562 lazy import)."""
    value = _resolve(name)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value

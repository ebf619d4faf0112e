"""The stable, lazily-imported facade over the whole library.

``repro.api`` is the one import an application or plugin needs: every
load-bearing symbol of the synthesis flow — core decomposition and
synthesis, fabric families, routing policies, interchange IO, the DSE
pipeline registries and the plugin kernel — is reachable here by name,
but nothing heavy is imported until the name is actually touched
(PEP 562 module ``__getattr__``).  In particular ``import repro.api``
must not pull in :mod:`repro.noc`, :mod:`repro.dse` or hypothesis-sized
test dependencies; ``tests/test_api_facade.py`` asserts that budget in a
subprocess.

Quickstart::

    from repro import api

    acg = api.read_workload("app.net")
    result = api.decompose(acg, api.default_library())
    arch = api.synthesize_architecture(acg, result)
"""

from __future__ import annotations

from repro._lazy import lazy_attributes

#: public name -> defining module; resolution is deferred until access.
_EXPORTS: dict[str, str] = {
    # core: graphs, library, decomposition, synthesis
    "ApplicationGraph": "repro.core",
    "DiGraph": "repro.core",
    "CommunicationLibrary": "repro.core",
    "CommunicationPrimitive": "repro.core",
    "PrimitiveKind": "repro.core",
    "minimal_library": "repro.core",
    "default_library": "repro.core",
    "extended_library": "repro.core",
    "aes_library": "repro.core",
    "DecompositionConfig": "repro.core",
    "DecompositionResult": "repro.core",
    "decompose": "repro.core",
    "ResidualBound": "repro.core",
    "DesignConstraints": "repro.core",
    "SynthesisOptions": "repro.core",
    "SynthesizedArchitecture": "repro.core",
    "synthesize_architecture": "repro.core",
    # exceptions
    "ReproError": "repro.exceptions",
    "ConfigurationError": "repro.exceptions",
    "WorkloadError": "repro.exceptions",
    "PluginError": "repro.exceptions",
    "UnknownPluginError": "repro.exceptions",
    # plugin kernel
    "Registry": "repro.plugins",
    "providing": "repro.plugins",
    "BUILTIN_PROVIDER": "repro.plugins",
    "ENTRY_POINT_GROUP": "repro.plugins",
    "PluginFailure": "repro.plugins",
    "discover": "repro.plugins",
    "discovered_plugins": "repro.plugins",
    "plugin_failures": "repro.plugins",
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
    "FORMATS": "repro.io",
    "GraphFormat": "repro.io",
    "register_format": "repro.io",
    "format_names": "repro.io",
    "get_format": "repro.io",
    "detect_format": "repro.io",
    "read_workload": "repro.io",
    "write_workload": "repro.io",
    "read_topology": "repro.io",
    "write_topology": "repro.io",
    # workload generators (light: no simulator import)
    "erdos_renyi_acg": "repro.workloads.pajek",
    "planted_primitive_acg": "repro.workloads.pajek",
    "pajek_benchmark_suite": "repro.workloads.pajek",
    # DSE pipeline + registries (imported only on access — these pull in
    # the simulator, so they must stay out of the module import itself)
    "evaluate": "repro.dse.pipeline",
    "EvaluationSettings": "repro.dse.pipeline",
    "Scenario": "repro.dse.pipeline",
    "ArchitectureMetrics": "repro.dse.pipeline",
    "LIBRARIES": "repro.dse.pipeline",
    "STRATEGIES": "repro.dse.pipeline",
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
    "Tracer": "repro.obs",
    "NullTracer": "repro.obs",
    "NULL_TRACER": "repro.obs",
    "Span": "repro.obs",
    "get_tracer": "repro.obs",
    "annotate": "repro.obs",
    "ObsSession": "repro.obs",
    "NULL_SESSION": "repro.obs",
    "use_session": "repro.obs",
    "get_session": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "SimulatorProbe": "repro.obs",
    "EXPORTERS": "repro.obs",
    "ExporterSpec": "repro.obs",
    "register_exporter": "repro.obs",
    "get_exporter": "repro.obs",
    "exporter_names": "repro.obs",
    "write_event_log": "repro.obs",
    "read_event_log": "repro.obs",
    "render_trace_summary": "repro.obs",
}

__all__ = sorted(_EXPORTS)


_resolve, __dir__ = lazy_attributes(__name__, _EXPORTS)


def __getattr__(name: str) -> object:
    """Resolve a facade name on first access (PEP 562 lazy import)."""
    value = _resolve(name)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value

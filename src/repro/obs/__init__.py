"""Unified observability: span tracing, metrics and simulator probes.

Zero-dependency (stdlib-only core, plus the in-repo plugin kernel for
the exporter registry), and free when off: every instrumentation point
across the decomposition search, the DSE pipeline/runner and both NoC
engines goes through :func:`get_tracer` / :func:`get_session`, which
answer no-op objects until a caller installs an :class:`ObsSession`.
The three pillars:

* **tracer** (:mod:`repro.obs.tracer`) — hierarchical contextvar-nested
  spans, serializable across process-pool workers;
* **metrics** (:mod:`repro.obs.metrics`) — labelled counters and gauges
  on the :class:`~repro.plugins.Registry` kernel, rendered by the
  pluggable exporters in :mod:`repro.obs.export`;
* **probes** (:mod:`repro.obs.probes`) — opt-in per-router / per-channel
  simulator instrumentation whose figures are bit-identical across both
  engines.

See ``docs/observability.md`` for the API tour, the exporter formats and
the measured overhead numbers.
"""

from repro._lazy import lazy_attributes

#: public name -> the module that defines it, imported on first access
_EXPORTS: dict[str, str] = {
    "SPAN_EVENT": "repro.obs.tracer",
    "Span": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
    "NullTracer": "repro.obs.tracer",
    "NULL_TRACER": "repro.obs.tracer",
    "annotate": "repro.obs.tracer",
    "current_span": "repro.obs.tracer",
    "METRIC_EVENT": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "SimulatorProbe": "repro.obs.probes",
    "ObsSession": "repro.obs.session",
    "NULL_SESSION": "repro.obs.session",
    "get_session": "repro.obs.session",
    "get_tracer": "repro.obs.session",
    "use_session": "repro.obs.session",
    "EXPORTERS": "repro.obs.export",
    "ExporterSpec": "repro.obs.export",
    "register_exporter": "repro.obs.export",
    "get_exporter": "repro.obs.export",
    "exporter_names": "repro.obs.export",
    "render_jsonl": "repro.obs.export",
    "render_prometheus": "repro.obs.export",
    "render_summary": "repro.obs.export",
    "render_trace_summary": "repro.obs.export",
    "STAGE_SPAN_NAMES": "repro.obs.export",
    "write_event_log": "repro.obs.export",
    "read_event_log": "repro.obs.export",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_attributes(__name__, _EXPORTS)

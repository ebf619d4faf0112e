"""Unified observability: span tracing, metrics and simulator probes.

Zero-dependency (stdlib-only core, plus the in-repo plugin kernel for
the exporter registry), and free when off: every instrumentation point
across the decomposition search, the DSE pipeline/runner and both NoC
engines goes through :func:`get_tracer` / :func:`get_session`, which
answer no-op objects until a caller installs an :class:`ObsSession`.
The three pillars:

* **tracer** (:mod:`repro.obs.tracer`) — hierarchical contextvar-nested
  spans, serializable across process-pool workers;
* **metrics** (:mod:`repro.obs.metrics`) — labelled counters / gauges /
  histograms on the :class:`~repro.plugins.Registry` kernel, rendered by
  the pluggable exporters in :mod:`repro.obs.export` (imported on the
  first access of one of its names);
* **probes** (:mod:`repro.obs.probes`) — opt-in per-router / per-channel
  simulator instrumentation whose figures are bit-identical across both
  engines.

See ``docs/observability.md`` for the API tour, the exporter formats and
the measured overhead numbers.
"""

from repro._lazy import lazy_attributes
from repro.obs.metrics import (
    METRIC_EVENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.probes import SimulatorProbe
from repro.obs.session import (
    NULL_SESSION,
    ObsSession,
    get_session,
    get_tracer,
    use_session,
)
from repro.obs.tracer import (
    NULL_TRACER,
    SPAN_EVENT,
    NullTracer,
    Span,
    Tracer,
    annotate,
    current_span,
)

# the exporters are only read when events are written or rendered
__getattr__, __dir__ = lazy_attributes(
    __name__,
    dict.fromkeys(
        (
            "EXPORTERS",
            "STAGE_SPAN_NAMES",
            "ExporterSpec",
            "exporter_names",
            "get_exporter",
            "read_event_log",
            "register_exporter",
            "render_jsonl",
            "render_prometheus",
            "render_summary",
            "render_trace_summary",
            "write_event_log",
        ),
        "repro.obs.export",
    ),
)

__all__ = [
    "SPAN_EVENT",
    "METRIC_EVENT",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "annotate",
    "current_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimulatorProbe",
    "ObsSession",
    "NULL_SESSION",
    "get_session",
    "get_tracer",
    "use_session",
    "EXPORTERS",
    "ExporterSpec",
    "register_exporter",
    "get_exporter",
    "exporter_names",
    "render_jsonl",
    "render_prometheus",
    "render_summary",
    "render_trace_summary",
    "STAGE_SPAN_NAMES",
    "write_event_log",
    "read_event_log",
]

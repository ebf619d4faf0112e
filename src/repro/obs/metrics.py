"""Metric instruments (counters, gauges) on the registry kernel.

A :class:`MetricsRegistry` is a labelled instrument store built on the
generic :class:`~repro.plugins.registry.Registry` kernel: every
``(name, labels)`` combination is one registered instrument, so lookups
share the kernel's uniform
:class:`~repro.exceptions.UnknownPluginError` contract (sorted available
names plus a nearest-match suggestion).  Instruments flatten to plain
*metric event* dicts (:meth:`MetricsRegistry.snapshot_events`), the same
event-log currency spans use, which is what the pluggable exporters in
:mod:`repro.obs.export` render.

:class:`Histogram` is the simulator probes' accumulator, not a registry
instrument: it buckets observations by the next power of two, so buckets
are exact integers and identical across simulator engines and hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.plugins.registry import Registry

#: the ``type`` tag of a metric event dict (span events use ``"span"``)
METRIC_EVENT = "metric"


def _flat_key(name: str, labels: dict[str, str]) -> str:
    """The registry key of one instrument: ``name{label=value,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count (packets delivered, cells evaluated)."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0
    kind = "counter"

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (add {amount})")
        self.value += amount

    def as_event(self) -> dict[str, object]:
        """This counter as a plain metric event dict."""
        return {
            "type": METRIC_EVENT,
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


@dataclass
class Gauge:
    """A point-in-time value that can go either way (utilization, queue depth)."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0
    kind = "gauge"

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest observation."""
        self.value = float(value)

    def as_event(self) -> dict[str, object]:
        """This gauge as a plain metric event dict."""
        return {
            "type": METRIC_EVENT,
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


@dataclass
class Histogram:
    """A distribution bucketed by powers of two (latencies, occupancies).

    ``buckets`` maps the *upper bound* of each power-of-two bucket to its
    observation count; an observation ``v`` lands in the smallest bucket
    ``2**k >= max(v, 1)``.  Integer bounds keep the buckets bit-identical
    wherever they were produced.
    """

    buckets: dict[int, int] = field(default_factory=dict)
    count: int = 0
    sum: float = 0.0
    max: float = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        bound = 1
        while bound < value:
            bound <<= 1
        self.buckets[bound] = self.buckets.get(bound, 0) + 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        """The arithmetic mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


#: every instrument shape the registry can hold
Metric = Counter | Gauge


class MetricsRegistry:
    """Get-or-create store of labelled instruments with uniform errors.

    ``counter``/``gauge`` return the live instrument for the
    ``(name, labels)`` pair, creating it on first use; :meth:`get` looks an
    existing one up and raises the kernel's uniform
    :class:`~repro.exceptions.UnknownPluginError` for unknown keys —
    exactly like every other registry in repro.
    """

    def __init__(self) -> None:
        #: instruments keyed by ``name{label=value,...}``; discovery is off —
        #: metric instruments are created by measurement, not entry points
        self.instruments: Registry[Metric] = Registry("metric", discover=False)

    def _get_or_create(self, factory: type, name: str, labels: dict[str, object]):
        key = _flat_key(name, {k: str(v) for k, v in labels.items()})
        if key in self.instruments:
            return self.instruments.get(key)
        instrument = factory(name=name, labels={k: str(v) for k, v in labels.items()})
        return self.instruments.register(key, instrument)

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get_or_create(Gauge, name, labels)

    def get(self, name: str, **labels: object) -> Metric:
        """Look an existing instrument up (uniform unknown-name errors)."""
        return self.instruments.get(_flat_key(name, {k: str(v) for k, v in labels.items()}))

    def snapshot_events(self) -> list[dict[str, object]]:
        """Every instrument as a metric event dict, in sorted-key order."""
        return [instrument.as_event() for instrument in self.instruments.items().values()]

    def ingest(self, events: list[dict[str, object]]) -> int:
        """Merge metric events exported elsewhere (e.g. by a pool worker).

        Counters add, gauges take the incoming value.  Returns the number
        of events merged.
        """
        merged = 0
        for event in events:
            if event.get("type") != METRIC_EVENT:
                continue
            kind = event.get("kind")
            name = str(event["name"])
            labels = dict(event.get("labels") or {})
            if kind == "counter":
                self.counter(name, **labels).add(float(event["value"]))  # type: ignore[arg-type]
            elif kind == "gauge":
                self.gauge(name, **labels).set(float(event["value"]))  # type: ignore[arg-type]
            else:
                continue
            merged += 1
        return merged

"""Opt-in simulator probes: per-router and per-channel visibility.

A :class:`SimulatorProbe` attaches to one
:class:`~repro.noc.simulator.NoCSimulator` and records, at the three
buffer-mutation points both engines share verbatim (injection, arrival,
local delivery):

* a per-router **occupancy histogram** — the router's buffered-packet
  count at every enqueue into it;
* a per-router **latency histogram** over the packets it delivered;
* per-channel **utilization**, read at summary time from the simulator's
  own busy-cycle statistics (no extra hot-path hook).

Because the engine-equivalence contract guarantees both engines perform
the identical injections, arrivals and deliveries (same cycles, same
within-cycle order), every probe figure is bit-identical across engines
— the hypothesis suite in ``tests/property/test_engine_equivalence.py``
asserts it.  When no probe is attached the engines pay one ``is None``
check per event; nothing else.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.obs.metrics import Histogram, MetricsRegistry

NodeId = Hashable


class SimulatorProbe:
    """Per-router occupancy/latency histograms and channel utilization."""

    def __init__(self) -> None:
        self.occupancy: dict[NodeId, Histogram] = {}
        """Per router: histogram of the buffered count at each enqueue."""
        self.latency: dict[NodeId, Histogram] = {}
        """Per destination router: histogram of delivered-packet latencies."""
        self.enqueues = 0
        """Total enqueue events observed (injections + arrivals)."""

    # ------------------------------------------------------------------
    # hot-path hooks (called by the simulator when a probe is attached)
    # ------------------------------------------------------------------
    def record_enqueue(self, node: NodeId, occupancy: int) -> None:
        """One packet entered ``node``'s buffers, which now hold ``occupancy``."""
        histogram = self.occupancy.get(node)
        if histogram is None:
            histogram = self.occupancy[node] = Histogram()
        histogram.observe(occupancy)
        self.enqueues += 1

    def record_delivery(self, node: NodeId, latency: int) -> None:
        """``node`` delivered a packet that took ``latency`` cycles end to end."""
        histogram = self.latency.get(node)
        if histogram is None:
            histogram = self.latency[node] = Histogram()
        histogram.observe(latency)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def report_figures(self, statistics) -> dict[str, float]:
        """The ``probe_*`` keys merged into :meth:`NoCSimulator.report`.

        Deterministic, engine-identical floats only — attaching a probe
        adds these keys but never changes any existing report figure.
        """
        delivered = [histogram.count for histogram in self.latency.values()]
        return {
            "probe_total_enqueues": float(self.enqueues),
            "probe_max_router_occupancy": float(
                max((histogram.max for histogram in self.occupancy.values()), default=0.0)
            ),
            "probe_hot_router_delivered": float(max(delivered, default=0)),
        }

    def router_rows(self) -> list[dict[str, object]]:
        """One reporting row per router that saw traffic, sorted by deliveries."""
        rows = []
        for node in sorted(set(self.occupancy) | set(self.latency), key=str):
            occupancy = self.occupancy.get(node)
            latency = self.latency.get(node)
            rows.append(
                {
                    "router": str(node),
                    "delivered": latency.count if latency else 0,
                    "avg_latency_cycles": latency.mean() if latency else 0.0,
                    "max_latency_cycles": latency.max if latency else 0.0,
                    "enqueues": occupancy.count if occupancy else 0,
                    "max_occupancy": occupancy.max if occupancy else 0.0,
                }
            )
        rows.sort(key=lambda row: (-row["delivered"], row["router"]))  # type: ignore[operator]
        return rows

    def channel_rows(self, statistics) -> list[dict[str, object]]:
        """Per-channel utilization rows from the simulator's statistics."""
        return [
            {
                "channel": f"{source!r}->{target!r}",
                "utilization": utilization,
                "busy_cycles": statistics.channel_busy_cycles.get((source, target), 0),
            }
            for (source, target), utilization in sorted(
                statistics.channel_utilization().items(),
                key=lambda item: (-item[1], str(item[0])),
            )
        ]

    def emit_metrics(self, metrics: MetricsRegistry, statistics=None, **labels: object) -> None:
        """Flush the probe's figures into a :class:`MetricsRegistry`.

        Emits per-router delivered counters, average-latency and
        max-occupancy gauges, and (when ``statistics`` is given)
        per-channel utilization gauges.  ``labels`` (e.g. the architecture
        name) are attached to every instrument.
        """
        for row in self.router_rows():
            router = row["router"]
            metrics.counter("noc.router.delivered", router=router, **labels).add(
                float(row["delivered"])  # type: ignore[arg-type]
            )
            metrics.gauge("noc.router.avg_latency_cycles", router=router, **labels).set(
                float(row["avg_latency_cycles"])  # type: ignore[arg-type]
            )
            metrics.gauge("noc.router.max_occupancy", router=router, **labels).set(
                float(row["max_occupancy"])  # type: ignore[arg-type]
            )
        if statistics is not None:
            for row in self.channel_rows(statistics):
                metrics.gauge(
                    "noc.channel.utilization", channel=row["channel"], **labels
                ).set(float(row["utilization"]))  # type: ignore[arg-type]

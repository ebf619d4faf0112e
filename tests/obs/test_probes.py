"""Simulator probe tests: observe everything, perturb nothing."""

from __future__ import annotations

import pytest

from repro.arch.mesh import build_mesh
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_BATCH,
    ENGINE_EVENT,
    NoCSimulator,
    SimulatorConfig,
)
from repro.obs import MetricsRegistry, SimulatorProbe
from repro.routing.policies import get_policy


def drained_mesh(engine: str, probed: bool) -> tuple[NoCSimulator, SimulatorProbe | None]:
    mesh = build_mesh(3, 3)
    routing = get_policy("xy").build(mesh).frozen_next_hop()
    simulator = NoCSimulator(
        mesh, routing, config=SimulatorConfig(engine=engine, router_pipeline_delay_cycles=2)
    )
    probe = None
    if probed:
        probe = SimulatorProbe()
        simulator.attach_probe(probe)
    nodes = mesh.routers()
    for index, source in enumerate(nodes):
        destination = nodes[(index + 4) % len(nodes)]
        if source != destination:
            simulator.schedule_message(Message(source, destination, 96), cycle=index)
    simulator.run_until_drained()
    return simulator, probe


class TestBitIdentity:
    def test_probed_reports_identical_across_engines(self):
        pytest.importorskip("numpy")
        event, _ = drained_mesh(ENGINE_EVENT, probed=True)
        batch, _ = drained_mesh(ENGINE_BATCH, probed=True)
        assert event.report() == batch.report()

    def test_probe_does_not_perturb_simulation(self):
        probed, _ = drained_mesh(ENGINE_EVENT, probed=True)
        plain, _ = drained_mesh(ENGINE_EVENT, probed=False)
        probed_report = probed.report()
        stripped = {
            key: value for key, value in probed_report.items()
            if not key.startswith("probe_")
        }
        assert stripped == plain.report()
        assert probed.statistics.delivery_cycles() == plain.statistics.delivery_cycles()

    def test_unprobed_report_has_no_probe_keys(self):
        plain, _ = drained_mesh(ENGINE_EVENT, probed=False)
        assert not any(key.startswith("probe_") for key in plain.report())

    def test_probed_report_carries_probe_figures(self):
        probed, probe = drained_mesh(ENGINE_EVENT, probed=True)
        report = probed.report()
        assert report["probe_total_enqueues"] == float(probe.enqueues)
        assert report["probe_total_enqueues"] > 0
        assert report["probe_max_router_occupancy"] >= 1.0
        assert report["probe_hot_router_delivered"] >= 1.0


class TestProbeViews:
    def test_router_rows_cover_delivering_routers(self):
        simulator, probe = drained_mesh(ENGINE_EVENT, probed=True)
        rows = probe.router_rows()
        assert rows, "expected per-router rows after a drained run"
        delivered_total = sum(row["delivered"] for row in rows)
        assert delivered_total == len(simulator.statistics.delivered_packets)
        # sorted hot-first
        delivered = [row["delivered"] for row in rows]
        assert delivered == sorted(delivered, reverse=True)
        for row in rows:
            if row["delivered"]:
                assert row["max_latency_cycles"] >= row["avg_latency_cycles"] > 0

    def test_channel_rows_match_statistics(self):
        simulator, probe = drained_mesh(ENGINE_EVENT, probed=True)
        rows = probe.channel_rows(simulator.statistics)
        utilization = simulator.statistics.channel_utilization()
        assert len(rows) == len(utilization)
        assert all(0.0 <= row["utilization"] <= 1.0 for row in rows)

    def test_emit_metrics_publishes_counters_and_gauges(self):
        simulator, probe = drained_mesh(ENGINE_EVENT, probed=True)
        metrics = MetricsRegistry()
        probe.emit_metrics(metrics, simulator.statistics, architecture="m3x3")
        events = metrics.snapshot_events()
        names = {event["name"] for event in events}
        assert "noc.router.delivered" in names
        assert "noc.router.avg_latency_cycles" in names
        assert "noc.channel.utilization" in names
        delivered = [
            event for event in events if event["name"] == "noc.router.delivered"
        ]
        assert all(event["labels"]["architecture"] == "m3x3" for event in delivered)
        assert sum(event["value"] for event in delivered) == len(
            simulator.statistics.delivered_packets
        )

    def test_probe_metrics_identical_across_engines(self):
        """The probe's own figures are part of the equivalence contract."""
        pytest.importorskip("numpy")
        snapshots = {}
        for engine in (ENGINE_EVENT, ENGINE_BATCH):
            simulator, probe = drained_mesh(engine, probed=True)
            metrics = MetricsRegistry()
            probe.emit_metrics(metrics, simulator.statistics)
            snapshots[engine] = metrics.snapshot_events()
        assert snapshots[ENGINE_EVENT] == snapshots[ENGINE_BATCH]


class RecordingProbe(SimulatorProbe):
    """A probe that also keeps every ``record_enqueue`` call in order."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[object, int]] = []

    def record_enqueue(self, node, occupancy: int) -> None:
        self.calls.append((node, occupancy))
        super().record_enqueue(node, occupancy)


class TestInjectionRecords:
    def test_one_call_records_each_source_in_order(self):
        """Injecting a multi-source call records, per source router, the
        occupancies a packet-by-packet append reaches, and the probe's
        router order is the order of each source's first packet."""
        mesh = build_mesh(3, 3)
        routing = get_policy("xy").build(mesh).frozen_next_hop()
        nodes = mesh.routers()
        a, b, c, sink = nodes[4], nodes[0], nodes[7], nodes[8]
        sources = [a, b, a, c, b, a]
        simulator = NoCSimulator(mesh, routing)
        probe = RecordingProbe()
        simulator.attach_probe(probe)
        simulator.schedule_messages([Message(source, sink, 32) for source in sources])
        simulator.run(1)
        injected = probe.calls[: len(sources)]
        for source in (a, b, c):
            occupancies = [value for node, value in injected if node == source]
            assert occupancies == list(range(1, sources.count(source) + 1))
        assert list(probe.occupancy)[:3] == [a, b, c]

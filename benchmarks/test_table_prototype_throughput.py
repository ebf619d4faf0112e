"""Section 5.2 prototype table — throughput (cycles/block and Mbps).

Paper (128-bit blocks at 100 MHz):

    mesh:   271 cycles/block  ->  47.2 Mbps
    custom: 199 cycles/block  ->  64.3 Mbps   (+36% throughput)

Shape criterion: the customized architecture needs fewer cycles per block and
delivers 15-90% higher throughput; the simulated mesh operating point lands
within +/-50% of the paper's 271 cycles/block.
"""

from __future__ import annotations

import pytest

from repro.experiments.comparison import (
    PAPER_RESULTS,
    default_simulator_config,
    run_prototype_comparison,
)
from repro.experiments.reporting import format_table
from repro.noc.simulator import ENGINE_BATCH, ENGINE_EVENT
from repro.noc.traffic import InjectionSchedule, acg_messages


def test_table_throughput(benchmark, aes_synthesis_session):
    comparison = benchmark.pedantic(
        lambda: run_prototype_comparison(blocks=1, synthesis=aes_synthesis_session),
        rounds=1,
        iterations=1,
    )
    rows = [
        {
            "architecture": metrics.name,
            "cycles_per_block": metrics.cycles_per_block,
            "throughput_mbps": metrics.throughput_mbps,
            "paper_cycles": PAPER_RESULTS[key]["cycles_per_block"],
            "paper_mbps": PAPER_RESULTS[key]["throughput_mbps"],
        }
        for key, metrics in (("mesh", comparison.mesh), ("custom", comparison.custom))
    ]
    print()
    print(format_table(rows, title="Section 5.2 — throughput (simulated vs. paper)"))
    print(f"throughput increase: {comparison.throughput_increase_percent:+.1f}% (paper: +36%)")

    assert comparison.custom.cycles_per_block < comparison.mesh.cycles_per_block
    assert comparison.custom.throughput_mbps > comparison.mesh.throughput_mbps
    assert 15.0 <= comparison.throughput_increase_percent <= 90.0
    paper_mesh_cycles = PAPER_RESULTS["mesh"]["cycles_per_block"]
    assert 0.5 * paper_mesh_cycles <= comparison.mesh.cycles_per_block <= 1.5 * paper_mesh_cycles


@pytest.mark.smoke
def test_throughput_open_loop_engine_speedup(engine_duel, aes_synthesis_session):
    """Event-driven engine vs the oracle on the throughput characterization.

    Open-loop ACG traffic at a sustained injection rate — the workload of a
    throughput sweep towards saturation.  The event engine must produce a
    bit-identical report while skipping the inter-injection dead time:
    >=5x fewer stepped cycles than the oracle, which steps every cycle
    (measured: 6.0x on the mesh, 7.1x on the custom fabric).
    """
    messages = acg_messages(aes_synthesis_session.acg, packet_size_bits=32) * 4
    schedule = InjectionSchedule.periodic(messages, period_cycles=16, seed=2, jitter=2)
    for fabric in ("mesh", "custom"):
        duel = engine_duel(fabric, schedule.schedule_onto)
        duel.assert_identical_reports()
        print()
        print("open-loop throughput:", duel.describe())
        assert duel.stepped_ratio >= 5.0, duel.describe()


@pytest.mark.smoke
def test_prototype_operating_point_engine_equivalence(aes_synthesis_session):
    """At the paper's AES operating point the traffic is dense single-flit
    bursts — little dead time to skip — so the contract here is exactness:
    identical tables from both engines, with the idle/serialization gaps
    that do exist (computation allowances, drain tails) skipped: the event
    engine steps >=1.3x fewer cycles than a run stepping all of them."""
    pytest.importorskip("numpy")
    results = {}
    for engine in (ENGINE_EVENT, ENGINE_BATCH):
        config = default_simulator_config()
        config.engine = engine
        results[engine] = run_prototype_comparison(
            blocks=1, synthesis=aes_synthesis_session, simulator_config=config
        )
    event, batch = results[ENGINE_EVENT], results[ENGINE_BATCH]
    for side in ("mesh", "custom"):
        event_metrics = getattr(event, side)
        batch_metrics = getattr(batch, side)
        for field in (
            "total_cycles",
            "cycles_per_block",
            "throughput_mbps",
            "average_latency_cycles",
            "average_hops",
            "average_power_mw",
            "energy_per_block_uj",
            "max_channel_utilization",
        ):
            assert getattr(event_metrics, field) == getattr(batch_metrics, field), (
                side,
                field,
            )
        stepped_ratio = event_metrics.total_cycles / event_metrics.cycles_stepped
        print(f"{side}: operating-point stepped-cycle reduction {stepped_ratio:.2f}x")
        assert stepped_ratio >= 1.3

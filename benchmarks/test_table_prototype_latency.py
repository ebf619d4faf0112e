"""Section 5.2 prototype table — average packet latency.

Paper: 11.5 cycles on the mesh vs. 9.6 cycles on the customized architecture
(a 17% reduction).  Shape criterion: the customized architecture reduces the
average packet latency by 5-40%, and its traffic-weighted average hop count
is strictly lower (the structural mechanism behind the latency win).
"""

from __future__ import annotations

import pytest

from repro.experiments.comparison import PAPER_RESULTS
from repro.experiments.reporting import format_table
from repro.noc.traffic import InjectionSchedule, acg_messages


def test_table_latency(benchmark, prototype_comparison):
    comparison = prototype_comparison
    benchmark.pedantic(lambda: comparison.latency_reduction_percent, rounds=1, iterations=1)

    rows = [
        {
            "architecture": metrics.name,
            "avg_latency_cycles": metrics.average_latency_cycles,
            "avg_hops": metrics.average_hops,
            "paper_latency": PAPER_RESULTS[key]["average_latency_cycles"],
        }
        for key, metrics in (("mesh", comparison.mesh), ("custom", comparison.custom))
    ]
    print()
    print(format_table(rows, title="Section 5.2 — average latency (simulated vs. paper)"))
    print(f"latency reduction: {comparison.latency_reduction_percent:.1f}% (paper: 17%)")

    assert comparison.custom.average_latency_cycles < comparison.mesh.average_latency_cycles
    assert 5.0 <= comparison.latency_reduction_percent <= 40.0
    assert comparison.custom.average_hops < comparison.mesh.average_hops


@pytest.mark.smoke
def test_latency_probe_engine_speedup(engine_duel, aes_synthesis_session):
    """Event-driven engine vs the oracle on the latency characterization.

    Zero-load latency probing injects lone packets far apart so nothing
    queues — almost every cycle is dead time between a launch and the next
    arrival.  The event engine must report identical latencies while
    skipping it all: >=5x fewer stepped cycles than the oracle, which
    steps every cycle (measured: ~15x fewer on both fabrics).
    """
    probes = acg_messages(aes_synthesis_session.acg, packet_size_bits=32)
    schedule = InjectionSchedule.periodic(probes, period_cycles=40, seed=2)
    for fabric in ("mesh", "custom"):
        duel = engine_duel(fabric, schedule.schedule_onto)
        duel.assert_identical_reports()
        print()
        print("zero-load latency probes:", duel.describe())
        assert duel.stepped_ratio >= 5.0, duel.describe()

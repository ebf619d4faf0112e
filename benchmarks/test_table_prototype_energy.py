"""Section 5.2 prototype table — average power and energy per block.

Paper: 33% lower average power and 5.1 uJ vs. 2.5 uJ per 128-bit block (-51%)
in favour of the customized architecture, measured with XPower on the FPGA
prototypes.

Our measurement substrate is the cycle simulator plus the analytic bit-energy
model, and it conserves energy strictly (every router/link traversal is
charged identically on both architectures), so the reproduced deltas are
smaller than the FPGA measurement: the energy-per-block reduction comes from
fewer volume-weighted hops plus less static energy over the shorter runtime,
while the *average power* of the customized design is not lower (the same
work happens in less time).  Shape criterion: the customized architecture
uses 10-70% less energy per block; the power deviation is documented in
docs/paper-mapping.md.
"""

from __future__ import annotations

import pytest

from repro.experiments.comparison import PAPER_RESULTS
from repro.experiments.reporting import format_table
from repro.noc.traffic import InjectionSchedule, acg_messages


def test_table_power_and_energy(benchmark, prototype_comparison):
    comparison = prototype_comparison
    benchmark.pedantic(lambda: comparison.energy_reduction_percent, rounds=1, iterations=1)

    rows = [
        {
            "architecture": metrics.name,
            "avg_power_mw": metrics.average_power_mw,
            "energy_per_block_uj": metrics.energy_per_block_uj,
            "paper_energy_uj": PAPER_RESULTS[key]["energy_per_block_uj"],
        }
        for key, metrics in (("mesh", comparison.mesh), ("custom", comparison.custom))
    ]
    print()
    print(format_table(rows, title="Section 5.2 — power / energy (simulated vs. paper)"))
    print(f"energy/block reduction: {comparison.energy_reduction_percent:.1f}% (paper: 51%)")
    print(f"avg power change: {-comparison.power_reduction_percent:+.1f}% (paper: -33%)")

    # energy: direction and rough factor must hold
    assert comparison.custom.energy_per_block_uj < comparison.mesh.energy_per_block_uj
    assert 10.0 <= comparison.energy_reduction_percent <= 70.0
    # both designs burn nonzero dynamic energy
    assert comparison.mesh.average_power_mw > 0
    assert comparison.custom.average_power_mw > 0


@pytest.mark.smoke
def test_energy_multiflit_engine_speedup(engine_duel, aes_synthesis_session):
    """Event-driven engine vs the oracle on the energy characterization.

    Large packets (512 bits = 16 flits) hold every traversed channel for
    their full serialization time, so the network spends most cycles just
    shifting flits — pure dead time for the scheduler, while the batched
    energy counters must still land on bit-identical totals: >=5x fewer
    stepped cycles than the oracle, which steps every cycle (measured:
    7.5x on the mesh, 8.8x on the custom fabric).
    """
    messages = acg_messages(aes_synthesis_session.acg, packet_size_bits=512) * 4
    schedule = InjectionSchedule.periodic(messages, period_cycles=20, seed=2, jitter=2)
    for fabric in ("mesh", "custom"):
        duel = engine_duel(fabric, schedule.schedule_onto)
        duel.assert_identical_reports()
        print()
        print("multi-flit energy workload:", duel.describe())
        assert duel.stepped_ratio >= 5.0, duel.describe()
        total_pj = duel.event.energy.total_energy_pj
        assert total_pj == duel.oracle.energy.total_energy_pj
        assert total_pj > 0

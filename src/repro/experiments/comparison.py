"""Prototype-style comparison: customized architecture vs. standard mesh.

Section 5.2 of the paper prototypes both architectures on a Virtex-2 FPGA
and reports, for encrypting 128-bit blocks at 100 MHz:

===============================  ========  ==========  =========
metric                           mesh      customized  change
===============================  ========  ==========  =========
cycles per block                 271       199         -27%
throughput (Mbps)                47.2      64.3        +36%
average packet latency (cycles)  11.5      9.6         -17%
average power                    (ref)     -33%
energy per block (uJ)            5.1       2.5         -51%
===============================  ========  ==========  =========

Our measurement substrate is the cycle-based simulator plus the analytic
energy model instead of an FPGA + XPower, so absolute values differ; the
reproduction criterion is the *shape*: the customized architecture must win
on every metric by comparable factors.  Both architectures are simulated
with the same router model, the same flit width, the same technology point
and the same dependency-aware AES traffic (the phases traced by
:class:`repro.aes.distributed.DistributedAES`).

Both sides come from the ``aes`` scenario's :mod:`repro.dse.pipeline`
stages: the customized fabric from :func:`run_aes_synthesis` (decompose,
synthesize, route), the mesh from :func:`~repro.dse.pipeline.baseline_route_stage`.
Other fabric families and routing policies under AES traffic are sweep
cells: ``python -m repro.dse run --suite paper --topology ... --routing-policy ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.topology import Topology
from repro.dse.pipeline import (
    ArchitectureMetrics,
    EvaluationSettings,
    _replay,
    baseline_route_stage,
    get_traffic_mode,
)
from repro.dse.scenarios import aes_scenario
from repro.energy.technology import Technology
from repro.experiments.aes_experiment import AesSynthesisResult, run_aes_synthesis
from repro.experiments.reporting import format_table, percentage_change
from repro.noc.simulator import SimulatorConfig, WiredFabric
from repro.routing.table import RoutingTable

#: paper-reported reference numbers (Section 5.2)
PAPER_RESULTS = {
    "mesh": {
        "cycles_per_block": 271.0,
        "throughput_mbps": 47.2,
        "average_latency_cycles": 11.5,
        "energy_per_block_uj": 5.1,
    },
    "custom": {
        "cycles_per_block": 199.0,
        "throughput_mbps": 64.3,
        "average_latency_cycles": 9.6,
        "energy_per_block_uj": 2.5,
    },
}


#: router pipeline depth used for the prototype-style comparison.  The
#: paper's FPGA routers are multi-stage (buffer write, route computation /
#: arbitration, crossbar traversal); two cycles per hop plus one cycle of
#: link serialization puts the simulated mesh at the paper's operating point
#: (~270 cycles per AES block, ~double-digit packet latencies).
DEFAULT_PIPELINE_DELAY_CYCLES = 2


def default_simulator_config() -> SimulatorConfig:
    """Simulator configuration used by the prototype comparison."""
    return SimulatorConfig(router_pipeline_delay_cycles=DEFAULT_PIPELINE_DELAY_CYCLES)


__all__ = [
    "PAPER_RESULTS",
    "ArchitectureMetrics",
    "PrototypeComparison",
    "default_simulator_config",
    "run_prototype_comparison",
]


@dataclass
class PrototypeComparison:
    """Mesh vs. customized architecture under identical AES traffic."""

    mesh: ArchitectureMetrics
    custom: ArchitectureMetrics
    technology: Technology

    # -- paper-style deltas ------------------------------------------------
    @property
    def throughput_increase_percent(self) -> float:
        return percentage_change(self.mesh.throughput_mbps, self.custom.throughput_mbps)

    @property
    def cycles_reduction_percent(self) -> float:
        return -percentage_change(self.mesh.cycles_per_block, self.custom.cycles_per_block)

    @property
    def latency_reduction_percent(self) -> float:
        return -percentage_change(
            self.mesh.average_latency_cycles, self.custom.average_latency_cycles
        )

    @property
    def power_reduction_percent(self) -> float:
        return -percentage_change(self.mesh.average_power_mw, self.custom.average_power_mw)

    @property
    def energy_reduction_percent(self) -> float:
        return -percentage_change(
            self.mesh.energy_per_block_uj, self.custom.energy_per_block_uj
        )

    def to_rows(self) -> list[dict[str, object]]:
        return [self.mesh.as_dict(), self.custom.as_dict()]

    def describe(self) -> str:
        rows = self.to_rows()
        lines = [
            format_table(rows, title="Prototype comparison (simulated)"),
            "",
            f"throughput increase : {self.throughput_increase_percent:+.1f}%  (paper: +36%)",
            f"cycles/block change : {-self.cycles_reduction_percent:+.1f}%  (paper: -27%)",
            f"latency change      : {-self.latency_reduction_percent:+.1f}%  (paper: -17%)",
            f"avg power change    : {-self.power_reduction_percent:+.1f}%  (paper: -33%)",
            f"energy/block change : {-self.energy_reduction_percent:+.1f}%  (paper: -51%)",
        ]
        return "\n".join(lines)


def run_prototype_comparison(
    blocks: int = 4,
    synthesis: AesSynthesisResult | None = None,
    simulator_config: SimulatorConfig | None = None,
) -> PrototypeComparison:
    """The full Section-5.2 comparison: synthesize, then simulate both designs.

    The ``aes`` scenario's traffic program (its phases for ``blocks``
    blocks, with its computation cycles per phase) is built once and
    replayed on both fabrics under ``simulator_config``
    (:func:`default_simulator_config` when omitted).
    """
    scenario = aes_scenario(blocks)
    settings = EvaluationSettings(architecture="mesh")
    mesh, mesh_table, _ = baseline_route_stage(scenario, settings)
    synthesis = synthesis or run_aes_synthesis()
    custom = synthesis.architecture
    technology = settings.build_technology()
    config = simulator_config or default_simulator_config()
    program = get_traffic_mode(scenario.traffic).program(scenario)

    def measure(topology: Topology, table: RoutingTable) -> ArchitectureMetrics:
        def wire() -> WiredFabric:
            return WiredFabric(topology, table.frozen_next_hop())

        return _replay(topology.name, wire, program, technology, config)[0]

    return PrototypeComparison(
        mesh=measure(mesh, mesh_table),
        custom=measure(custom.topology, custom.routing_table),
        technology=technology,
    )

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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.families import build_fabric, pad_node_ids
from repro.core.synthesis import SynthesizedArchitecture
from repro.dse.pipeline import ArchitectureMetrics, simulate_aes_traffic
from repro.energy.technology import FPGA_VIRTEX2, Technology
from repro.experiments.aes_experiment import AesSynthesisResult, run_aes_synthesis
from repro.experiments.reporting import format_table, percentage_change
from repro.noc.simulator import SimulatorConfig
from repro.routing.policies import get_policy

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

#: cycles of local computation (SubBytes / MixColumns / AddRoundKey
#: arithmetic on the byte-slice nodes) charged after every communication
#: phase.  Identical for both architectures — it models the part of the
#: paper's cycles/block that is computation rather than communication.
DEFAULT_COMPUTATION_CYCLES_PER_PHASE = 4


def default_simulator_config() -> SimulatorConfig:
    """Simulator configuration used by the prototype comparison."""
    return SimulatorConfig(router_pipeline_delay_cycles=DEFAULT_PIPELINE_DELAY_CYCLES)


__all__ = [
    "PAPER_RESULTS",
    "ArchitectureMetrics",
    "PrototypeComparison",
    "default_simulator_config",
    "evaluate_fabric",
    "evaluate_mesh",
    "evaluate_custom",
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


# ----------------------------------------------------------------------
# measurement helpers (the actual simulation lives in repro.dse.pipeline,
# the shared evaluation pipeline this comparison now runs on)
# ----------------------------------------------------------------------
def evaluate_fabric(
    family: str = "mesh",
    routing_policy: str = "xy",
    blocks: int = 4,
    technology: Technology = FPGA_VIRTEX2,
    tile_pitch_mm: float = 2.0,
    simulator_config: SimulatorConfig | None = None,
    computation_cycles_per_phase: int = DEFAULT_COMPUTATION_CYCLES_PER_PHASE,
) -> ArchitectureMetrics:
    """Simulate a 16-core standard fabric of the named family under AES traffic.

    The comparison's standard side generalized beyond the 4x4 mesh: any
    registered :mod:`repro.arch.families` family routed by any compatible
    :mod:`repro.routing.policies` policy (the policy registry raises
    :class:`~repro.exceptions.RoutingError` for unsupported pairs).
    """
    node_ids = pad_node_ids(family, range(1, 17))
    fabric = build_fabric(family, node_ids, tile_pitch_mm=tile_pitch_mm)
    table = get_policy(routing_policy).build(fabric)
    config = simulator_config or default_simulator_config()
    return simulate_aes_traffic(
        fabric.name,
        fabric,
        table.frozen_next_hop(),
        blocks,
        technology,
        config,
        computation_cycles_per_phase=computation_cycles_per_phase,
    )


def evaluate_mesh(
    blocks: int = 4,
    technology: Technology = FPGA_VIRTEX2,
    tile_pitch_mm: float = 2.0,
    simulator_config: SimulatorConfig | None = None,
    computation_cycles_per_phase: int = DEFAULT_COMPUTATION_CYCLES_PER_PHASE,
) -> ArchitectureMetrics:
    """Simulate the 4x4 mesh baseline (XY routing) under AES traffic."""
    return evaluate_fabric(
        family="mesh",
        routing_policy="xy",
        blocks=blocks,
        technology=technology,
        tile_pitch_mm=tile_pitch_mm,
        simulator_config=simulator_config,
        computation_cycles_per_phase=computation_cycles_per_phase,
    )


def evaluate_custom(
    architecture: SynthesizedArchitecture,
    blocks: int = 4,
    technology: Technology = FPGA_VIRTEX2,
    simulator_config: SimulatorConfig | None = None,
    computation_cycles_per_phase: int = DEFAULT_COMPUTATION_CYCLES_PER_PHASE,
) -> ArchitectureMetrics:
    """Simulate the synthesized customized architecture under AES traffic."""
    table = architecture.routing_table
    config = simulator_config or default_simulator_config()
    return simulate_aes_traffic(
        architecture.topology.name,
        architecture.topology,
        table.frozen_next_hop(),
        blocks,
        technology,
        config,
        computation_cycles_per_phase=computation_cycles_per_phase,
    )


def run_prototype_comparison(
    blocks: int = 4,
    technology: Technology = FPGA_VIRTEX2,
    synthesis: AesSynthesisResult | None = None,
    simulator_config: SimulatorConfig | None = None,
    computation_cycles_per_phase: int = DEFAULT_COMPUTATION_CYCLES_PER_PHASE,
) -> PrototypeComparison:
    """The full Section-5.2 comparison: synthesize, then simulate both designs."""
    synthesis = synthesis or run_aes_synthesis()
    mesh_metrics = evaluate_mesh(
        blocks=blocks,
        technology=technology,
        simulator_config=simulator_config,
        computation_cycles_per_phase=computation_cycles_per_phase,
    )
    custom_metrics = evaluate_custom(
        synthesis.architecture,
        blocks=blocks,
        technology=technology,
        simulator_config=simulator_config,
        computation_cycles_per_phase=computation_cycles_per_phase,
    )
    return PrototypeComparison(mesh=mesh_metrics, custom=custom_metrics, technology=technology)

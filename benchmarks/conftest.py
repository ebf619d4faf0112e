"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(see docs/paper-mapping.md for the figure/table -> experiment -> benchmark
index and the deviations from the paper's numbers).  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the regenerated rows/series printed by each benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the oracle of the cycle model

import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from repro.arch.mesh import build_mesh  # noqa: E402
from repro.experiments.aes_experiment import run_aes_synthesis  # noqa: E402
from repro.experiments.comparison import run_prototype_comparison  # noqa: E402
from repro.noc.simulator import NoCSimulator, SimulatorConfig  # noqa: E402
from repro.routing.policies import get_policy  # noqa: E402
from simulator_oracle import OracleSimulator  # noqa: E402


@pytest.fixture(scope="session")
def aes_synthesis_session():
    """The AES decomposition + synthesized architecture, shared by benches."""
    return run_aes_synthesis()


@pytest.fixture(scope="session")
def prototype_comparison(aes_synthesis_session):
    """The mesh-vs-custom simulation used by the Section 5.2 table benches."""
    return run_prototype_comparison(blocks=2, synthesis=aes_synthesis_session)


# ----------------------------------------------------------------------
# engine comparison harness (event-driven engine vs the cycle-model oracle)
# ----------------------------------------------------------------------
@dataclass
class EngineDuel:
    """One workload run on the event engine and on the oracle of the cycle
    model (``tests/simulator_oracle.py``), which steps every cycle."""

    fabric: str
    event: NoCSimulator
    oracle: OracleSimulator
    event_wall_seconds: float

    @property
    def stepped_ratio(self) -> float:
        return self.oracle.cycles_stepped / max(self.event.cycles_stepped, 1)

    def assert_identical_reports(self) -> None:
        assert self.event.report() == self.oracle.report(), self.fabric
        assert (
            self.event.statistics.delivery_cycles()
            == self.oracle.statistics.delivery_cycles()
        ), self.fabric

    def describe(self) -> str:
        return (
            f"{self.fabric}: event {self.event_wall_seconds * 1000:.1f}ms, "
            f"stepped cycles {self.oracle.cycles_stepped}/"
            f"{self.event.cycles_stepped} = {self.stepped_ratio:.1f}x "
            f"over {self.event.current_cycle} simulated cycles"
        )


@pytest.fixture(scope="session")
def engine_duel(aes_synthesis_session):
    """Run a traffic builder on the event engine and the oracle over the
    mesh or custom fabric.

    Returns ``run(fabric, schedule) -> EngineDuel`` where ``schedule(sim)``
    loads the traffic; both then drain the identical workload and the duel
    carries the reports, the event engine's wall-clock and both
    stepped-cycle counts.
    """

    def fabric_parts(fabric):
        if fabric == "mesh":
            mesh = build_mesh(4, 4)
            return mesh, get_policy("xy").build(mesh).frozen_next_hop()
        architecture = aes_synthesis_session.architecture
        return architecture.topology, architecture.routing_table.frozen_next_hop()

    def run(fabric, schedule, pipeline_delay_cycles=2):
        runs = {}
        for simulator_class in (NoCSimulator, OracleSimulator):
            topology, routing = fabric_parts(fabric)
            simulator = simulator_class(
                topology,
                routing,
                config=SimulatorConfig(router_pipeline_delay_cycles=pipeline_delay_cycles),
            )
            schedule(simulator)
            start = time.perf_counter()
            simulator.run_until_drained()
            runs[simulator_class] = (simulator, time.perf_counter() - start)
        return EngineDuel(
            fabric=fabric,
            event=runs[NoCSimulator][0],
            oracle=runs[OracleSimulator][0],
            event_wall_seconds=runs[NoCSimulator][1],
        )

    return run

"""Frozen per-packet corpus of blocked runs, replayed on the event engine
and on the oracle of the cycle model.

The golden report corpus (``test_golden_reports.py``) pins aggregate
reports at the default buffer capacity, where backpressure is rare.  This
corpus pins the runs where it is not: one-, two-packet buffers, short and
long router pipelines, single- and multi-flit packets, on the
retry-collision scenario, the distributed-AES phases on the synthesized
AES fabric and MPEG-4 on its mesh baseline.  Each fixture entry holds a
digest of every packet's ``(id, delivery cycle, hops, path)``, of the
``report()`` and of ``statistics.channel_busy_cycles`` items in insertion
(first-launch) order, plus the ``engine_info()`` of the event engine and
of the oracle (``tests/simulator_oracle.py``, kept under the key
``reference``), whose ``cycles_stepped`` differ by design: the oracle
steps every cycle.

Regenerate the fixture only when simulation semantics change on purpose:

    PYTHONPATH=src python tests/noc/test_blocked_corpus.py

and commit the diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable
from functools import cache
from pathlib import Path

import pytest

if __name__ == "__main__":  # run as a script: the oracle's module is one level up
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.aes.aes_core import FIPS197_KEY
from repro.aes.distributed import DistributedAES
from repro.dse.pipeline import EvaluationSettings, baseline_route_stage
from repro.dse.scenarios import embedded_scenario
from repro.experiments.aes_experiment import run_aes_synthesis
from repro.noc.simulator import NoCSimulator, SimulatorConfig
from repro.noc.traffic import acg_messages
from simulator_oracle import OracleSimulator
from test_capacity_certificate import retry_collision_run

CORPUS = Path(__file__).resolve().parent.parent / "fixtures" / "golden" / "blocked_runs.json"
#: the fixture's engine_info keys and the simulators that replay them
ENGINES = {"reference": OracleSimulator, "event": NoCSimulator}
ORACLE = "reference"
CAPACITIES = (1, 2)
DELAYS = (1, 4)


@cache
def aes_fabric():
    architecture = run_aes_synthesis().architecture
    return architecture.topology, architecture.routing_table.frozen_next_hop()


@cache
def aes_phases() -> tuple[tuple, ...]:
    """The phases of two distributed-AES blocks (8-bit messages)."""
    aes = DistributedAES(FIPS197_KEY)
    plaintext = bytes(range(16))
    phases = []
    for block_index in range(2):
        block = bytes((byte + block_index) % 256 for byte in plaintext)
        phases.extend(tuple(phase) for phase in aes.encrypt_block(block).phases)
    return tuple(phases)


@cache
def mpeg4_fabric():
    scenario = embedded_scenario("mpeg4")
    fabric, table, _ = baseline_route_stage(scenario, EvaluationSettings(architecture="mesh"))
    return scenario.acg, fabric, table.frozen_next_hop()


def aes_run(simulator: type, capacity: int, delay: int, flit_width: int) -> NoCSimulator:
    topology, routing = aes_fabric()
    simulator = simulator(
        topology,
        routing,
        config=SimulatorConfig(
            buffer_capacity_packets=capacity,
            router_pipeline_delay_cycles=delay,
            flit_width_bits=flit_width,
        ),
    )
    for phase in aes_phases():
        simulator.schedule_messages(phase)
        simulator.run_until_drained()
        simulator.run(4)
    return simulator


def mpeg4_run(simulator: type, capacity: int, delay: int, packet_bits: int) -> NoCSimulator:
    acg, fabric, routing = mpeg4_fabric()
    simulator = simulator(
        fabric,
        routing,
        config=SimulatorConfig(
            buffer_capacity_packets=capacity, router_pipeline_delay_cycles=delay
        ),
    )
    for _ in range(2):
        simulator.schedule_messages(acg_messages(acg, packet_size_bits=packet_bits))
        simulator.run_until_drained()
    return simulator


def retry_run(simulator: type, capacity: int, delay: int) -> NoCSimulator:
    simulator = retry_collision_run(capacity, delay, simulator)
    simulator.run_until_drained()
    return simulator


def _cases() -> dict[str, Callable[[type], NoCSimulator]]:
    cases: dict[str, Callable[[type], NoCSimulator]] = {}
    for capacity in CAPACITIES:
        for delay in DELAYS:
            tag = f"cap{capacity}-delay{delay}"
            cases[f"retry_collision-{tag}"] = (
                lambda simulator, c=capacity, d=delay: retry_run(simulator, c, d)
            )
            # 8-bit AES messages: one flit at 8-bit flits, four at 2-bit flits
            for flit_width, flits in ((8, 1), (2, 4)):
                cases[f"aes_custom-{tag}-{flits}flit"] = (
                    lambda simulator, c=capacity, d=delay, w=flit_width: aes_run(
                        simulator, c, d, w
                    )
                )
            for packet_bits, flits in ((32, 1), (128, 4)):
                cases[f"mpeg4_mesh-{tag}-{flits}flit"] = (
                    lambda simulator, c=capacity, d=delay, b=packet_bits: mpeg4_run(
                        simulator, c, d, b
                    )
                )
    return cases


CASES = _cases()


def _sha256(value: object) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(simulator: NoCSimulator) -> dict[str, object]:
    """The corpus view of one finished run."""
    packets = sorted(
        [packet.packet_id, packet.delivery_cycle, packet.hops, packet.path]
        for packet in simulator.statistics.delivered_packets
    )
    info = simulator.engine_info()
    del info["engine"]
    return {
        "packets": _sha256(packets),
        "report": _sha256(simulator.report()),
        "channels": _sha256(list(simulator.statistics.channel_busy_cycles.items())),
        "delivered": len(packets),
        "engine_info": info,
    }


@cache
def corpus() -> dict[str, dict[str, object]]:
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_blocked_run_matches_the_frozen_corpus(case, engine):
    expected = corpus()[case]
    digest = run_digest(CASES[case](ENGINES[engine]))
    assert digest["packets"] == expected["packets"]
    assert digest["report"] == expected["report"]
    assert digest["channels"] == expected["channels"]
    assert digest["delivered"] == expected["delivered"]
    assert digest["engine_info"] == expected["engine_info"][engine]


def test_the_corpus_exercises_backpressure():
    """Every one-packet-buffer case blocked in both replays, so the fixture
    pins the retry and backpressure paths rather than free-flowing runs."""
    assert sorted(corpus()) == sorted(CASES)
    for case, entry in corpus().items():
        if "-cap1-" in case:
            for engine in ENGINES:
                assert entry["engine_info"][engine]["blocked"] is True, (case, engine)


def write_corpus() -> None:
    """Regenerate the fixture from the oracle, checking that the event
    engine agrees on every packet and report."""
    entries: dict[str, dict[str, object]] = {}
    for case, build in sorted(CASES.items()):
        digests = {engine: run_digest(build(simulator)) for engine, simulator in ENGINES.items()}
        oracle = digests[ORACLE]
        for engine, digest in digests.items():
            for key in ("packets", "report", "channels", "delivered"):
                if digest[key] != oracle[key]:
                    raise SystemExit(f"{case}: {engine} disagrees with the oracle on {key}")
        entries[case] = {
            "packets": oracle["packets"],
            "report": oracle["report"],
            "channels": oracle["channels"],
            "delivered": oracle["delivered"],
            "engine_info": {engine: digest["engine_info"] for engine, digest in digests.items()},
        }
    CORPUS.write_text(json.dumps(entries, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    write_corpus()

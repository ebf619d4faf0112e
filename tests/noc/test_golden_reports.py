"""Golden-corpus regression tests: canonical reports for the embedded ACGs.

``tests/fixtures/golden/<benchmark>.json`` holds the canonical probed
``report()`` of each published embedded benchmark (MPEG-4, VOPD, MWD,
263enc+mp3dec) on its mesh baseline.  Both simulator engines — event
and batch — are replayed against the same fixture, so the corpus pins
two properties at once: the engines agree with each other, and neither
drifts over time.  The oracle of the cycle model
(``tests/simulator_oracle.py``) replays the same fixtures, minus the
probe figures it does not compute, so the corpus is also pinned to the
model.  Where the differential harness catches a divergence from that
oracle, this corpus catches a drift that the oracle would share (a
semantics change smuggled into the common substrate, such as the energy
model).

Updating the corpus is a deliberate act: when a PR intentionally changes
simulation semantics, regenerate the fixtures with

    pytest tests/noc/test_golden_reports.py --update-golden

and commit the diff — the fixture churn *is* the review surface.  The
update path always regenerates from the event engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse.pipeline import EvaluationSettings, baseline_route_stage
from repro.dse.scenarios import embedded_scenario
from repro.noc.simulator import ENGINE_EVENT, ENGINES, NoCSimulator
from repro.noc.traffic import acg_messages
from repro.obs import SimulatorProbe
from repro.workloads.benchmarks import embedded_benchmark_names
from simulator_oracle import OracleSimulator

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

#: fixed replay parameters — part of the corpus contract, change with care
PACKET_SIZE_BITS = 32
REPETITIONS = 2


def replay_report(
    workload: str, engine: str, simulator_class: type = NoCSimulator
) -> dict[str, float]:
    """One canonical run of a benchmark on its mesh baseline, probed
    unless ``simulator_class`` is the oracle's, which has no probe."""
    scenario = embedded_scenario(workload, repetitions=REPETITIONS)
    settings = EvaluationSettings(architecture="mesh", engine=engine)
    fabric, table, _ = baseline_route_stage(scenario, settings)
    simulator = simulator_class(
        fabric,
        table.frozen_next_hop(),
        config=settings.build_simulator_config(),
        technology=settings.build_technology(),
    )
    if simulator_class is NoCSimulator:
        simulator.attach_probe(SimulatorProbe())
    for _ in range(REPETITIONS):
        simulator.schedule_messages(
            acg_messages(scenario.acg, packet_size_bits=PACKET_SIZE_BITS)
        )
        simulator.run_until_drained()
    return simulator.report()


def canonical(report: dict[str, float]) -> dict[str, float]:
    """The JSON-round-tripped view: exactly what the fixture files hold."""
    return json.loads(json.dumps(report, sort_keys=True))


@pytest.mark.parametrize("workload", embedded_benchmark_names())
def test_update_golden_corpus(workload, request):
    """Regenerate the corpus with ``--update-golden`` (no-op otherwise)."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("corpus update not requested (pass --update-golden)")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    report = canonical(replay_report(workload, ENGINE_EVENT))
    path = GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", embedded_benchmark_names())
def test_golden_report(workload, engine, request):
    """Every engine reproduces the committed canonical report bit for bit."""
    if request.config.getoption("--update-golden"):
        pytest.skip("corpus being regenerated in this run")
    path = GOLDEN_DIR / f"{workload}.json"
    assert path.exists(), (
        f"missing golden fixture {path}; generate the corpus with "
        "pytest tests/noc/test_golden_reports.py --update-golden"
    )
    golden = json.loads(path.read_text())
    assert canonical(replay_report(workload, engine)) == golden


@pytest.mark.parametrize("workload", embedded_benchmark_names())
def test_golden_report_matches_the_oracle(workload, request):
    """The oracle of the cycle model reproduces every committed figure
    but the ``probe_*`` ones bit for bit."""
    if request.config.getoption("--update-golden"):
        pytest.skip("corpus being regenerated in this run")
    golden = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    expected = {key: value for key, value in golden.items() if not key.startswith("probe_")}
    assert len(expected) < len(golden)  # the fixture is probed
    assert canonical(replay_report(workload, ENGINE_EVENT, OracleSimulator)) == expected

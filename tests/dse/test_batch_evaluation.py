"""Batch-engine cells through the DSE pipeline.

A cell with ``engine="batch"`` runs solo through the
:class:`~repro.noc.simulator.NoCSimulator` engine facade, like the other
engines.  These tests pin that its records — every metric, including
``sim_cycles_stepped`` and the energy figures — equal its event-engine
twin's, and that a failing batch cell fails alone with the solo message.
"""

from __future__ import annotations

import pytest

from repro.dse.pipeline import EvaluationSettings, Scenario, evaluate, evaluate_cells
from repro.dse.records import STATUS_SIMULATION_FAILED
from repro.dse.runner import run_sweep
from repro.workloads.benchmarks import embedded_benchmark_acg

pytestmark = pytest.mark.differential


@pytest.fixture(scope="module")
def scenarios():
    return [
        Scenario(name="mpeg4", acg=embedded_benchmark_acg("mpeg4"), repetitions=2),
        Scenario(name="vopd", acg=embedded_benchmark_acg("vopd"), repetitions=1),
    ]


def payloads(scenarios, engine, capacities=(2, 4)):
    out = []
    for scenario in scenarios:
        for capacity in capacities:
            settings = EvaluationSettings(
                architecture="mesh", engine=engine, buffer_capacity_packets=capacity
            )
            axes = {"buffer_capacity_packets": capacity}
            out.append((scenario, settings, axes, f"{scenario.name}-{capacity}-{engine}"))
    return out


def metric_views(records):
    """The result-bearing view of records: everything but timing provenance."""
    return [
        (
            record.scenario,
            record.cache_key,
            record.status,
            record.error,
            dict(record.metrics),
        )
        for record in records
    ]


def test_batched_records_match_solo_evaluate(scenarios):
    """Solo `evaluate` and `evaluate_cells` agree on every metric."""
    cells = payloads(scenarios, "batch")
    batched = evaluate_cells(cells)
    solo = [
        evaluate(scenario, settings, cache_key=key, config_label="base", axes=axes)
        for scenario, settings, axes, key in cells
    ]
    assert metric_views(batched) == metric_views(solo)
    for record in batched + solo:
        assert "simulate" not in record.stage_reuse


def test_batch_engine_matches_event_engine_through_runner(scenarios):
    """The engine axis through `run_sweep`: batch == event on every figure."""
    result = run_sweep(
        scenarios,
        base=EvaluationSettings(architecture="mesh"),
        axes={"engine": ["event", "batch"], "buffer_capacity_packets": [2, 4]},
    )
    assert not result.failed()
    by_cell = {}
    for record in result.records:
        cell = (record.scenario, record.axes["buffer_capacity_packets"])
        by_cell.setdefault(cell, {})[record.axes["engine"]] = record
    for cell, pair in by_cell.items():
        event, batch = pair["event"], pair["batch"]
        assert dict(event.metrics) == dict(batch.metrics), cell
        assert "simulate" not in batch.stage_reuse


def test_per_cell_failure_is_isolated(scenarios):
    """One cell exceeding its drain budget fails alone, with the solo text."""
    scenario = scenarios[0]
    good = EvaluationSettings(architecture="mesh", engine="batch")
    bad = EvaluationSettings(architecture="mesh", engine="batch", max_cycles=3)
    cells = [
        (scenario, good, {"max_cycles": None}, "good"),
        (scenario, bad, {"max_cycles": 3}, "bad"),
    ]
    records = {r.cache_key: r for r in evaluate_cells(cells)}
    assert records["good"].status == "ok"
    assert records["bad"].status == STATUS_SIMULATION_FAILED
    solo = evaluate(scenario, bad, cache_key="bad-solo")
    assert solo.status == STATUS_SIMULATION_FAILED
    assert records["bad"].error == solo.error


def test_non_batch_engines_pass_through(scenarios):
    """Cells on scalar engines take the plain evaluate path, unmarked."""
    records = evaluate_cells(payloads(scenarios, "event"))
    assert all(r.status == "ok" for r in records)
    assert all("simulate" not in r.stage_reuse for r in records)

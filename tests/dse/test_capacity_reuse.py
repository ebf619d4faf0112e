"""Certified buffer-capacity reuse in the cell pipeline.

Under a :class:`~repro.dse.cache.StageContext`, a cell whose buffer
capacity exceeds the peak occupancy of an unblocked sibling run (same
scenario, fabric, traffic, technology and other simulator settings) is
served that run's metrics with ``stage_reuse["simulate"] = "capacity:<C>"``.
These tests hold served cells to real runs and check what the reuse keeps:
spans, probe metrics, the mesh baseline memo and the light ``repro.dse``
import.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dse.cache as cache_module
from repro.dse.cache import StageContext
from repro.dse.pipeline import (
    TRAFFIC_MODES,
    EvaluationSettings,
    Scenario,
    TrafficModeSpec,
    TrafficProgram,
    _replay,
    evaluate,
    evaluate_cells,
    register_traffic_mode,
)
from repro.dse.runner import plan_sweep, run_cells
from repro.dse.scenarios import (
    aes_scenario,
    planted_scenario,
    scale_free_scenario,
    tgff_scenario,
)
from repro.noc.simulator import ENGINE_EVENT, ENGINE_REFERENCE, DrainOp, RunOp, ScheduleOp
from repro.noc.traffic import acg_messages
from repro.obs import ObsSession, use_session

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def capacity_cells(scenario, base: EvaluationSettings, capacities):
    return [
        (
            scenario,
            base.merged({"buffer_capacity_packets": capacity}),
            {"buffer_capacity_packets": capacity},
            f"cell-{capacity}",
        )
        for capacity in capacities
    ]


def served_capacity(record) -> int | None:
    provenance = record.stage_reuse.get("simulate", "")
    if not provenance.startswith("capacity:"):
        return None
    return int(provenance.split(":", 1)[1])


def real_run(scenario, settings: EvaluationSettings):
    """The cell evaluated on its own: a fresh context has no donors."""
    return evaluate(scenario, settings, context=StageContext())


def rerun_donor(donor, settings: EvaluationSettings, context: StageContext):
    """A donor's run repeated at its own capacity, for its certificate."""
    scenario, topology, table = donor.anchors
    program = context.traffic_program(scenario)
    config = settings.merged({"buffer_capacity_packets": donor.capacity})
    _, simulator, _ = _replay(
        topology.name,
        topology,
        table.frozen_next_hop(),
        program,
        config.build_technology(),
        config.build_simulator_config(),
    )
    return simulator.engine_info()


def result_view(record) -> dict[str, object]:
    """Everything a record says about its cell, timings excluded."""
    view = json.loads(record.to_json())
    for timing in ("runtime_seconds", "stage_seconds"):
        view.pop(timing)
    view["search_statistics"].pop("elapsed_seconds", None)
    return view


class TestServedCells:
    def test_blocked_runs_never_serve(self):
        # on the mesh, capacities 1 and 2 block; capacity 3 peaks at 2
        scenario = planted_scenario(num_nodes=12, seed=11)
        base = EvaluationSettings(architecture="mesh")
        context = StageContext()
        records = evaluate_cells(capacity_cells(scenario, base, (1, 2, 3, 4, 8)), context)
        assert [served_capacity(record) for record in records] == [None, None, None, 3, 3]
        donors = [donor for group in context.capacity_donors.values() for donor in group]
        assert [(donor.capacity, donor.peak_occupancy) for donor in donors] == [(3, 2)]
        for record, capacity in zip(records, (1, 2, 3, 4, 8)):
            expected = real_run(scenario, base.merged({"buffer_capacity_packets": capacity}))
            assert record.metrics == expected.metrics

    def test_aes_capacity_siblings_are_served(self):
        scenario = aes_scenario(blocks=1)
        for architecture in ("mesh", "custom"):
            base = EvaluationSettings(architecture=architecture)
            records = evaluate_cells(
                capacity_cells(scenario, base, (2, 4, 8)), StageContext()
            )
            assert [record.stage_reuse.get("simulate") for record in records] == [
                None,
                "capacity:2",
                "capacity:2",
            ]
            for record, capacity in zip(records, (2, 4, 8)):
                expected = real_run(
                    scenario, base.merged({"buffer_capacity_packets": capacity})
                )
                assert record.metrics == expected.metrics

    def test_no_context_runs_under_a_fresh_one(self):
        scenario = aes_scenario(blocks=1)
        base = EvaluationSettings(architecture="mesh")
        cells = capacity_cells(scenario, base, (2, 4, 8))
        records = evaluate_cells(cells)
        assert [served_capacity(record) for record in records] == [None, 2, 2]
        assert [result_view(record) for record in records] == [
            result_view(record) for record in evaluate_cells(cells, StageContext())
        ]

    def test_solo_calls_sharing_a_context_serve_siblings(self):
        scenario = aes_scenario(blocks=1)
        base = EvaluationSettings(architecture="mesh")
        context = StageContext()
        first, second = (
            evaluate(scenario, base.merged({"buffer_capacity_packets": capacity}), context=context)
            for capacity in (2, 4)
        )
        assert first.stage_reuse == {}
        assert second.stage_reuse == {"simulate": "capacity:2"}
        expected = real_run(scenario, base.merged({"buffer_capacity_packets": 4}))
        assert second.metrics == expected.metrics

    def test_parallel_workers_serve_the_same_siblings_as_serial(self):
        cells = plan_sweep(
            [aes_scenario(blocks=1)],
            axes={"architecture": ("mesh", "custom"), "buffer_capacity_packets": (2, 4, 8)},
        )
        serial = run_cells(cells)
        parallel = run_cells(cells, parallel=True, max_workers=2)
        assert [result_view(record) for record in parallel.records] == [
            result_view(record) for record in serial.records
        ]
        assert [served_capacity(record) for record in serial.records] == [
            None, 2, 2, None, 2, 2
        ]


scenario_builders = st.one_of(
    st.builds(planted_scenario, st.just(12), st.integers(0, 40)),
    st.builds(tgff_scenario, st.just(10), st.integers(0, 40)),
    st.builds(scale_free_scenario, st.just(12), st.integers(0, 40)),
)


@pytest.mark.differential
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scenario=scenario_builders,
    repetitions=st.integers(1, 2),
    architecture=st.sampled_from(["mesh", "custom"]),
    engine=st.sampled_from([ENGINE_EVENT, ENGINE_REFERENCE]),
    delay=st.sampled_from([1, 2, 4]),
    capacities=st.permutations([1, 2, 3, 4, 6, 8]),
)
def test_served_cells_equal_real_runs(
    scenario, repetitions, architecture, engine, delay, capacities
):
    scenario = replace(scenario, repetitions=repetitions)
    base = EvaluationSettings(
        architecture=architecture,
        engine=engine,
        router_pipeline_delay_cycles=delay,
        max_nodes_expanded=50,
    )
    context = StageContext()
    records = evaluate_cells(capacity_cells(scenario, base, capacities), context)
    donors = {
        donor.capacity: donor for group in context.capacity_donors.values() for donor in group
    }
    for record, capacity in zip(records, capacities):
        settings_ = base.merged({"buffer_capacity_packets": capacity})
        expected = real_run(scenario, settings_)
        assert record.status == expected.status
        assert record.metrics == expected.metrics
        donor_capacity = served_capacity(record)
        if donor_capacity is not None:
            donor = donors[donor_capacity]
            assert capacity > donor.peak_occupancy
    # every donor is certified: its run never failed a space test
    for donor in donors.values():
        info = rerun_donor(donor, base, context)
        assert info["blocked"] is False
        assert info["peak_occupancy"] == donor.peak_occupancy


def two_batch_program(scenario) -> TrafficProgram:
    """Two ACG batches with an idle stretch between them."""
    messages = tuple(acg_messages(scenario.acg, packet_size_bits=scenario.packet_size_bits))
    ops = (ScheduleOp(messages), DrainOp(), RunOp(16), ScheduleOp(messages), DrainOp())
    return TrafficProgram(ops, iterations=2)


@pytest.fixture
def two_batch_mode():
    register_traffic_mode(TrafficModeSpec("two_batches", "test mode", two_batch_program))
    yield "two_batches"
    TRAFFIC_MODES.unregister("two_batches")


class TestPluginTrafficMode:
    def test_plugin_mode_runs_the_sweep_path(self, two_batch_mode):
        scenario = Scenario(
            name="two", acg=planted_scenario(num_nodes=12, seed=11).acg, traffic=two_batch_mode
        )
        cells = plan_sweep([scenario], axes={"buffer_capacity_packets": (2, 3, 4, 8)})
        swept = run_cells(cells).records
        context = StageContext()
        solo = [
            evaluate(
                cell.scenario,
                cell.settings,
                cache_key=cell.key,
                config_label=cell.label,
                axes=cell.axes,
                context=context,
            )
            for cell in cells
        ]
        assert [result_view(record) for record in solo] == [
            result_view(record) for record in swept
        ]
        # capacity 3 runs unblocked at peak 3, so capacities 4 and 8 are served
        assert [served_capacity(record) for record in swept] == [None, None, 3, 3]
        for record, cell in zip(swept, cells):
            assert record.succeeded
            assert record.metrics == real_run(scenario, cell.settings).metrics


class TestObservability:
    def traced(self, cells, context_per_cell: bool):
        session = ObsSession.enabled()
        with use_session(session):
            if context_per_cell:
                records = [evaluate_cells([cell], StageContext())[0] for cell in cells]
            else:
                records = evaluate_cells(cells, StageContext())
        return records, session

    def test_served_cell_keeps_its_span_and_probe_metrics(self):
        cells = capacity_cells(
            aes_scenario(blocks=1), EvaluationSettings(architecture="mesh"), (2, 4, 8)
        )
        records, session = self.traced(cells, context_per_cell=False)
        assert [served_capacity(record) for record in records] == [None, 2, 2]
        simulate_spans = [
            event for event in session.tracer.export_events() if event["name"] == "dse.simulate"
        ]
        assert len(simulate_spans) == 3
        assert [span["attributes"].get("donor_capacity") for span in simulate_spans] == [
            None,
            2,
            2,
        ]
        _, unshared = self.traced(cells, context_per_cell=True)

        def noc_metrics(obs_session):
            return [
                event
                for event in obs_session.metrics.snapshot_events()
                if str(event["name"]).startswith("noc.")
            ]

        assert noc_metrics(session)  # the probe published figures at all
        assert noc_metrics(session) == noc_metrics(unshared)


class TestBaselineMemo:
    def test_mesh_fabric_is_routed_once_per_synthesis_subkey(self, monkeypatch):
        calls = []
        original = cache_module.baseline_route_stage

        def counting(scenario, settings):
            calls.append(scenario.name)
            return original(scenario, settings)

        monkeypatch.setattr(cache_module, "baseline_route_stage", counting)
        scenario = tgff_scenario(10, 7)
        cells = [
            (
                scenario,
                EvaluationSettings(
                    architecture="mesh",
                    router_pipeline_delay_cycles=delay,
                    buffer_capacity_packets=capacity,
                ),
                {},
                f"{delay}-{capacity}",
            )
            for delay in (1, 2)
            for capacity in (2, 4)
        ]
        context = StageContext()
        records = evaluate_cells(cells, context)
        assert calls == ["tgff_10_s7"]
        assert all(record.succeeded for record in records)
        assert all(record.deadlock_free is not None for record in records)


def test_importing_dse_does_not_load_the_batch_engine():
    script = "import sys, repro.dse; print('repro.noc.batch' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

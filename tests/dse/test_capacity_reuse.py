"""The simulation memo in the cell pipeline: repeated and certified runs.

Under a :class:`~repro.dse.cache.StageContext`, every finished run is kept
under everything it read but the buffer capacity (the scenario, the routed
fabric by content, the technology and the other simulator settings).  A
cell at a kept run's capacity is served that run's metrics with
``stage_reuse["simulate"] = "memory"``; a cell whose capacity exceeds the
peak occupancy of an unblocked run is served with ``"capacity:<C>"``.
These tests hold served cells to real runs and check what the reuse keeps:
the fabric key, spans, probe metrics, the mesh baseline memo and the light
``repro.dse`` import.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dse.cache as cache_module
import repro.dse.pipeline as pipeline_module
from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.dse import STATUS_SIMULATION_FAILED
from repro.dse.cache import StageContext
from repro.dse.pipeline import (
    TRAFFIC_MODES,
    EvaluationSettings,
    Scenario,
    TrafficModeSpec,
    TrafficProgram,
    _replay,
    _simulate_cell,
    evaluate,
    evaluate_cells,
    fabric_content_key,
    register_traffic_mode,
    route_stage,
    run_decomposition_search,
    synthesize_stage,
)
from repro.dse.runner import plan_sweep, run_cells
from repro.dse.scenarios import (
    aes_scenario,
    planted_scenario,
    scale_free_scenario,
    tgff_scenario,
)
from repro.exceptions import RoutingError
from repro.noc.simulator import ENGINE_EVENT, DrainOp, RunOp, ScheduleOp
from repro.noc.traffic import acg_messages
from repro.obs import ObsSession, use_session
from repro.routing.table import RoutingTable

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


def certificate(scenario, settings: EvaluationSettings) -> dict[str, object]:
    """The ``engine_info()`` of the cell's real run under a fresh context."""
    infos = []

    def replaying(*args, **kwargs):
        metrics, simulator, probe = _replay(*args, **kwargs)
        infos.append(simulator.engine_info())
        return metrics, simulator, probe

    with patch.object(pipeline_module, "_replay", replaying):
        real_run(scenario, settings)
    (info,) = infos
    return info


def kept_runs(context: StageContext) -> list:
    return [run for group in context.simulations.values() for run in group]


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
        # the memo keeps the blocked runs too; only the unblocked one donates
        runs = kept_runs(context)
        assert [(run.capacity, run.blocked) for run in runs] == [
            (1, True),
            (2, True),
            (3, False),
        ]
        assert runs[2].peak_occupancy == 2
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


def ring_fabric(order) -> tuple[Topology, RoutingTable]:
    """Four routers, a ring plus a chord into ``c``, channels added in ``order``.

    Router ``c`` takes input from ``b`` and from ``a``: the order the two
    channels are added in is its input-port (arbitration) order.
    """
    topology = Topology(name="ring", flit_width_bits=32)
    for index, node in enumerate("abcd"):
        topology.add_router(node, float(index), 0.0)
    for source, target in order:
        topology.add_channel(source, target)
    table = RoutingTable(topology)
    for path in (("a", "c"), ("b", "c"), ("d", "a", "c"), ("c", "d")):
        table.install_path(path)
    return topology, table


RING_CHANNELS = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]


def ring_scenario() -> Scenario:
    acg = ApplicationGraph(name="ring")
    for source, target in (("a", "c"), ("b", "c"), ("d", "c"), ("c", "d")):
        acg.add_communication(source, target, volume=256.0)
    return Scenario(name="ring", acg=acg)


class TestMemoKey:
    def test_equal_fabrics_synthesized_apart_are_served_from_memory(self):
        # two searches under different budgets reach one cover; each is
        # synthesized and routed on its own, outside the context's
        # architecture memo, so the simulate memo sees two fabric objects
        # with equal content
        scenario = tgff_scenario(10, 7)
        settings = EvaluationSettings()
        fabrics = []
        for budget in (400, 800):
            budgeted = settings.merged({"max_nodes_expanded": budget})
            decomposition = run_decomposition_search(scenario, budgeted)
            topology = synthesize_stage(scenario, budgeted, decomposition)
            architecture = route_stage(scenario, budgeted, decomposition, topology)
            fabrics.append((architecture.topology, architecture.routing_table))
        assert fabrics[0][0] is not fabrics[1][0]
        assert fabric_content_key(*fabrics[0]) == fabric_content_key(*fabrics[1])
        context = StageContext()
        outcomes = [_simulate_cell(scenario, settings, *fabric, context) for fabric in fabrics]
        assert [provenance for _, _, provenance in outcomes] == [None, "memory"]
        alone, _, _ = _simulate_cell(scenario, settings, *fabrics[1], StageContext())
        assert outcomes[1][0] == alone

    def test_swapped_input_ports_are_not_served(self):
        scenario = ring_scenario()
        settings = EvaluationSettings(buffer_capacity_packets=2)
        fabric = ring_fabric(RING_CHANNELS)
        copy = ring_fabric(RING_CHANNELS)
        swapped = ring_fabric(RING_CHANNELS[::-1])
        assert swapped[0].signature() == fabric[0].signature()
        assert swapped[1].entries() == fabric[1].entries()
        assert fabric_content_key(*copy) == fabric_content_key(*fabric)
        assert fabric_content_key(*swapped) != fabric_content_key(*fabric)
        context = StageContext()
        provenance = [
            _simulate_cell(scenario, settings, *built, context)[2]
            for built in (fabric, copy, swapped)
        ]
        assert provenance == [None, "memory", None]

    def test_a_blocked_run_serves_only_its_own_capacity(self):
        scenario = planted_scenario(num_nodes=12, seed=11)
        base = EvaluationSettings(architecture="mesh")
        capacities = (1, 1, 2, 3, 4)
        records = evaluate_cells(capacity_cells(scenario, base, capacities), StageContext())
        assert [record.stage_reuse.get("simulate") for record in records] == [
            None,
            "memory",
            None,
            None,
            "capacity:3",
        ]
        for record, capacity in zip(records, capacities):
            expected = real_run(scenario, base.merged({"buffer_capacity_packets": capacity}))
            assert record.metrics == expected.metrics


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
    engine=st.just(ENGINE_EVENT),
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
    # the memo keeps every run that finished, blocked or not, one per capacity
    runs = {run.capacity: run for run in kept_runs(context)}
    donors = {}
    for record, capacity in zip(records, capacities):
        settings_ = base.merged({"buffer_capacity_packets": capacity})
        expected = real_run(scenario, settings_)
        assert record.status == expected.status
        assert record.metrics == expected.metrics
        # no capacity repeats, so a served cell names a certified sibling
        assert record.stage_reuse.get("simulate") in (None, *(f"capacity:{c}" for c in runs))
        donor_capacity = served_capacity(record)
        if donor_capacity is not None:
            donor = donors[donor_capacity] = runs[donor_capacity]
            assert not donor.blocked
            assert capacity > donor.peak_occupancy
    # every donor is certified: its run never failed a space test
    for donor in donors.values():
        info = certificate(scenario, base.merged({"buffer_capacity_packets": donor.capacity}))
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


    def test_a_negative_op_fails_the_cell_before_simulating(self):
        def negative_idle_program(scenario) -> TrafficProgram:
            messages = tuple(acg_messages(scenario.acg))
            return TrafficProgram((ScheduleOp(messages), DrainOp(), RunOp(-4)), iterations=1)

        register_traffic_mode(TrafficModeSpec("negative_idle", "test mode", negative_idle_program))
        try:
            scenario = Scenario(
                name="negative",
                acg=planted_scenario(num_nodes=12, seed=11).acg,
                traffic="negative_idle",
            )
            with patch.object(pipeline_module, "_replay") as replay:
                record = evaluate(scenario, EvaluationSettings(architecture="mesh"))
        finally:
            TRAFFIC_MODES.unregister("negative_idle")
        assert record.status == STATUS_SIMULATION_FAILED
        assert "negative number of cycles" in record.error
        replay.assert_not_called()


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


class TestWiredFabrics:
    """A context wires each routed fabric once for all the runs on it."""

    def test_runs_on_one_fabric_share_its_wiring(self):
        scenario = tgff_scenario(10, 7)
        cells = [
            (
                scenario,
                EvaluationSettings(architecture="mesh", router_pipeline_delay_cycles=delay),
                {},
                f"delay-{delay}",
            )
            for delay in (1, 2, 4)
        ]
        session = ObsSession.enabled()
        context = StageContext()
        with use_session(session):
            records = evaluate_cells(cells, context)
        setups = [
            event["attributes"]["fabric"]
            for event in session.tracer.export_events()
            if event["name"] == "noc.setup"
        ]
        assert setups == ["wired", "shared", "shared"]
        (routed,) = context._fabrics.values()
        assert routed.wired.simulators == 3
        assert [record.metrics for record in records] == [
            real_run(scenario, settings).metrics for _, settings, _, _ in cells
        ]

    def test_a_mutated_table_is_wired_afresh(self):
        topology, table = ring_fabric(RING_CHANNELS)
        context = StageContext()
        wired = context.wired_fabric(topology, table)
        assert context.wired_fabric(topology, table) is wired
        with pytest.raises(RoutingError):
            wired.routing("b", "d")
        table.install_path(("b", "c", "d"))
        rewired = context.wired_fabric(topology, table)
        assert rewired is not wired
        assert rewired.routing("b", "d") == "c"  # a snapshot of the new version


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

"""Observability across the DSE stack: stage timings, pool workers, CLI."""

from __future__ import annotations

import json

import pytest

from repro.dse.__main__ import main
from repro.dse.pipeline import EvaluationSettings, evaluate
from repro.dse.runner import run_sweep
from repro.dse.scenarios import build_suite
from repro.obs import (
    ObsSession,
    Tracer,
    get_tracer,
    read_event_log,
    use_session,
)


@pytest.fixture(scope="module")
def smoke_scenarios():
    return build_suite("smoke")


class TestStageTimings:
    def test_custom_cell_records_all_stage_seconds(self, smoke_scenarios):
        record = evaluate(smoke_scenarios[0], EvaluationSettings(architecture="custom"))
        assert record.succeeded
        # one fused synthesize timing covers synthesis and routing
        assert set(record.stage_seconds) == {
            "decompose", "synthesize", "simulate", "score"
        }
        assert all(seconds >= 0.0 for seconds in record.stage_seconds.values())

    def test_mesh_cell_records_route_simulate_score(self, smoke_scenarios):
        record = evaluate(smoke_scenarios[0], EvaluationSettings(architecture="mesh"))
        assert record.succeeded
        assert set(record.stage_seconds) == {"route", "simulate", "score"}

    def test_as_row_flattens_timings_as_t_columns(self, smoke_scenarios):
        record = evaluate(smoke_scenarios[0], EvaluationSettings(architecture="mesh"))
        row = record.as_row()
        assert "t_simulate" in row
        assert row["t_simulate"] == record.stage_seconds["simulate"]

    def test_stage_seconds_round_trip_json(self, smoke_scenarios):
        from repro.dse.records import EvaluationRecord

        record = evaluate(smoke_scenarios[0], EvaluationSettings(architecture="mesh"))
        restored = EvaluationRecord.from_json(record.to_json())
        assert restored.stage_seconds == record.stage_seconds

    def test_stage_spans_emitted_when_traced(self, smoke_scenarios):
        session = ObsSession.enabled()
        with use_session(session):
            evaluate(smoke_scenarios[0], EvaluationSettings(architecture="custom"))
        names = {span.name for span in session.tracer.finished_spans()}
        assert {"dse.evaluate", "dse.decompose", "dse.simulate",
                "search.decompose"} <= names

    def test_untraced_evaluate_records_no_spans(self, smoke_scenarios):
        assert not get_tracer().enabled
        evaluate(smoke_scenarios[0], EvaluationSettings(architecture="mesh"))
        assert get_tracer().finished_spans() == []


def assert_one_status_span_per_evaluation(result, session):
    """One ``dse.evaluate`` span per evaluated cell, carrying the cell's
    final status in the exported events (a batch cell's span closes after
    prepare and receives its status once its chunk has run)."""
    spans = [
        event["attributes"]
        for event in session.tracer.export_events()
        if event["name"] == "dse.evaluate"
    ]
    assert len(spans) == result.num_evaluations == len(result.records)
    assert sorted(
        (span["scenario"], span["config"], span["status"]) for span in spans
    ) == sorted(
        (record.scenario, record.config_label, record.status)
        for record in result.records
    )


#: mesh/custom cells, half of them failing their drain budget in simulate
SPAN_AXES = {"architecture": ("mesh", "custom"), "max_cycles": (3, 100_000)}


class TestPoolWorkerSpans:
    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_parallel_sweep_reattaches_worker_spans(self, smoke_scenarios, engine):
        session = ObsSession.enabled()
        with use_session(session):
            result = run_sweep(
                smoke_scenarios,
                base=EvaluationSettings(engine=engine),
                axes=SPAN_AXES,
                parallel=True,
                max_workers=2,
            )
        assert len(result.records) == 4 * len(smoke_scenarios)
        spans = session.tracer.finished_spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        (sweep_span,) = by_name["dse.sweep"]
        # every worker's group span was adopted directly under the sweep span
        group_spans = by_name["dse.group"]
        assert group_spans
        assert all(span.parent_id == sweep_span.span_id for span in group_spans)
        # worker pids differ from the coordinator pid in the span ids
        assert any(
            span.span_id.split(".")[0] != sweep_span.span_id.split(".")[0]
            for span in group_spans
        )
        # evaluate spans hang off group spans, so the tree is fully connected
        group_ids = {span.span_id for span in group_spans}
        assert all(span.parent_id in group_ids for span in by_name["dse.evaluate"])
        assert result.num_evaluations == len(by_name["dse.evaluate"])
        assert_one_status_span_per_evaluation(result, session)

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_serial_sweep_spans_carry_status(self, smoke_scenarios, engine):
        session = ObsSession.enabled()
        with use_session(session):
            result = run_sweep(
                smoke_scenarios, base=EvaluationSettings(engine=engine), axes=SPAN_AXES
            )
        assert {record.status for record in result.records} == {"ok", "simulation_failed"}
        assert_one_status_span_per_evaluation(result, session)

    def test_parallel_sweep_ingests_worker_metrics(self, smoke_scenarios):
        session = ObsSession.enabled()
        with use_session(session):
            run_sweep(
                smoke_scenarios[:1],
                axes={"architecture": ("mesh", "custom"),
                      "router_pipeline_delay_cycles": (1, 2)},
                parallel=True,
                max_workers=2,
            )
        events = session.metrics.snapshot_events()
        assert any(event["name"] == "noc.router.delivered" for event in events)

    def test_serial_and_parallel_records_identical(self, smoke_scenarios):
        axes = {"architecture": ("mesh", "custom")}
        serial = run_sweep(smoke_scenarios[:1], axes=axes)
        session = ObsSession.enabled()
        with use_session(session):
            traced = run_sweep(smoke_scenarios[:1], axes=axes, parallel=True,
                               max_workers=2)
        for before, after in zip(serial.records, traced.records):
            assert before.metrics == after.metrics
            assert before.status == after.status


class TestCli:
    def test_run_trace_stats_pipeline(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        results = tmp_path / "results.jsonl"
        code = main([
            "run", "--suite", "smoke",
            "--axis", "architecture=mesh",
            "--results", str(results),
            "--trace", str(trace_path),
        ])
        assert code == 0
        assert "trace: wrote" in capsys.readouterr().out
        events = read_event_log(trace_path)
        names = {event["name"] for event in events if event["type"] == "span"}
        assert "dse.sweep" in names
        assert "dse.simulate" in names

        assert main(["trace", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top" in out and "dse.sweep" in out
        assert "DSE stage wall breakdown" in out
        assert "hot routers" in out

        assert main(["stats", str(trace_path), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE noc_router_delivered counter" in out

        assert main(["stats", str(trace_path)]) == 0
        assert "metrics" in capsys.readouterr().out

    def test_run_without_trace_writes_no_log(self, tmp_path, capsys):
        code = main([
            "run", "--suite", "smoke",
            "--axis", "architecture=mesh",
            "--results", str(tmp_path / "results.jsonl"),
        ])
        assert code == 0
        assert "trace: wrote" not in capsys.readouterr().out
        assert not list(tmp_path.glob("*.jsonl.trace"))

    def test_stats_unknown_format_exits_2(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text("", encoding="utf-8")
        assert main(["stats", str(trace_path), "--format", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown metrics exporter 'nope'" in err

    def test_trace_jsonl_is_sorted_key_json(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "run", "--suite", "smoke",
            "--axis", "architecture=mesh",
            "--results", str(tmp_path / "results.jsonl"),
            "--trace", str(trace_path),
        ])
        assert code == 0
        for line in trace_path.read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            assert list(event) == sorted(event)


SPAN = {"type": "span", "name": "dse.route", "span_id": "1.1", "parent_id": None,
        "start_s": 0.0, "duration_s": 0.5, "attributes": {}}
COUNTER = {"type": "metric", "kind": "counter", "name": "noc.router.delivered",
           "labels": {"router": "3"}, "value": 7.0}


class TestBadEventLogs:
    """``trace`` and ``stats`` reject a bad event log with ``error:`` and exit 2."""

    def write(self, tmp_path, *lines: str):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return path

    def assert_rejected(self, capsys, argv, *fragments: str) -> None:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        for fragment in fragments:
            assert fragment in captured.err

    def test_a_good_log_still_renders(self, tmp_path, capsys):
        path = self.write(tmp_path, json.dumps(SPAN), json.dumps(COUNTER))
        assert main(["trace", str(path)]) == 0
        assert main(["stats", str(path), "--format", "prometheus"]) == 0
        assert 'noc_router_delivered{router="3"} 7' in capsys.readouterr().out

    def test_truncated_line(self, tmp_path, capsys):
        path = self.write(tmp_path, json.dumps(SPAN), json.dumps(COUNTER)[:20])
        self.assert_rejected(capsys, ["trace", str(path)], f"{path}, line 2: not JSON")

    def test_span_without_duration(self, tmp_path, capsys):
        span = {key: value for key, value in SPAN.items() if key != "duration_s"}
        path = self.write(tmp_path, json.dumps(span))
        self.assert_rejected(
            capsys, ["trace", str(path)], f"{path}, line 1: ", "no 'duration_s'"
        )

    def test_counter_without_value(self, tmp_path, capsys):
        counter = {key: value for key, value in COUNTER.items() if key != "value"}
        path = self.write(tmp_path, json.dumps(SPAN), json.dumps(counter))
        self.assert_rejected(
            capsys, ["stats", str(path), "--format", "prometheus"],
            f"{path}, line 2: ", "no 'value'",
        )

    def test_ill_typed_member(self, tmp_path, capsys):
        path = self.write(tmp_path, json.dumps({**COUNTER, "value": "7"}))
        self.assert_rejected(capsys, ["stats", str(path)], f"{path}, line 1: ", "'value'")

    @pytest.mark.parametrize(
        "name,attributes,member",
        [
            ("search.rung", {"rung": "screen", "index": "x"}, "'index'"),
            ("search.decompose", {"nodes_expanded": "many"}, "'nodes_expanded'"),
            ("search.decompose", {"branches_pruned_by": [1]}, "'branches_pruned_by'"),
        ],
        ids=["rung_index", "nodes_expanded", "branches_pruned_by"],
    )
    def test_ill_typed_span_attribute(self, tmp_path, capsys, name, attributes, member):
        span = {**SPAN, "name": name, "attributes": attributes}
        path = self.write(tmp_path, json.dumps(SPAN), json.dumps(span))
        self.assert_rejected(capsys, ["trace", str(path)], f"{path}, line 2: ", member)

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        self.assert_rejected(capsys, ["trace", str(path)], f"{path}: cannot read")
        self.assert_rejected(capsys, ["stats", str(path)], f"{path}: cannot read")


class TestSearchSpan:
    def test_search_decompose_annotations(self, smoke_scenarios):
        session = ObsSession.enabled()
        with use_session(session):
            evaluate(smoke_scenarios[0], EvaluationSettings(architecture="custom"))
        (search_span,) = [
            span for span in session.tracer.finished_spans()
            if span.name == "search.decompose"
        ]
        attributes = search_span.attributes
        for key in ("nodes_expanded", "leaves_evaluated", "vf2_fresh_matchings",
                    "vf2_cached_matchings", "transposition_hits",
                    "branches_pruned", "truncated"):
            assert key in attributes
        assert attributes["nodes_expanded"] > 0

    def test_search_span_nests_under_decompose_stage(self, smoke_scenarios):
        tracer = Tracer()
        session = ObsSession(tracer=tracer)
        with use_session(session):
            evaluate(smoke_scenarios[0], EvaluationSettings(architecture="custom"))
        by_name = {span.name: span for span in tracer.finished_spans()}
        assert by_name["search.decompose"].parent_id == by_name["dse.decompose"].span_id

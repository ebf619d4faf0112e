"""Tests for the multi-fidelity guided search (`repro.dse.search`)."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

import repro.dse.pipeline as pipeline_module
import repro.dse.search as search_module
from repro.dse import get_suite, pareto_front, run_cells
from repro.dse.cache import ResultCache, decomposition_stage_key
from repro.dse.pipeline import fabric_content_key
from repro.dse.records import EvaluationRecord
from repro.dse.runner import plan_sweep
from repro.dse.search import (
    RungSpec,
    SearchConfig,
    _effective_margin,
    default_ladder,
    margin_dominated,
    run_search,
)
from repro.dse.__main__ import main
from repro.exceptions import ConfigurationError
from repro.obs import ObsSession, render_trace_summary, use_session

#: the small racing grid the runtime tests use: 3 scenarios x 4 settings
AXES = {
    "architecture": ("mesh", "custom"),
    "router_pipeline_delay_cycles": (1, 2),
}

#: a three-rung ladder with a budget-only middle rung, for promotion chains
THREE_RUNGS = (
    RungSpec("screen", budget_fraction=0.05, simulation_cap=1),
    RungSpec("confirm", budget_fraction=0.5),
    RungSpec("full"),
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def smoke():
    spec = get_suite("smoke")
    return spec.build(), spec.base_settings


def _metric_record(
    scenario: str, latency: float, energy: float, throughput: float, key: str = ""
) -> EvaluationRecord:
    return EvaluationRecord(
        scenario=scenario,
        architecture="custom",
        config_label=key or "cell",
        cache_key=key or f"{latency}/{energy}/{throughput}",
        status="ok",
        metrics={
            "avg_latency_cycles": latency,
            "energy_per_iteration_uj": energy,
            "throughput_mbps": throughput,
        },
    )


def _fronts_by_scenario(records) -> dict[str, set[str]]:
    by_scenario: dict[str, list[EvaluationRecord]] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)
    return {
        scenario: {record.cache_key for record in pareto_front(group)}
        for scenario, group in by_scenario.items()
    }


class TestRungSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RungSpec("")
        with pytest.raises(ConfigurationError):
            RungSpec("bad", budget_fraction=0.0)
        with pytest.raises(ConfigurationError):
            RungSpec("bad", budget_fraction=1.5)
        with pytest.raises(ConfigurationError):
            RungSpec("bad", simulation_cap=0)

    def test_full_fidelity_property(self):
        assert RungSpec("full").full_fidelity
        assert not RungSpec("r", overrides={"engine": "batch"}).full_fidelity
        assert not RungSpec("r", simulation_cap=1).full_fidelity
        assert not RungSpec("r", budget_fraction=0.5).full_fidelity

    def test_apply_non_binding_returns_original_cell(self, smoke):
        scenarios, base = smoke
        cell = plan_sweep(scenarios, base, AXES)[0]
        # huge cap, no overrides: nothing binds -> identical cell (and key)
        assert RungSpec("noop", simulation_cap=10**9).apply(cell) is cell

    def test_truncated_budget_keys_separately(self, smoke):
        """A budget-truncated rung variant must never satisfy the
        full-budget cache key *or* the decomposition sub-key."""
        scenarios, base = smoke
        base = base.merged({"max_nodes_expanded": 400})
        cells = plan_sweep(scenarios, base, AXES)
        # the AES scenario pins its decomposition budget (the pin wins over
        # rung overrides, exactly as over grid axes) and mesh cells
        # canonicalize decomposition knobs out of their key — pick an
        # unpinned custom cell, the kind that actually decomposes
        cell = next(
            cell for cell in cells
            if cell.settings.architecture == "custom"
            and "max_nodes_expanded" not in cell.scenario.settings_overrides
        )
        variant = RungSpec("screen", budget_fraction=0.25).apply(cell)
        assert variant.settings.max_nodes_expanded == 100
        assert variant.key != cell.key
        assert decomposition_stage_key(
            variant.scenario, variant.settings
        ) != decomposition_stage_key(cell.scenario, cell.settings)

    def test_simulator_only_rung_shares_decomposition_sub_key(self, smoke):
        """An engine-swap rung reuses the full-fidelity decomposition
        artifact: promotion pays only the incremental simulation cost."""
        scenarios, base = smoke
        cell = plan_sweep(scenarios, base, AXES)[0]
        variant = RungSpec("confirm", overrides={"engine": "batch"}).apply(cell)
        assert variant.key != cell.key
        assert decomposition_stage_key(
            variant.scenario, variant.settings
        ) == decomposition_stage_key(cell.scenario, cell.settings)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SearchConfig(ladder=())
        with pytest.raises(ConfigurationError):
            SearchConfig(ladder=(RungSpec("a"), RungSpec("a")))
        with pytest.raises(ConfigurationError):
            SearchConfig(ladder=(RungSpec("only", simulation_cap=1),))
        with pytest.raises(ConfigurationError):
            SearchConfig(margin=-0.1)
        with pytest.raises(ConfigurationError):
            SearchConfig(max_promotions=0)

    def test_default_ladder_shape(self):
        ladder = default_ladder()
        assert [rung.name for rung in ladder] == ["screen", "full"]
        assert ladder[-1].full_fidelity
        assert ladder[0].overrides == {}
        assert (ladder[0].budget_fraction, ladder[0].simulation_cap) == (0.05, 1)

    def test_full_fidelity_rung_below_top_is_rejected(self):
        """A bare middle rung re-measures the grid; the top rung would only
        re-read its results."""
        with pytest.raises(ConfigurationError, match="below the top"):
            SearchConfig(ladder=(
                RungSpec("screen", budget_fraction=0.05, simulation_cap=1),
                RungSpec("confirm"),
                RungSpec("full"),
            ))


class TestMarginDominated:
    def test_margin_zero_is_front_membership(self):
        best = _metric_record("s", 5, 1.0, 60, key="best")
        worse = _metric_record("s", 10, 2.0, 40, key="worse")
        assert margin_dominated(worse, [best])
        assert not margin_dominated(best, [best])  # self is skipped

    def test_margin_requires_factor_in_every_objective(self):
        best = _metric_record("s", 5, 1.0, 60, key="best")
        # dominated, but latency is only 10% better: a 20% margin keeps it
        close = _metric_record("s", 5.5, 2.0, 40, key="close")
        assert margin_dominated(close, [best], margin=0.0)
        assert not margin_dominated(close, [best], margin=0.20)

    def test_metric_ties_block_margin_pruning(self):
        best = _metric_record("s", 5, 1.0, 60, key="best")
        tied = _metric_record("s", 10, 2.0, 60, key="tied")  # same throughput
        assert margin_dominated(tied, [best], margin=0.0)
        assert not margin_dominated(tied, [best], margin=0.05)


class TestEffectiveMargin:
    def _cell(self, smoke):
        scenarios, base = smoke
        return plan_sweep(scenarios, base.merged({"max_nodes_expanded": 400}), AXES)[0]

    def test_exact_rung_needs_no_margin(self, smoke):
        cell = self._cell(smoke)
        rung = RungSpec("confirm", overrides={"engine": "batch"})
        record = _metric_record("s", 5, 1.0, 60)
        assert _effective_margin(record, rung, cell, 0.10) == 0.0

    def test_truncated_record_keeps_margin(self, smoke):
        cell = self._cell(smoke)
        rung = RungSpec("screen", budget_fraction=0.25)
        record = _metric_record("s", 5, 1.0, 60)
        record.search_statistics = {"truncated": True, "truncated_by": "nodes"}
        assert _effective_margin(record, rung, cell, 0.10) == 0.10

    def test_binding_simulation_cap_keeps_margin(self, smoke):
        cell = self._cell(smoke)
        rung = RungSpec("screen", simulation_cap=1)
        record = _metric_record("s", 5, 1.0, 60)
        margin = _effective_margin(record, rung, cell, 0.10)
        if cell.scenario.with_simulation_cap(1) is cell.scenario:
            assert margin == 0.0  # cap did not bind for this scenario
        else:
            assert margin == 0.10

    def test_non_exact_override_keeps_margin(self, smoke):
        cell = self._cell(smoke)
        rung = RungSpec("cheap", overrides={"buffer_capacity_packets": 1})
        record = _metric_record("s", 5, 1.0, 60)
        assert _effective_margin(record, rung, cell, 0.10) == 0.10


class TestRunSearch:
    def test_front_parity_with_fewer_top_rung_evaluations(self, smoke):
        scenarios, base = smoke
        exhaustive = run_cells(plan_sweep(scenarios, base, AXES))
        expected = _fronts_by_scenario(
            record for record in exhaustive.records if record.succeeded
        )
        result = run_search(scenarios, base, AXES)
        assert _fronts_by_scenario(result.front_records()) == expected
        assert result.grid_cells == 12
        assert result.cells_seeded == 12
        assert 0 < result.top_rung_evaluations < result.grid_cells
        assert result.top_rung_saved == result.grid_cells - result.top_rung_evaluations
        assert result.failed() == []
        assert "guided search: ladder" in result.describe()

    def test_provenance_on_every_record(self, smoke):
        scenarios, base = smoke
        result = run_search(scenarios, base, AXES, config=SearchConfig(ladder=THREE_RUNGS))
        assert len(result.records) == 12
        for record in result.records:
            assert record.search["rung"] in {"screen", "confirm", "full"}
            assert record.search["seed"] == 0
        finished = result.full_fidelity_records()
        assert finished and all(
            record.search["promoted_from"] == "confirm" for record in finished
        )
        pruned = [record for record in result.records if record.search.get("pruned_at")]
        assert pruned and all(record.low_fidelity for record in pruned)
        # the promotion log names real rung boundaries, in order
        assert result.promotions
        assert {entry["from"] for entry in result.promotions} == {"screen", "confirm"}

    def test_deterministic_and_parallel_stable(self, smoke):
        scenarios, base = smoke
        runs = [
            run_search(scenarios, base, AXES),
            run_search(scenarios, base, AXES),
            run_search(scenarios, base, AXES, parallel=True, max_workers=2),
        ]
        baseline = runs[0]
        for other in runs[1:]:
            assert other.promotions == baseline.promotions
            assert other.rung_counts == baseline.rung_counts
            assert [record.cache_key for record in other.front_records()] == [
                record.cache_key for record in baseline.front_records()
            ]

    def test_seed_changes_tiebreak_not_outcome(self, smoke):
        scenarios, base = smoke
        a = run_search(scenarios, base, AXES, config=SearchConfig(seed=0))
        b = run_search(scenarios, base, AXES, config=SearchConfig(seed=99))
        # the promoted *set* is seed-independent; only ordering may differ
        assert {entry["cell"] for entry in a.promotions} == {
            entry["cell"] for entry in b.promotions
        }
        assert _fronts_by_scenario(a.front_records()) == _fronts_by_scenario(
            b.front_records()
        )

    def test_max_promotions_caps_each_rung(self, smoke):
        scenarios, base = smoke
        result = run_search(
            scenarios, base, AXES, config=SearchConfig(max_promotions=1)
        )
        for count in result.promoted.values():
            assert count <= len(scenarios)  # one design point per scenario
        assert result.top_rung_evaluations <= len(scenarios)

    def test_cached_records_carry_search_provenance(self, smoke, tmp_path):
        scenarios, base = smoke
        cache = ResultCache(tmp_path / "results.jsonl")
        result = run_search(scenarios, base, AXES, cache=cache)
        cached = ResultCache(tmp_path / "results.jsonl").load()
        assert cached
        for record in result.records:
            stored = cached[record.cache_key]
            assert stored.search.get("rung") == record.search.get("rung")
            assert stored.search.get("pruned_at") == record.search.get("pruned_at")
        # a re-run over the same cache re-evaluates nothing
        again = run_search(scenarios, base, AXES, cache=cache)
        assert sum(sweep.num_evaluations for sweep in again.sweeps) == 0
        assert again.promotions == result.promotions

    def test_guided_search_imports_no_numpy(self):
        """The default ladder runs every rung on the scalar event engine, so
        a guided search never loads the batch engine's numpy dependency."""
        script = (
            "import sys; from repro.dse import get_suite, run_search, SearchConfig; "
            "spec = get_suite('smoke'); "
            "run_search(spec.build(), spec.base_settings, spec.default_axes, "
            "config=SearchConfig()); "
            "print('numpy' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC)},
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_single_rung_ladder_is_the_exhaustive_sweep(self, smoke):
        scenarios, base = smoke
        config = SearchConfig(ladder=(RungSpec("full"),))
        result = run_search(scenarios, base, AXES, config=config)
        assert result.top_rung_evaluations == result.grid_cells
        assert result.promotions == []
        exhaustive = run_cells(plan_sweep(scenarios, base, AXES))
        assert _fronts_by_scenario(result.front_records()) == _fronts_by_scenario(
            record for record in exhaustive.records if record.succeeded
        )


def _record_view(record: EvaluationRecord) -> dict[str, object]:
    """What a record measured, without timings or stage provenance."""
    statistics = dict(record.search_statistics)
    statistics.pop("elapsed_seconds", None)
    return {
        "key": record.cache_key,
        "status": record.status,
        "metrics": record.metrics,
        "search_statistics": statistics,
        "search": record.search,
    }


class TestSharedContext:
    """A serial search runs every rung under one stage context."""

    def traced_search(self, smoke, monkeypatch, context_per_rung: bool):
        """The search, with every real simulation tagged by its rung."""
        rung = [-1]
        current: list[tuple] = []
        replays: list[tuple[int, tuple]] = []
        run_cells_ = search_module.run_cells
        simulate_cell = pipeline_module._simulate_cell
        replay = pipeline_module._replay

        def per_rung(cells, context=None, **kwargs):
            rung[0] += 1
            return run_cells_(cells, context=None if context_per_rung else context, **kwargs)

        def simulating(scenario, settings, topology, table, context):
            config = astuple(settings.build_simulator_config())
            fabric = fabric_content_key(topology, table)
            current[:] = [(id(scenario), fabric, settings.technology, config)]
            return simulate_cell(scenario, settings, topology, table, context)

        def replaying(*args, **kwargs):
            replays.append((rung[0], current[0]))
            return replay(*args, **kwargs)

        monkeypatch.setattr(search_module, "run_cells", per_rung)
        monkeypatch.setattr(pipeline_module, "_simulate_cell", simulating)
        monkeypatch.setattr(pipeline_module, "_replay", replaying)
        scenarios, base = smoke
        result = run_search(scenarios, base, AXES)
        monkeypatch.undo()
        return result, replays

    def test_full_rung_simulates_no_run_the_screen_made(self, smoke, monkeypatch):
        shared, replays = self.traced_search(smoke, monkeypatch, context_per_rung=False)
        unshared, unshared_replays = self.traced_search(
            smoke, monkeypatch, context_per_rung=True
        )
        # the same records, fronts, rung counts and promotions as rungs that
        # each build their own context
        assert [_record_view(record) for record in shared.records] == [
            _record_view(record) for record in unshared.records
        ]
        assert [record.cache_key for record in shared.front_records()] == [
            record.cache_key for record in unshared.front_records()
        ]
        assert shared.rung_counts == unshared.rung_counts == [("screen", 12), ("full", 4)]
        assert shared.promotions == unshared.promotions
        # each distinct run is simulated once per search ...
        screen = [run for index, run in replays if index == 0]
        full = [run for index, run in replays if index == 1]
        assert len(set(screen)) == len(screen)
        assert not set(full) & set(screen)
        assert len(replays) == 12
        # ... where per-rung contexts simulated the full rung's cells again
        assert len(unshared_replays) == 16
        served = [record.stage_reuse.get("simulate") for record in shared.full_fidelity_records()]
        assert served.count("memory") == 4


class TestSearchObservability:
    def test_spans_and_counters(self, smoke):
        scenarios, base = smoke
        session = ObsSession.enabled()
        with use_session(session):
            result = run_search(scenarios, base, AXES)
        spans = session.tracer.finished_spans()
        by_name: dict[str, list] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["search.sweep"]) == 1
        sweep_span = by_name["search.sweep"][0]
        assert sweep_span.attributes["top_rung_saved"] == result.top_rung_saved
        assert len(by_name["search.rung"]) == len(result.rung_counts)
        assert len(by_name["dse.sweep"]) == len(result.rung_counts)
        counters = {
            (event["name"], tuple(sorted(event.get("labels", {}).items())))
            for event in session.metrics.snapshot_events()
        }
        names = {name for name, _ in counters}
        assert {"search.cells_seeded", "search.cells_promoted",
                "search.cells_pruned", "search.top_rung_evals_saved"} <= names

    def test_trace_summary_renders_rung_table(self, smoke):
        scenarios, base = smoke
        session = ObsSession.enabled()
        with use_session(session):
            run_search(scenarios, base, AXES)
        text = render_trace_summary(session.events())
        assert "guided search rungs" in text
        assert "screen" in text and "full" in text
        assert "design points reached the top rung" in text


class TestSearchCommandLine:
    def test_search_run_and_report(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main(["search", "--suite", "smoke", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "guided search: ladder screen -> full" in out
        assert "fewer than the exhaustive grid" in out
        assert "Pareto front" in out
        assert main(["report", "--results", str(results), "--suite", "smoke"]) == 0
        report = capsys.readouterr().out
        assert "rung" in report
        assert "(pruned)" in report
        assert "low-fidelity search rungs" in report

    def test_custom_ladder_and_margin_flags(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main([
            "search", "--suite", "smoke", "--results", str(results),
            "--rung", "screen:budget_fraction=0.25,simulation_cap=1,engine=event",
            "--margin", "0.05", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        # the bare full rung is auto-appended after the custom screen rung
        assert "ladder screen -> full" in out
        assert "margin 0.05, seed 3" in out

    def test_bad_rung_spec_is_an_error(self, tmp_path, capsys):
        assert main([
            "search", "--suite", "smoke",
            "--results", str(tmp_path / "r.jsonl"),
            "--rung", "bad:budget_fraction=7",
        ]) == 2

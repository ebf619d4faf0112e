"""Tests for Pareto extraction, baseline normalization and the CLI."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings as hypothesis_settings
from hypothesis import strategies as st

from repro.dse.analysis import (
    custom_dominates_mesh,
    dominates,
    mesh_baseline_for,
    normalize_to_mesh,
    pareto_front,
    pareto_report,
    stage_reuse_summary,
    truncated_cells,
)
from repro.dse.records import EvaluationRecord
from repro.dse.__main__ import main


def _record(
    scenario: str,
    arch: str,
    latency: float,
    energy: float,
    throughput: float,
    status: str = "ok",
    axes: dict | None = None,
    key: str = "",
) -> EvaluationRecord:
    return EvaluationRecord(
        scenario=scenario,
        architecture=arch,
        config_label=f"arch={arch}",
        cache_key=key or f"{scenario}/{arch}/{latency}/{energy}/{throughput}",
        status=status,
        axes=axes if axes is not None else {"architecture": arch},
        metrics={
            "avg_latency_cycles": latency,
            "energy_per_iteration_uj": energy,
            "throughput_mbps": throughput,
        },
    )


class TestDominance:
    def test_strictly_better_dominates(self):
        better = _record("s", "custom", latency=5, energy=1.0, throughput=60)
        worse = _record("s", "mesh", latency=10, energy=2.0, throughput=45)
        assert dominates(better, worse)
        assert not dominates(worse, better)

    def test_tie_does_not_dominate(self):
        a = _record("s", "custom", latency=5, energy=1.0, throughput=60)
        b = _record("s", "mesh", latency=5, energy=1.0, throughput=60)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_trade_off_does_not_dominate(self):
        fast = _record("s", "a", latency=5, energy=3.0, throughput=60)
        frugal = _record("s", "b", latency=10, energy=1.0, throughput=45)
        assert not dominates(fast, frugal)
        assert not dominates(frugal, fast)

    def test_missing_metric_never_dominates(self):
        complete = _record("s", "a", latency=5, energy=1.0, throughput=60)
        partial = EvaluationRecord(scenario="s", architecture="b", config_label="b")
        assert not dominates(complete, partial)
        assert not dominates(partial, complete)


class TestParetoFront:
    def test_front_excludes_dominated_and_failed(self):
        winner = _record("s", "custom", latency=5, energy=1.0, throughput=60)
        dominated = _record("s", "mesh", latency=10, energy=2.0, throughput=45)
        trade_off = _record("s", "mesh2", latency=4, energy=2.5, throughput=50)
        failed = _record(
            "s", "broken", latency=1, energy=0.1, throughput=999, status="simulation_failed"
        )
        front = pareto_front([winner, dominated, trade_off, failed])
        assert winner in front
        assert trade_off in front
        assert dominated not in front
        assert failed not in front


class TestBaselineNormalization:
    def test_matching_axes_preferred(self):
        mesh_d1 = _record("s", "mesh", 10, 2.0, 40,
                          axes={"architecture": "mesh", "delay": 1})
        mesh_d2 = _record("s", "mesh", 12, 2.2, 38,
                          axes={"architecture": "mesh", "delay": 2})
        custom_d2 = _record("s", "custom", 6, 1.0, 55,
                            axes={"architecture": "custom", "delay": 2})
        records = [mesh_d1, mesh_d2, custom_d2]
        assert mesh_baseline_for(custom_d2, records) is mesh_d2
        rows = normalize_to_mesh(records)
        custom_row = rows[2]
        assert custom_row["avg_latency_cycles_vs_mesh"] == pytest.approx(6 / 12)
        assert custom_row["throughput_mbps_vs_mesh"] == pytest.approx(55 / 38)

    def test_no_baseline_when_mesh_relevant_axis_differs(self):
        # the only mesh cell runs a different pipeline depth: comparing
        # against it would be misleading, so there is no baseline at all
        mesh_d1 = _record("s", "mesh", 10, 2.0, 40,
                          axes={"architecture": "mesh", "router_pipeline_delay_cycles": 1})
        custom_d3 = _record("s", "custom", 6, 1.0, 55,
                            axes={"architecture": "custom", "router_pipeline_delay_cycles": 3})
        records = [mesh_d1, custom_d3]
        assert mesh_baseline_for(custom_d3, records) is None
        assert "avg_latency_cycles_vs_mesh" not in normalize_to_mesh(records)[1]

    def test_custom_only_axis_mismatch_still_finds_baseline(self):
        # the mesh ignores the library axis, so the single mesh cell is a
        # valid baseline for every library variant of the custom architecture
        mesh = _record("s", "mesh", 10, 2.0, 40,
                       axes={"architecture": "mesh", "library": "default"})
        custom = _record("s", "custom", 6, 1.0, 55,
                         axes={"architecture": "custom", "library": "extended"})
        assert mesh_baseline_for(custom, [mesh, custom]) is mesh

    def test_fabric_variant_normalizes_against_mesh_xy_not_itself(self):
        reference = _record("s", "mesh", 10, 2.0, 40,
                            axes={"architecture": "mesh", "topology": "mesh",
                                  "routing_policy": "xy"})
        torus = _record("s", "mesh", 8, 1.8, 44,
                        axes={"architecture": "mesh", "topology": "torus",
                              "routing_policy": "xy"})
        assert mesh_baseline_for(torus, [reference, torus]) is reference
        rows = normalize_to_mesh([reference, torus])
        assert rows[1]["avg_latency_cycles_vs_mesh"] == pytest.approx(8 / 10)

    def test_fabric_sweep_without_mesh_xy_has_no_baseline(self):
        # a torus-only sweep must not self-baseline into all-1.0 ratios
        torus = _record("s", "mesh", 8, 1.8, 44,
                        axes={"architecture": "mesh", "topology": "torus",
                              "routing_policy": "dateline"})
        assert mesh_baseline_for(torus, [torus]) is None
        assert "avg_latency_cycles_vs_mesh" not in normalize_to_mesh([torus])[0]

    def test_reference_with_fabric_axes_still_matches_axisless_records(self):
        # a mesh+XY cell from a fabrics-suite sweep carries topology/policy
        # axes; a custom record from another sweep does not — the mesh-
        # relevant fallback must still pair them up
        reference = _record("s", "mesh", 10, 2.0, 40,
                            axes={"architecture": "mesh", "topology": "mesh",
                                  "routing_policy": "xy"})
        custom = _record("s", "custom", 6, 1.0, 55,
                         axes={"architecture": "custom", "library": "extended"})
        assert mesh_baseline_for(custom, [reference, custom]) is reference

    def test_dominance_verdict_ignores_non_reference_fabrics(self):
        from repro.dse.analysis import custom_dominates_mesh

        reference = _record("s", "mesh", 10, 2.0, 40,
                            axes={"architecture": "mesh", "topology": "mesh",
                                  "routing_policy": "xy"})
        # a torus variant that beats custom on latency must not veto the
        # verdict: it is an alternative baseline, not "the mesh baseline"
        torus = _record("s", "mesh", 4, 3.0, 30,
                        axes={"architecture": "mesh", "topology": "torus",
                              "routing_policy": "xy"})
        custom = _record("s", "custom", 5, 1.0, 60,
                         axes={"architecture": "custom"})
        assert custom_dominates_mesh([reference, torus, custom], "s")

    def test_fabric_pinned_in_settings_is_not_a_mesh_reference(self):
        # the fabric may be selected via base settings instead of an axis:
        # the settings dict, not the axes, decides reference-ness
        torus = _record("s", "mesh", 8, 1.8, 44, axes={"architecture": "mesh"})
        torus.settings = {"topology": "torus", "routing_policy": "dateline"}
        custom = _record("s", "custom", 6, 1.0, 55, axes={"architecture": "custom"})
        assert mesh_baseline_for(custom, [torus, custom]) is None
        true_mesh = _record("s", "mesh", 10, 2.0, 40, axes={"architecture": "mesh"},
                            key="true-mesh")
        true_mesh.settings = {"topology": "mesh", "routing_policy": "xy"}
        assert mesh_baseline_for(custom, [torus, true_mesh, custom]) is true_mesh

    def test_dominance_verdict(self):
        mesh = _record("s", "mesh", 10, 2.0, 40)
        winning_custom = _record("s", "custom", 5, 1.0, 60)
        records = [mesh, winning_custom]
        assert custom_dominates_mesh(records, "s")
        assert not custom_dominates_mesh(records, "unknown")
        # a custom that trades latency for energy does not dominate
        trading = [mesh, _record("s", "custom", 15, 1.0, 60)]
        assert not custom_dominates_mesh(trading, "s")

    def test_report_renders_all_scenarios(self):
        records = [
            _record("alpha", "mesh", 10, 2.0, 40),
            _record("alpha", "custom", 5, 1.0, 60),
            _record("beta", "mesh", 8, 1.5, 50),
        ]
        text = pareto_report(records)
        assert "scenario: alpha" in text
        assert "scenario: beta" in text
        assert "custom Pareto-dominates the mesh baseline" in text
        assert "*" in text
        assert pareto_report([]) == "(no records)"


class TestTruncationFlagging:
    def test_truncated_cells_are_flagged_not_silently_mixed(self):
        mesh = _record("s", "mesh", 10, 2.0, 40)
        truncated_winner = _record("s", "custom", 5, 1.0, 60)
        truncated_winner.search_statistics = {"truncated": True, "nodes_expanded": 400}
        records = [mesh, truncated_winner]
        assert truncated_cells(records) == [truncated_winner]
        assert truncated_winner.truncated_search
        text = pareto_report(records)
        assert "trunc" in text  # the marker column materialized
        assert "hit the decomposition search budget" in text
        assert "reproducible anywhere" in text
        # the truncated cell won the front: the stronger caveat fires too
        assert "treat this frontier as approximate" in text

    def test_clean_reports_carry_no_truncation_noise(self):
        records = [_record("s", "mesh", 10, 2.0, 40), _record("s", "custom", 5, 1.0, 60)]
        text = pareto_report(records)
        assert "trunc" not in text
        assert "search budget" not in text


class TestStageReuseSummary:
    def test_counts_by_stage_and_provenance(self):
        first = _record("s", "custom", 5, 1.0, 60)
        first.stage_reuse = {"decompose": "computed", "synthesize": "computed"}
        second = _record("s", "custom", 6, 1.1, 58, key="other")
        second.stage_reuse = {"decompose": "memory", "synthesize": "memory"}
        mesh = _record("s", "mesh", 10, 2.0, 40)  # no stages: not counted
        summary = stage_reuse_summary([first, second, mesh])
        assert summary == {
            "decompose": {"computed": 1, "memory": 1},
            "synthesize": {"computed": 1, "memory": 1},
        }
        assert stage_reuse_summary([mesh]) == {}


class TestCommandLine:
    def test_run_report_and_cache_hits(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        args = ["run", "--suite", "smoke", "--results", str(results)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "12 cells: 0 cached, 12 evaluated" in first
        # the smoke grid sweeps a simulator axis (pipeline depth), so each
        # scenario's two custom cells share one decomposition search
        assert "stage reuse: 3 decomposition search(es)" in first
        assert "stage artifacts:" in first
        assert results.exists()
        assert (tmp_path / "stage_artifacts").is_dir()

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "12 cached, 0 evaluated (100% cache hits)" in second

        assert main(["report", "--results", str(results), "--suite", "smoke"]) == 0
        report = capsys.readouterr().out
        assert "scenario: aes" in report
        assert "custom Pareto-dominates the mesh baseline" in report
        assert "stage provenance" in report

    def test_run_without_artifact_store(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main(["run", "--suite", "smoke", "--results", str(results),
                     "--no-artifacts"]) == 0
        out = capsys.readouterr().out
        assert "stage artifacts:" not in out
        assert not (tmp_path / "stage_artifacts").exists()
        # in-memory stage sharing still applies within the run
        assert "stage reuse: 3 decomposition search(es)" in out

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        assert "smoke" in capsys.readouterr().out
        assert main(["list-scenarios", "--suite", "embedded"]) == 0
        out = capsys.readouterr().out
        assert "vopd" in out and "mpeg4" in out

    def test_list_fabrics(self, capsys):
        assert main(["list-fabrics"]) == 0
        out = capsys.readouterr().out
        assert "topology families" in out
        assert "routing policies" in out
        assert "compatibility" in out
        for family in ("mesh", "torus", "ring", "spidergon", "fat_tree"):
            assert family in out
        for policy in ("xy", "dateline", "up_down", "odd_even"):
            assert policy in out

    def test_run_with_fabric_flags(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main(["run", "--suite", "fabrics", "--results", str(results),
                     "--topology", "mesh,torus,ring",
                     "--routing-policy", "xy,up_down"]) == 0
        out = capsys.readouterr().out
        # 2 scenarios x 3 topologies x 2 policies = 12 cells; ring+xy fails
        assert "12 cells" in out
        assert "routing policy 'xy' does not support topology" in out
        assert main(["report", "--results", str(results)]) == 0
        report = capsys.readouterr().out
        assert "deadlock_free" in report
        assert "vc_channels_needed" in report
        assert "topology=torus" in report

    def test_report_without_results_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nothing.jsonl"
        assert main(["report", "--results", str(missing)]) == 1
        assert "no records" in capsys.readouterr().out

    def test_unknown_suite_is_an_error(self, tmp_path, capsys):
        assert main(["run", "--suite", "bogus", "--results", str(tmp_path / "r.jsonl")]) == 2


class TestSkylineEquivalence:
    """The sort-based skyline must match the brute-force O(n^2) scan."""

    @staticmethod
    def _brute_force_front(records):
        from repro.dse.analysis import (
            DEFAULT_MAXIMIZE,
            DEFAULT_MINIMIZE,
            _objective_values,
        )

        candidates = []
        for record in records:
            if not record.succeeded:
                continue
            values = _objective_values(record, DEFAULT_MINIMIZE, DEFAULT_MAXIMIZE)
            if values is not None:
                candidates.append((record, values))
        front = []
        for record, values in candidates:
            if not any(
                all(o <= v for o, v in zip(other, values))
                and any(o < v for o, v in zip(other, values))
                for _, other in candidates
            ):
                front.append(record)
        return front

    def test_duplicates_and_ties_all_kept(self):
        twin_a = _record("s", "a", latency=5, energy=1.0, throughput=60)
        twin_b = _record("s", "b", latency=5, energy=1.0, throughput=60, key="twin-b")
        dominated = _record("s", "c", latency=9, energy=2.0, throughput=40)
        front = pareto_front([twin_a, dominated, twin_b])
        assert front == [twin_a, twin_b]  # equality is not dominance
        assert front == self._brute_force_front([twin_a, dominated, twin_b])

    def test_input_order_preserved(self):
        records = [
            _record("s", "late", latency=4, energy=2.5, throughput=50),
            _record("s", "early", latency=5, energy=1.0, throughput=60),
            _record("s", "mid", latency=10, energy=2.0, throughput=45),
        ]
        front = pareto_front(records)
        assert [record.architecture for record in front] == ["late", "early"]

    @hypothesis_settings(
        max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    @given(
        rows=st.lists(
            st.tuples(
                # a tiny value pool forces ties and duplicate vectors
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(["ok", "simulation_failed"]),
                st.booleans(),  # drop the throughput metric entirely
            ),
            max_size=24,
        )
    )
    def test_matches_brute_force_on_random_records(self, rows):
        records = []
        for index, (latency, energy, throughput, status, partial) in enumerate(rows):
            record = _record(
                "s", f"a{index}", latency, float(energy), throughput,
                status=status, key=f"k{index}",
            )
            if partial:
                del record.metrics["throughput_mbps"]
            records.append(record)
        front = pareto_front(records)
        expected = self._brute_force_front(records)
        assert [id(record) for record in front] == [id(record) for record in expected]


class TestLowFidelityFlagging:
    """Satellite regression: truncated low-rung cells never reach a
    reported front silently — they carry '!' and an explicit caveat."""

    def test_pruned_low_rung_front_member_gets_strong_caveat(self):
        mesh = _record("s", "mesh", 10, 2.0, 40)
        screened = _record("s", "custom", 5, 1.0, 60)
        screened.search_statistics = {"truncated": True, "truncated_by": "nodes"}
        screened.search = {"rung": "screen", "rung_index": 0,
                           "full_fidelity": False, "pruned_at": "screen"}
        assert screened.low_fidelity and screened.approximate
        text = pareto_report([mesh, screened])
        assert "rung" in text and "screen (pruned)" in text
        assert "!" in text
        assert "low-fidelity search rungs" in text
        assert "without a completed promotion" in text
        # by-design truncation does not raise the full-fidelity budget caveat
        assert "hit the decomposition search budget" not in text

    def test_promoted_low_rung_record_is_flagged_but_not_alarming(self):
        mesh = _record("s", "mesh", 10, 2.0, 40)
        screened = _record("s", "custom", 5, 1.0, 60, key="screen-variant")
        screened.search = {"rung": "screen", "rung_index": 0, "full_fidelity": False}
        full = _record("s", "custom", 5, 1.0, 60)
        full.search = {"rung": "full", "rung_index": 1,
                       "full_fidelity": True, "promoted_from": "screen"}
        text = pareto_report([mesh, screened, full])
        assert "low-fidelity search rungs" in text
        # the promotion completed: the strong frontier warning must not fire
        assert "without a completed promotion" not in text

    def test_deterministic_truncation_wording(self):
        mesh = _record("s", "mesh", 10, 2.0, 40)
        winner = _record("s", "custom", 5, 1.0, 60)
        winner.search_statistics = {"truncated": True, "truncated_by": "nodes"}
        text = pareto_report([mesh, winner])
        assert "deterministic node/leaf budgets" in text

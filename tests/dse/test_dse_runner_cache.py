"""Tests for grid expansion, the JSONL result cache and the sweep runner."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dse.cache import PIPELINE_VERSION, ResultCache, _content_hash, cache_key
from repro.dse.pipeline import EvaluationSettings
from repro.dse.records import EvaluationRecord
from repro.dse.runner import axis_label, expand_grid, plan_sweep, run_cells, run_sweep
from repro.dse.scenarios import aes_scenario, get_suite, planted_scenario, tgff_scenario
from repro.exceptions import ConfigurationError


class TestGridExpansion:
    def test_no_axes_yields_base_cell(self):
        cells = expand_grid(EvaluationSettings(architecture="mesh"))
        assert len(cells) == 1
        assert cells[0][0] == {}
        assert cells[0][1].architecture == "mesh"

    def test_cartesian_product(self):
        cells = expand_grid(
            axes={
                "architecture": ("mesh", "custom"),
                "router_pipeline_delay_cycles": (1, 2, 3),
            }
        )
        assert len(cells) == 6
        labels = {axis_label(axes) for axes, _ in cells}
        assert "architecture=mesh,router_pipeline_delay_cycles=3" in labels
        for axes, settings in cells:
            assert settings.architecture == axes["architecture"]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(axes={"architecture": ()})


class TestCacheKey:
    def test_key_stable_for_equal_content(self):
        scenario_a = planted_scenario(num_nodes=12, seed=11)
        scenario_b = planted_scenario(num_nodes=12, seed=11)
        settings = EvaluationSettings(architecture="custom")
        assert cache_key(scenario_a, settings) == cache_key(scenario_b, settings)

    def test_key_changes_with_seed_and_settings(self):
        settings = EvaluationSettings(architecture="custom")
        base = cache_key(planted_scenario(12, 11), settings)
        assert base != cache_key(planted_scenario(12, 12), settings)
        assert base != cache_key(
            planted_scenario(12, 11), EvaluationSettings(architecture="mesh")
        )

    def test_mesh_key_ignores_decomposition_axes(self):
        scenario = tgff_scenario(num_tasks=10, seed=7)
        first = cache_key(scenario, EvaluationSettings(architecture="mesh", library="aes"))
        second = cache_key(
            scenario, EvaluationSettings(architecture="mesh", library="extended")
        )
        assert first == second

    def test_key_stable_across_processes(self):
        """The whole point of content hashing: another interpreter (fresh
        PYTHONHASHSEED) must derive the identical key."""
        scenario = planted_scenario(num_nodes=12, seed=11)
        settings = EvaluationSettings(architecture="custom")
        script = (
            "from repro.dse.cache import cache_key\n"
            "from repro.dse.pipeline import EvaluationSettings\n"
            "from repro.dse.scenarios import planted_scenario\n"
            "print(cache_key(planted_scenario(num_nodes=12, seed=11), "
            "EvaluationSettings(architecture='custom')))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
            check=True,
        )
        assert completed.stdout.strip() == cache_key(scenario, settings)


def stamped(record: EvaluationRecord) -> str:
    """The line :meth:`ResultCache.store` writes for ``record``."""
    return json.dumps({"pipeline_version": PIPELINE_VERSION, **json.loads(record.to_json())})


class TestResultCache:
    def _record(self, key: str) -> EvaluationRecord:
        return EvaluationRecord(
            scenario="s",
            architecture="mesh",
            config_label="base",
            cache_key=key,
            metrics={"total_cycles": 10.0},
        )

    def test_round_trip_and_newest_wins(self, tmp_path):
        path = tmp_path / "results.jsonl"
        cache = ResultCache(path)
        cache.store(self._record("k1"))
        updated = self._record("k1")
        updated.metrics["total_cycles"] = 20.0
        cache.store(updated)
        cache.store(self._record("k2"))

        fresh = ResultCache(path)
        assert len(fresh) == 2
        assert fresh.get("k1").metrics["total_cycles"] == 20.0
        assert fresh.get("k1").from_cache is True
        assert "k2" in fresh

    def test_corrupt_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        cache = ResultCache(path)
        cache.store(self._record("k1"))
        with path.open("a", encoding="utf-8") as stream:
            stream.write('{"scenario": "trunca\n')  # simulated crash mid-write
            stream.write("[1, 2, 3]\n")  # valid JSON, not a record object
            stream.write('"just a string"\n')
            stream.write('{"unexpected": "shape"}\n')  # object without a key
        assert len(ResultCache(path)) == 1

    def test_skipped_lines_are_counted_and_reported(self, tmp_path, capsys):
        from repro.dse.__main__ import main

        path = tmp_path / "results.jsonl"
        with path.open("w", encoding="utf-8") as stream:
            stream.write(stamped(self._record("k1")) + "\n")
            stream.write('{"scenario": "trunca\n')  # truncated
            stream.write(stamped(self._record("k2")) + "\n")
            stream.write("[1, 2, 3]\n")  # not an object
            stream.write(stamped(self._record("k3")) + "\n")
            stream.write('{"scenario": "s", "cache_key": "k4"}\n')  # fields missing
            stream.write(stamped(self._record("k5")) + "\n")
        cache = ResultCache(path)
        assert sorted(cache.load()) == ["k1", "k2", "k3", "k5"]
        assert cache.skipped_lines == 3
        assert ResultCache(tmp_path / "absent.jsonl").skipped_lines == 0

        main(["report", "--results", str(path)])
        assert "3 malformed cache line(s) skipped" in capsys.readouterr().out

    def test_version_5_stacked_line_loads_but_is_never_served(self, tmp_path, capsys):
        """A line cached before the ``stacked`` bound was deleted (pipeline
        version 5) still parses, but it is skipped as stale and no cell of
        the current version can hit it."""
        from repro.dse.__main__ import main

        scenario = planted_scenario(num_nodes=12, seed=11)
        settings = EvaluationSettings(architecture="custom")
        legacy_settings = {**settings.canonical_dict(), "lower_bound": "stacked"}
        legacy_key = _content_hash(
            {
                "pipeline_version": 5,
                "scenario": scenario.fingerprint(),
                "settings": legacy_settings,
            }
        )
        record = self._record(legacy_key)
        record.architecture = "custom"
        record.settings = legacy_settings
        record.search_statistics = {"exact_residuals_solved": 3, "truncated": False}
        path = tmp_path / "results.jsonl"
        path.write_text(record.to_json() + "\n", encoding="utf-8")

        cache = ResultCache(path)
        assert cache.load() == {}
        assert (cache.skipped_lines, cache.stale_lines) == (0, 1)
        assert PIPELINE_VERSION > 5
        assert cache_key(scenario, settings) not in cache
        sweep = run_sweep([scenario], base=settings, cache=cache)
        assert (sweep.cache_hits, sweep.cache_misses) == (0, 1)
        assert "lower_bound" not in sweep.records[0].settings
        assert "exact_residuals_solved" not in sweep.records[0].search_statistics

        main(["report", "--results", str(path)])
        assert "malformed" not in capsys.readouterr().out

    def test_records_of_another_pipeline_version_are_skipped(
        self, tmp_path, monkeypatch, capsys
    ):
        """A results file swept before and after a version bump loads,
        describes and reports only the current version's records; the
        older lines stay in the file and are counted."""
        from repro.dse import cache as cache_module
        from repro.dse.__main__ import main

        path = tmp_path / "results.jsonl"
        spec = get_suite("smoke")
        run_sweep(spec.build(), spec.base_settings, spec.default_axes, cache=ResultCache(path))
        monkeypatch.setattr(cache_module, "PIPELINE_VERSION", PIPELINE_VERSION + 1)
        sweep = run_sweep(
            spec.build(), spec.base_settings, spec.default_axes, cache=ResultCache(path)
        )
        assert len(sweep.records) == sweep.cache_misses == 12

        cache = ResultCache(path)
        assert len(cache.all_records()) == len(cache) == 12
        assert (cache.skipped_lines, cache.stale_lines) == (0, 12)
        assert cache.describe().endswith("(12 cached cells)")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 24
        main(["report", "--results", str(path)])
        assert "12 cache line(s) of another pipeline version skipped" in capsys.readouterr().out
        main(["run", "--suite", "smoke", "--results", str(path), "--no-artifacts"])
        out = capsys.readouterr().out
        assert "12 cache line(s) of another pipeline version skipped" in out
        assert "(12 cached cells)" in out

    def test_a_record_of_the_retired_reference_engine_still_loads(self, tmp_path, capsys):
        """Records stored when ``engine="reference"`` was an engine keep
        loading, and ``report`` still reads them."""
        from repro.dse.__main__ import main

        path = tmp_path / "results.jsonl"
        scenario = planted_scenario(num_nodes=12, seed=11)
        run_sweep([scenario], axes=TestRunSweep.AXES, cache=ResultCache(path))
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            payload = json.loads(line)
            payload["settings"]["engine"] = "reference"
            lines.append(json.dumps(payload))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        cache = ResultCache(path)
        records = cache.all_records()
        assert len(records) == 2 and cache.skipped_lines == 0
        assert {record.settings["engine"] for record in records} == {"reference"}
        assert main(["report", "--results", str(path)]) == 0
        assert scenario.name in capsys.readouterr().out

    def test_keyless_record_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "results.jsonl")
        with pytest.raises(ValueError):
            cache.store(self._record(""))


class TestRunSweep:
    AXES = {"architecture": ("mesh", "custom")}

    def test_second_run_is_all_cache_hits(self, tmp_path):
        scenarios = [planted_scenario(num_nodes=12, seed=11)]
        cache = ResultCache(tmp_path / "results.jsonl")
        first = run_sweep(scenarios, axes=self.AXES, cache=cache)
        assert first.num_cells == 2
        assert first.cache_misses == 2 and first.cache_hits == 0

        second = run_sweep(scenarios, axes=self.AXES, cache=ResultCache(cache.path))
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert second.cache_hit_fraction == 1.0
        assert [r.cache_key for r in first.records] == [r.cache_key for r in second.records]

    def test_bad_simulator_axis_fails_before_any_search(self, tmp_path, monkeypatch):
        """A bad simulator knob raises while the grid is planned: no
        decomposition search runs and no failure record is cached."""
        import repro.dse.cache as cache_module

        searches = []
        monkeypatch.setattr(
            cache_module, "run_decomposition_search", lambda *args: searches.append(args)
        )
        cache = ResultCache(tmp_path / "results.jsonl")
        with pytest.raises(ConfigurationError, match="at least one packet"):
            run_sweep(
                [aes_scenario()], axes={"buffer_capacity_packets": (4, 0)}, cache=cache
            )
        assert searches == []
        assert not cache.path.exists() or cache.path.read_text() == ""

    def test_cli_rejects_a_bad_simulator_axis(self, tmp_path, capsys):
        from repro.dse.__main__ import main

        results = tmp_path / "results.jsonl"
        argv = ["run", "--results", str(results), "--axis", "buffer_capacity_packets=0"]
        assert main(argv) == 2
        assert "at least one packet" in capsys.readouterr().err
        assert not results.exists() or results.read_text() == ""

    #: a bad ``--axis`` value (or, with a colon, ``--rung`` spec) -> its error
    BAD_KNOBS = {
        "max_cycles=abc": "setting max_cycles='abc' has type str",
        "max_nodes_expanded=abc": "setting max_nodes_expanded='abc' has type str",
        "mesh_tile_pitch_mm=wide": "setting mesh_tile_pitch_mm='wide' has type str",
        "require_deadlock_free=maybe": "setting require_deadlock_free='maybe' has type str",
        "max_matchings_per_primitive=0": (
            "max_matchings_per_primitive must be at least 1 or None, got 0"
        ),
        "decomposition_timeout_seconds=5": (
            "unknown settings fields: ['decomposition_timeout_seconds']"
        ),
        "screen:decomposition_timeout_seconds=2": (
            "unknown settings fields: ['decomposition_timeout_seconds']"
        ),
        "lower_bound=cost_model": "unknown settings fields: ['lower_bound']",
        "screen:lower_bound=cheapest_edge": "unknown settings fields: ['lower_bound']",
        "strategy=greedy": "unknown settings fields: ['strategy']",
        "fill_all_pairs_routing=true": "unknown settings fields: ['fill_all_pairs_routing']",
        "screen:strategy=greedy": "unknown settings fields: ['strategy']",
    }

    @pytest.mark.parametrize("axis", list(BAD_KNOBS))
    def test_cli_rejects_a_mistyped_axis(self, tmp_path, capsys, axis):
        from repro.dse.__main__ import main

        results = tmp_path / "results.jsonl"
        command, option = ("search", "--rung") if ":" in axis else ("run", "--axis")
        assert main([command, "--results", str(results), option, axis]) == 2
        assert f"error: {self.BAD_KNOBS[axis]}" in capsys.readouterr().err
        assert not results.exists() or results.read_text() == ""

    @pytest.mark.parametrize(
        "option", [["--engine", "reference"], ["--axis", "engine=reference"]]
    )
    def test_cli_rejects_the_retired_reference_engine(
        self, tmp_path, capsys, monkeypatch, option
    ):
        """``reference`` is no engine any more: the sweep exits 2 while the
        grid is planned, naming the engines there are, before any cell runs."""
        import repro.dse.cache as cache_module
        from repro.dse.__main__ import main

        searches = []
        monkeypatch.setattr(
            cache_module, "run_decomposition_search", lambda *args: searches.append(args)
        )
        results = tmp_path / "results.jsonl"
        assert main(["run", "--results", str(results), *option]) == 2
        error = capsys.readouterr().err
        assert "unknown simulator engine 'reference' (use one of ('event', 'batch'))" in error
        assert searches == []
        assert not results.exists() or results.read_text() == ""

    @pytest.mark.parametrize("command", ["run", "search"])
    def test_cli_rejects_a_worker_count_below_one(self, tmp_path, capsys, command):
        from repro.dse.__main__ import main

        results = tmp_path / "results.jsonl"
        argv = [command, "--results", str(results), "--parallel", "--workers", "0"]
        assert main(argv) == 2
        assert "worker count must be at least 1, got 0" in capsys.readouterr().err
        assert not results.exists() or results.read_text() == ""

    def test_run_cells_rejects_a_worker_count_below_one(self):
        spec = get_suite("smoke")
        cells = plan_sweep(spec.build(), spec.base_settings, spec.default_axes)
        with pytest.raises(ConfigurationError, match="at least 1"):
            run_cells(cells, parallel=True, max_workers=0)

    def test_in_process_cache_hits_are_flagged_and_unaliased(self, tmp_path):
        """A hit served by the cache that stored it reads like a reloaded one."""
        spec = get_suite("smoke")
        cells = plan_sweep(spec.build(), spec.base_settings, spec.default_axes)
        cache = ResultCache(tmp_path / "results.jsonl")
        first = run_cells(cells, cache=cache)
        assert not any(record.from_cache for record in first.records)
        second = run_cells(cells, cache=cache)
        assert second.cache_hits == len(cells) and second.num_evaluations == 0
        assert all(record.from_cache for record in second.records)
        reloaded = run_cells(cells, cache=ResultCache(cache.path))
        assert [r.to_json() for r in second.records] == [r.to_json() for r in reloaded.records]
        # the stored copy shares no mutable state with the caller's record
        first.records[0].metrics["total_cycles"] = -1.0
        assert cache.get(first.records[0].cache_key).metrics["total_cycles"] != -1.0

    def test_stored_lines_equal_the_deep_copy_serialization(self, tmp_path):
        """The 270 records of the 162-point embedded grid: every JSONL line
        is byte-identical to the ``dataclasses.asdict`` serialization, and
        the lazily read-back copy serializes to the same line."""
        spec = get_suite("embedded")
        axes = {
            "architecture": ("mesh", "custom"),
            "max_matchings_per_primitive": (1, 2, 3),
            "router_pipeline_delay_cycles": (1, 2, 4),
            "buffer_capacity_packets": (2, 4, 8),
        }
        cells = plan_sweep(spec.build(), spec.base_settings, axes)
        cache = ResultCache(tmp_path / "results.jsonl")
        result = run_cells(cells, cache=cache)
        assert len(result.records) == 270

        def deep_copy_line(record: EvaluationRecord) -> str:
            payload = dataclasses.asdict(record)
            payload.pop("from_cache")
            return json.dumps(payload, sort_keys=True)

        assert all(record.to_json() == deep_copy_line(record) for record in result.records)
        lines = cache.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == result.num_evaluations == 162
        for line in lines:
            stored = cache.get(json.loads(line)["cache_key"])
            assert stored.from_cache
            assert deep_copy_line(stored) == stored.to_json()
            assert line == stamped(stored)

    def test_records_come_back_in_plan_order(self):
        scenarios = [tgff_scenario(10, 7), planted_scenario(12, 11)]
        result = run_sweep(scenarios, axes=self.AXES)
        cells = plan_sweep(scenarios, axes=self.AXES)
        assert [record.cache_key for record in result.records] == [
            cell.key for cell in cells
        ]
        assert [record.scenario for record in result.records] == [
            "tgff_10_s7",
            "tgff_10_s7",
            "planted_12_s11",
            "planted_12_s11",
        ]

    def test_parallel_matches_serial(self):
        scenarios = [planted_scenario(num_nodes=12, seed=11), tgff_scenario(10, 7)]
        serial = run_sweep(scenarios, axes=self.AXES)
        parallel = run_sweep(scenarios, axes=self.AXES, parallel=True, max_workers=2)
        assert [record.cache_key for record in serial.records] == [
            record.cache_key for record in parallel.records
        ]
        for left, right in zip(serial.records, parallel.records):
            assert left.status == right.status
            assert left.metrics["total_cycles"] == right.metrics["total_cycles"]

    def test_per_scenario_pins_collapse_duplicate_cells(self):
        # the AES scenario pins library='aes'; sweeping the library axis must
        # therefore collapse to one custom evaluation shared by all cells
        result = run_sweep(
            [aes_scenario()],
            axes={"library": ("minimal", "default", "extended")},
        )
        assert result.num_cells == 3
        assert result.num_evaluations == 1
        assert result.cache_misses == 3  # no disk cache: every cell missed
        assert result.cache_hits == 0
        assert "2 duplicate cells shared an evaluation" in result.describe()
        assert len({record.cache_key for record in result.records}) == 1
        # each cell still reports under its own label and axes
        assert [record.config_label for record in result.records] == [
            "library=minimal",
            "library=default",
            "library=extended",
        ]
        assert [record.axes["library"] for record in result.records] == [
            "minimal",
            "default",
            "extended",
        ]

    def test_fabric_axes_collapse_for_custom_cells(self):
        # custom cells never read the fabric axes, so a topology x policy
        # sweep runs the expensive flow once and fans the fabric variants
        result = run_sweep(
            [planted_scenario(num_nodes=12, seed=11)],
            axes={
                "architecture": ("mesh", "custom"),
                "topology": ("mesh", "torus"),
                "routing_policy": ("xy", "up_down"),
            },
        )
        assert result.num_cells == 8
        # 4 distinct fabric cells + 1 shared custom evaluation
        assert result.num_evaluations == 5
        custom = [r for r in result.records if r.architecture == "custom"]
        assert len({record.cache_key for record in custom}) == 1
        fabric = [r for r in result.records if r.architecture == "mesh"]
        assert len({record.cache_key for record in fabric}) == 4
        # the deadlock gate stamped every routed cell
        assert all(record.deadlock_free is not None for record in result.records)

    def test_renamed_scenario_reuses_cache_under_new_name(self, tmp_path):
        # the content hash excludes the display name: a rename must hit the
        # cache, and the shared record must be re-labeled per cell
        cache = ResultCache(tmp_path / "results.jsonl")
        original = planted_scenario(num_nodes=12, seed=11)
        run_sweep([original], axes=self.AXES, cache=cache)

        renamed = planted_scenario(num_nodes=12, seed=11)
        renamed.name = "renamed_workload"
        rerun = run_sweep([renamed], axes=self.AXES, cache=ResultCache(cache.path))
        assert rerun.cache_hits == 2 and rerun.num_evaluations == 0
        assert all(record.scenario == "renamed_workload" for record in rerun.records)

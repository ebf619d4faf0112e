"""Tests for the shared evaluation pipeline (repro.dse.pipeline)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.dse.pipeline import (
    EvaluationSettings,
    Scenario,
    baseline_route_stage,
    build_baseline_fabric,
    evaluate,
)
from repro.dse.records import (
    STATUS_OK,
    STATUS_ROUTING_FAILED,
    STATUS_SIMULATION_FAILED,
    EvaluationRecord,
)
from repro.dse.scenarios import (
    aes_scenario,
    embedded_scenario,
    planted_scenario,
    tgff_scenario,
)
from repro.exceptions import ConfigurationError


class TestEvaluationSettings:
    def test_dict_round_trip(self):
        settings = EvaluationSettings(architecture="mesh", router_pipeline_delay_cycles=3)
        assert EvaluationSettings.from_dict(settings.as_dict()) == settings

    def test_merged_overrides_and_rejects_unknown(self):
        settings = EvaluationSettings()
        merged = settings.merged({"library": "aes", "flit_width_bits": 64})
        assert merged.library == "aes"
        assert merged.flit_width_bits == 64
        assert settings.library == "default"  # original untouched
        with pytest.raises(ConfigurationError):
            settings.merged({"not_a_field": 1})

    def test_invalid_enums_rejected(self):
        with pytest.raises(ConfigurationError):
            EvaluationSettings(architecture="torus")
        with pytest.raises(ConfigurationError):
            EvaluationSettings(strategy="simulated_annealing")
        with pytest.raises(ConfigurationError):
            EvaluationSettings(library="imaginary")

    @pytest.mark.parametrize(
        ("name", "value"), [("max_matchings_per_primitive", -1), ("max_nodes_expanded", 0)]
    )
    def test_out_of_range_budgets_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be at least 1"):
            EvaluationSettings(**{name: value})

    @pytest.mark.parametrize("name", ["cheapest_edge", "cost_model", "stacked"])
    def test_no_bound_name_to_choose(self, name):
        unknown = r"unknown settings fields: \['lower_bound'\]"
        with pytest.raises(ConfigurationError, match=unknown):
            EvaluationSettings().merged({"lower_bound": name})
        with pytest.raises(ConfigurationError, match=unknown):
            EvaluationSettings(lower_bound=name)

    def test_unknown_field_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match=r"unknown settings fields: \['engin'\]"):
            EvaluationSettings(engin="event")
        with pytest.raises(ConfigurationError, match=r"\['a', 'b'\]"):
            EvaluationSettings(architecture="mesh", b=1, a=2)

    def test_pickle_and_replace_keep_working(self):
        import pickle

        settings = EvaluationSettings(architecture="mesh", router_pipeline_delay_cycles=3)
        assert pickle.loads(pickle.dumps(settings)) == settings
        assert replace(settings, engine="batch").engine == "batch"

    def test_canonical_dict_normalizes_irrelevant_axes(self):
        mesh_a = EvaluationSettings(architecture="mesh", library="aes")
        mesh_b = EvaluationSettings(architecture="mesh", library="extended")
        assert mesh_a.canonical_dict() == mesh_b.canonical_dict()
        custom_a = EvaluationSettings(architecture="custom", mesh_tile_pitch_mm=1.0)
        custom_b = EvaluationSettings(architecture="custom", mesh_tile_pitch_mm=3.0)
        assert custom_a.canonical_dict() == custom_b.canonical_dict()
        assert custom_a.canonical_dict() != mesh_a.canonical_dict()

    def test_canonical_dict_normalizes_fabric_axes_for_custom(self):
        """A custom cell never reads the fabric family or routing policy, so
        a topology/routing_policy sweep collapses onto one custom key."""
        torus = EvaluationSettings(
            architecture="custom", topology="torus", routing_policy="up_down"
        )
        ring = EvaluationSettings(
            architecture="custom", topology="ring", routing_policy="dateline"
        )
        assert torus.canonical_dict() == ring.canonical_dict()
        mesh_torus = EvaluationSettings(architecture="mesh", topology="torus")
        mesh_ring = EvaluationSettings(architecture="mesh", topology="ring")
        assert mesh_torus.canonical_dict() != mesh_ring.canonical_dict()

    def test_invalid_fabric_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            EvaluationSettings(topology="hypercube")
        with pytest.raises(ConfigurationError):
            EvaluationSettings(routing_policy="fully_adaptive")

    def test_unknown_technology_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown technology 'nope'"):
            EvaluationSettings(technology="nope")

    @pytest.mark.parametrize("pitch", [-1.0, 0.0, -0.0, 0, float("nan"), float("inf")])
    def test_tile_pitch_must_be_positive_and_finite(self, pitch):
        with pytest.raises(ConfigurationError, match="mesh_tile_pitch_mm must be positive"):
            EvaluationSettings(mesh_tile_pitch_mm=pitch)

    @pytest.mark.parametrize(
        ("name", "value", "expected"),
        [
            ("max_cycles", "abc", "int"),
            ("max_nodes_expanded", "abc", "int | None"),
            ("mesh_tile_pitch_mm", "wide", "float"),
            ("require_deadlock_free", "maybe", "bool"),
            ("max_cycles", 2.5, "int"),
            ("buffer_capacity_packets", True, "int"),
            ("architecture", 1, "str"),
            ("max_nodes_expanded", 2.0, "int | None"),
        ],
    )
    def test_mistyped_value_rejected_naming_field_value_and_type(self, name, value, expected):
        with pytest.raises(ConfigurationError) as caught:
            EvaluationSettings(**{name: value})
        message = str(caught.value)
        assert f"{name}={value!r}" in message
        assert message.endswith(f"expected {expected}")

    def test_well_typed_values_accepted(self):
        settings = EvaluationSettings(
            max_nodes_expanded=None,
            max_matchings_per_primitive=None,
            mesh_tile_pitch_mm=3,  # an int is a valid float
            require_deadlock_free=True,
        )
        assert settings.mesh_tile_pitch_mm == 3

    def test_settings_from_a_json_cache_still_load(self, tmp_path):
        """Every stored record's settings, after a JSON round trip, rebuild
        the settings that produced it."""
        from repro.dse.cache import ResultCache, _content_hash
        from repro.dse.runner import run_sweep
        from repro.dse.scenarios import get_suite

        spec = get_suite("smoke")
        cache = ResultCache(tmp_path / "results.jsonl")
        swept = run_sweep(
            spec.build(), spec.base_settings, {"mesh_tile_pitch_mm": (2.0, 3)}, cache=cache
        )
        reloaded = ResultCache(cache.path)
        for record in swept.records:
            settings = EvaluationSettings.from_dict(reloaded.get(record.cache_key).settings)
            assert settings.as_dict() == record.settings

        # A v6 line whose settings carry the since-deleted clock knobs, and
        # a v8 line whose settings carry the since-deleted bound name; each
        # key hashes them under its own pipeline version.  Both still load,
        # but the cell is evaluated afresh instead of served.
        record = next(
            r for r in swept.records if r.architecture == "custom" and r.scenario != "aes"
        )
        scenario = next(s for s in spec.build() if s.name == record.scenario)
        fingerprint = json.dumps(scenario.fingerprint(), sort_keys=True, separators=(",", ":"))
        stale_lines = {
            6: {"isomorphism_timeout_seconds": 2.0, "decomposition_timeout_seconds": 15.0},
            8: {"lower_bound": "cost_model"},
        }
        for version, knobs in stale_lines.items():
            stale_settings = {
                **EvaluationSettings.from_dict(record.settings).canonical_dict(),
                **knobs,
            }
            stale_key = _content_hash(
                {"pipeline_version": version, "settings": stale_settings},
                scenario=fingerprint,
            )
            stale_cache = ResultCache(tmp_path / f"v{version}.jsonl")
            stale_cache.store(
                replace(record, cache_key=stale_key, settings={**record.settings, **knobs})
            )
            stale_cache = ResultCache(stale_cache.path)
            loaded = EvaluationSettings.from_dict(stale_cache.get(stale_key).settings)
            assert loaded.as_dict() == record.settings
            (rerun,) = run_sweep([scenario], spec.base_settings, {}, cache=stale_cache).records
            assert rerun.cache_key == record.cache_key != stale_key
            assert not rerun.from_cache
            assert not set(knobs) & set(rerun.settings)

    def test_gate_knob_stays_out_of_stage_keys(self):
        """The deadlock gate never changes the decomposition/synthesis
        artifacts, so it must not fragment the stage caches."""
        lax = EvaluationSettings(architecture="custom")
        strict = EvaluationSettings(architecture="custom", require_deadlock_free=True)
        assert lax.canonical_dict("synthesize") == strict.canonical_dict("synthesize")
        assert lax.canonical_dict("decompose") == strict.canonical_dict("decompose")


class TestScenario:
    def test_fingerprint_is_deterministic_across_builds(self):
        first = planted_scenario(num_nodes=12, seed=11).fingerprint()
        second = planted_scenario(num_nodes=12, seed=11).fingerprint()
        assert first == second

    def test_fingerprint_depends_on_seed_and_volumes(self):
        base = planted_scenario(num_nodes=12, seed=11).fingerprint()
        other_seed = planted_scenario(num_nodes=12, seed=12).fingerprint()
        assert base != other_seed

    def test_fingerprint_excludes_the_display_name(self):
        scenario = planted_scenario(num_nodes=12, seed=11)
        renamed = planted_scenario(num_nodes=12, seed=11)
        renamed.name = "some_other_label"
        assert scenario.fingerprint() == renamed.fingerprint()

    def test_settings_overrides_pin_cells(self):
        scenario = aes_scenario()
        settings = scenario.effective_settings(EvaluationSettings())
        assert settings.library == "aes"
        assert settings.bidirectional_links is True

    def test_invalid_traffic_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", acg=planted_scenario(12, 1).acg, traffic="gravity")

    @pytest.mark.parametrize(
        "knob",
        [
            {"packet_size_bits": 0},
            {"computation_cycles_per_phase": -1},
            {"repetitions": 1.5},
            {"computation_cycles_per_phase": 1.5},
            {"packet_size_bits": 8.5},
            {"aes_blocks": True},
            {"repetitions": "2"},
        ],
    )
    def test_invalid_traffic_knobs_rejected(self, knob):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", acg=planted_scenario(12, 1).acg, **knob)
        with pytest.raises(ConfigurationError):
            replace(aes_scenario(), **knob)


class TestBaselineMesh:
    def test_square_count_gets_exact_grid(self):
        mesh = build_baseline_fabric(aes_scenario().acg)
        assert mesh.rows == 4 and mesh.columns == 4
        assert mesh.num_routers == 16

    def test_non_square_count_is_padded(self):
        scenario = tgff_scenario(num_tasks=10, seed=7)
        mesh = build_baseline_fabric(scenario.acg)
        assert mesh.num_routers == mesh.rows * mesh.columns >= 10
        pads = [node for node in mesh.routers() if str(node).startswith("__pad")]
        assert len(pads) == mesh.num_routers - 10


class TestBaselineFabric:
    def test_every_family_builds_from_an_acg(self):
        from repro.arch.families import family_names

        acg = tgff_scenario(num_tasks=10, seed=7).acg
        for family in family_names():
            fabric = build_baseline_fabric(acg, family=family)
            for node in acg.nodes():
                assert fabric.has_router(node), (family, node)

    def test_route_stage_gate_reports_on_traffic_pairs(self):
        scenario = tgff_scenario(num_tasks=12, seed=7)
        settings = EvaluationSettings(
            architecture="mesh", topology="torus", routing_policy="dateline"
        )
        fabric, table, report = baseline_route_stage(scenario, settings)
        for source, target in scenario.acg.edges():
            assert table.route(source, target)[-1] == target
        assert report.num_channels > 0

    def test_unsupported_policy_raises_routing_error(self):
        from repro.exceptions import RoutingError

        scenario = tgff_scenario(num_tasks=12, seed=7)
        settings = EvaluationSettings(
            architecture="mesh", topology="fat_tree", routing_policy="xy"
        )
        with pytest.raises(RoutingError):
            baseline_route_stage(scenario, settings)


class TestEvaluate:
    def test_mesh_and_custom_records(self):
        scenario = planted_scenario(num_nodes=12, seed=11)
        mesh = evaluate(scenario, EvaluationSettings(architecture="mesh"))
        custom = evaluate(scenario, EvaluationSettings(architecture="custom"))
        for record in (mesh, custom):
            assert record.status == STATUS_OK
            assert record.metrics["total_cycles"] > 0
            assert record.metrics["avg_latency_cycles"] > 0
            assert record.metrics["energy_per_iteration_uj"] > 0
            assert record.metrics["throughput_mbps"] > 0
        # only the custom flow decomposes and checks constraints
        assert "decomposition_cost" in custom.metrics
        assert "decomposition_cost" not in mesh.metrics
        # ... but the CDG deadlock gate now covers every routed cell
        assert custom.deadlock_free is not None
        assert mesh.deadlock_free is True
        assert mesh.metrics["vc_channels_needed"] == 0.0
        assert custom.search_statistics.get("nodes_expanded", 0) > 0

    def test_aes_phase_traffic(self):
        record = evaluate(
            aes_scenario(),
            EvaluationSettings(architecture="custom", router_pipeline_delay_cycles=2),
        )
        assert record.status == STATUS_OK
        # the paper's decomposition: cost 28, 6 matchings, 4 remainder edges
        assert record.metrics["decomposition_cost"] == pytest.approx(28.0)
        assert record.metrics["num_matchings"] == 6
        assert record.metrics["remainder_edges"] == 4

    def test_fabric_cells_evaluate_end_to_end(self):
        scenario = planted_scenario(num_nodes=12, seed=11)
        for topology, policy in (
            ("torus", "xy"),
            ("ring", "up_down"),
            ("spidergon", "shortest_path"),
            ("fat_tree", "up_down"),
        ):
            record = evaluate(
                scenario,
                EvaluationSettings(
                    architecture="mesh", topology=topology, routing_policy=policy
                ),
            )
            assert record.status == STATUS_OK, (topology, policy, record.error)
            assert record.deadlock_free is not None
            assert "vc_channels_needed" in record.metrics
            assert record.metrics["total_cycles"] > 0

    def test_unsupported_fabric_policy_pair_is_a_result(self):
        record = evaluate(
            planted_scenario(num_nodes=12, seed=11),
            EvaluationSettings(architecture="mesh", topology="ring", routing_policy="xy"),
        )
        assert record.status == STATUS_ROUTING_FAILED
        assert "does not support" in record.error

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_require_deadlock_free_gates_cyclic_tables(self, engine):
        """A ring whose traffic closes the full rotation cycle deadlocks
        under shortest-path routing; the strict gate must fail the cell
        while the default gate records provenance and simulates."""
        from repro.core.graph import ApplicationGraph

        acg = ApplicationGraph(name="rotation")
        nodes = list(range(1, 7))
        for index, node in enumerate(nodes):
            two_ahead = nodes[(index + 2) % len(nodes)]
            acg.add_communication(node, two_ahead, volume=32.0)
        scenario = Scenario(name="rotation", acg=acg)
        base = EvaluationSettings(
            architecture="mesh", topology="ring", routing_policy="shortest_path",
            engine=engine,
        )
        lax = evaluate(scenario, base)
        assert lax.deadlock_free is False
        assert lax.metrics["vc_channels_needed"] >= 1
        strict_settings = base.merged({"require_deadlock_free": True})
        strict = evaluate(scenario, strict_settings)
        assert strict.status == STATUS_ROUTING_FAILED
        assert strict.deadlock_free is False
        assert "deadlock" in strict.error
        reference = evaluate(scenario, strict_settings.merged({"engine": "event"}))
        assert strict.error == reference.error

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_failure_becomes_data_not_exception(self, engine):
        scenario = embedded_scenario("vopd")
        # a one-cycle budget cannot drain any traffic: simulation must fail
        settings = EvaluationSettings(architecture="mesh", max_cycles=1, engine=engine)
        record = evaluate(scenario, settings)
        assert record.status == STATUS_SIMULATION_FAILED
        assert record.error
        assert not record.succeeded
        reference = evaluate(scenario, settings.merged({"engine": "event"}))
        assert record.error == reference.error

    @pytest.mark.parametrize(
        "knob",
        [
            {"buffer_capacity_packets": 0},
            {"router_pipeline_delay_cycles": 0},
            {"max_cycles": 0},
            {"engine": "warp"},
        ],
    )
    def test_bad_simulator_config_is_rejected_at_construction(self, knob):
        """Settings build their simulator config once when constructed, so a
        bad simulator knob is a caller error, never a cached cell failure."""
        with pytest.raises(ConfigurationError):
            EvaluationSettings(architecture="mesh", **knob)
        with pytest.raises(ConfigurationError):
            EvaluationSettings().merged(knob)

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_caller_bugs_still_raise(self, engine):
        """Workload failures are data; misconfiguration is an exception —
        a typo'd technology fails when the settings are built, so it is
        never cached as a simulation failure."""
        with pytest.raises(ConfigurationError, match="unknown technology 'bogus'"):
            EvaluationSettings(architecture="mesh", technology="bogus", engine=engine)

    def test_record_json_round_trip(self):
        record = evaluate(
            planted_scenario(num_nodes=12, seed=11),
            EvaluationSettings(architecture="mesh"),
            cache_key="abc123",
            config_label="arch=mesh",
            axes={"architecture": "mesh"},
        )
        clone = EvaluationRecord.from_json(record.to_json())
        assert clone.scenario == record.scenario
        assert clone.metrics == record.metrics
        assert clone.cache_key == "abc123"
        assert clone.axes == {"architecture": "mesh"}

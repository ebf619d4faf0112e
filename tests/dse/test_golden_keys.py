"""Pinned content keys: the hashes every result cache and artifact store use.

The digests below were computed from the plain per-call serialization of
the scenario fingerprint.  Sweeps and searches serialize each fingerprint
once and splice the text into the same canonical JSON, so every path --
a direct call, ``plan_sweep`` and ``RungSpec.apply`` -- must reproduce
them byte for byte; a change here invalidates every cached record.
"""

from __future__ import annotations

import pytest

from repro.dse.cache import (
    PIPELINE_VERSION,
    cache_key,
    decomposition_stage_key,
    synthesis_stage_key,
)
from repro.dse.pipeline import EvaluationSettings
from repro.dse.runner import plan_sweep
from repro.dse.scenarios import aes_scenario, embedded_scenario
from repro.dse.search import RungSpec

#: (scenario, architecture) -> (cache key, decomposition sub-key, synthesis sub-key)
GOLDEN = {
    ("aes", "mesh"): (
        "cd83703cdd5392a3372abc360c1321290fe1da8f4a7faef0b6a2b9129234b728",
        "e6c195d7f52aba5cc86653dd326c042a00c26af97c74d84b199daaa606a46043",
        "04191065ee92b845d38e854f53a0c151c7464f91dc0d03009b9a8b7fe9902d89",
    ),
    ("aes", "custom"): (
        "7f63603e0d37cc111f31b6586602a260b96649acd63d26581595f2e1e0da37c0",
        "b41af83c0afa5a85d77ea31d502110fdc9d5317408113aef928c3f864d1153fd",
        "a73345800abf45b277ec105e3b3b05a9832a0f249c17af8d0a8a47ae5292a700",
    ),
    ("mpeg4", "mesh"): (
        "6bfa37494276b6c9a2d934f708c8daba717f442d61befd680b0d16c80455354f",
        "89eb4ec1baed6180f479f1ec958a8078cf23cb66fa7c9aade47ce0ce2356bc1f",
        "ece7b421595ce1efd84f1b96d6f64bbb8c2c02b0458853a389744b749ff88512",
    ),
    ("mpeg4", "custom"): (
        "f82f49da5f212ffd9b28327abdcb9941824b00a1297de56e56bbd2710be9afd9",
        "8cf480e417c5177193b345f6a99ece2b7e1fad4d4faf5499e0fd3aac3ca3bc99",
        "017084d0e0809e624b17da098362558ad368d60b5f0843d0aae47f144d355477",
    ),
}

#: mpeg4 at three repetitions, custom at a 20-node budget: the full cell
#: and its one-iteration screen variant (same workload graph, so the same
#: stage sub-keys)
GOLDEN_REPEATED = "2e549623debebbce7637f6585f4a4ddfb599ebcc930941dc4b495d46bc871ad9"
GOLDEN_CAPPED = "a04c61a6ec857b0e449f24498c93cb1fcb50a8472e6210da34a0b4dac27ed1f1"
GOLDEN_BUDGET_DECOMPOSITION = (
    "475da785810ac80589ebd97e7fadf6d998c9498beac5cc88ba8879e98f66b3e3"
)
GOLDEN_BUDGET_SYNTHESIS = "e7a033b080cdaf88ee0a752dfba9f714a8a63b4b1427fc4e798007a9672803ac"

SCENARIOS = {"aes": lambda: aes_scenario(blocks=1), "mpeg4": lambda: embedded_scenario("mpeg4")}


def test_pipeline_version_is_unchanged():
    assert PIPELINE_VERSION == 6


@pytest.mark.parametrize("name,architecture", sorted(GOLDEN))
def test_direct_keys_match_the_pinned_digests(name, architecture):
    scenario = SCENARIOS[name]()
    settings = EvaluationSettings(architecture=architecture)
    assert (
        cache_key(scenario, settings),
        decomposition_stage_key(scenario, settings),
        synthesis_stage_key(scenario, settings),
    ) == GOLDEN[(name, architecture)]


def test_planned_cells_carry_the_pinned_digests():
    scenarios = [SCENARIOS[name]() for name in ("aes", "mpeg4")]
    cells = plan_sweep(scenarios, axes={"architecture": ("mesh", "custom")})
    for cell in cells:
        key, decomposition, synthesis = GOLDEN[(cell.scenario.name, cell.settings.architecture)]
        assert cell.key == key
        group = decomposition if cell.settings.architecture == "custom" else synthesis
        assert cell.stage_group == group


def test_rung_variants_carry_the_pinned_digests():
    scenario = embedded_scenario("mpeg4", repetitions=3)
    base = EvaluationSettings(architecture="custom")
    (cell,) = plan_sweep([scenario], base)
    screen = RungSpec("screen", budget_fraction=0.05, simulation_cap=1).apply(cell)
    assert screen.scenario.repetitions == 1
    assert screen.settings.max_nodes_expanded == 20
    assert screen.key == GOLDEN_CAPPED
    assert screen.stage_group == GOLDEN_BUDGET_DECOMPOSITION
    budget = base.merged({"max_nodes_expanded": 20})
    assert cache_key(scenario, budget) == GOLDEN_REPEATED
    assert synthesis_stage_key(screen.scenario, screen.settings) == GOLDEN_BUDGET_SYNTHESIS


def test_a_mutated_workload_changes_its_keys_between_sweeps():
    scenario = embedded_scenario("mpeg4")
    axes = {"architecture": ("mesh", "custom")}
    before = plan_sweep([scenario], axes=axes)
    source, target = scenario.acg.edges()[0]
    scenario.acg.edge_attributes(source, target)["volume"] += 64.0
    after = plan_sweep([scenario], axes=axes)
    for old, new in zip(before, after):
        assert new.key != old.key
        assert new.stage_group != old.stage_group
        assert new.key == cache_key(scenario, new.settings)

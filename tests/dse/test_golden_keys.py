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
    fingerprint_scope,
    synthesis_stage_key,
)
from repro.dse.pipeline import EvaluationSettings
from repro.dse.runner import plan_sweep
from repro.dse.scenarios import aes_scenario, embedded_scenario
from repro.dse.search import RungSpec

#: (scenario, architecture) -> (cache key, decomposition sub-key, synthesis sub-key)
GOLDEN = {
    ("aes", "mesh"): (
        "9440e6a1119481c58c300e3f2c72faecd7647fee007529b06b6f66dd8e92f142",
        "9438fa502dda3e4f6515b55f9a36e4f1c26c9eecd4776bf8561964f2361a34cc",
        "62565b7bc17fd2b84098ef4d3a60d54d27f60b9ee63dfdf1d56178d94a41b2f0",
    ),
    ("aes", "custom"): (
        "1273a8f253e56a484a4203ed5b59647346fd81d036700e40d17e46c1bb1ea087",
        "b7b7c5a206a6c95697743bfcb129fcf79c6583c8658d44a97ac03d17f8e0bbbf",
        "762ad5b78cc944fb082192706873bc2605376c087fbcd930fb5adcc0ac109e05",
    ),
    ("mpeg4", "mesh"): (
        "8122f01629faf7b0639c45bd0f7a5b51ddf22cf25f680262599e4aa827759b05",
        "0ae3f68c87a7f1994cf33bee990a6126b151b7aee85943c2e2086c3270ad62bf",
        "01f4650c62b1a4c8acbc3b23d31d75486d376fd4bb3e4c6f13271e535cbcdb1f",
    ),
    ("mpeg4", "custom"): (
        "9ae7821ffa3cbe16c8c538c2b6c009fda88649f1564d89b5ee5cc8afbdfc29fc",
        "b50e1d7d45c1f4c39c49ab4cec776c2f2b7ddf34d2b79fac615de589963f8266",
        "2f296ba7d004e63ab8a38236e30b2f0a7d6eeda33510377ce1b0a64724b6b5c1",
    ),
}

#: mpeg4 at three repetitions, custom at a 20-node budget: the full cell
#: and its one-iteration screen variant (same workload graph, so the same
#: stage sub-keys)
GOLDEN_REPEATED = "c50f9e9bb38feb4648ace19c44161dab5dae5a5d31489ca1198723dd65633985"
GOLDEN_CAPPED = "a5a91855665f5173164f6d19636ba4861bac03a4d7f6c1633b92c64045e666af"
GOLDEN_BUDGET_DECOMPOSITION = (
    "d42fe49768d22c357a4f88581aa015fc565a19a9b23823bc949ba7139544ec7c"
)
GOLDEN_BUDGET_SYNTHESIS = "d91f2c9bda3ce00170c6104a14d2239de812d3c8a685e0320a5066c8538f518e"

SCENARIOS = {"aes": lambda: aes_scenario(blocks=1), "mpeg4": lambda: embedded_scenario("mpeg4")}


def test_pipeline_version_is_unchanged():
    assert PIPELINE_VERSION == 9


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
    with fingerprint_scope():
        cells = plan_sweep(scenarios, axes={"architecture": ("mesh", "custom")})
        for cell in cells:
            assert (
                cell.key,
                decomposition_stage_key(cell.scenario, cell.settings),
                synthesis_stage_key(cell.scenario, cell.settings),
            ) == GOLDEN[(cell.scenario.name, cell.settings.architecture)]
            if cell.settings.architecture == "mesh":
                assert cell.pool_group == GOLDEN[(cell.scenario.name, "mesh")][2]


def test_rung_variants_carry_the_pinned_digests():
    scenario = embedded_scenario("mpeg4", repetitions=3)
    base = EvaluationSettings(architecture="custom")
    (cell,) = plan_sweep([scenario], base)
    screen = RungSpec("screen", budget_fraction=0.05, simulation_cap=1).apply(cell)
    assert screen.scenario.repetitions == 1
    assert screen.settings.max_nodes_expanded == 20
    assert screen.key == GOLDEN_CAPPED
    assert decomposition_stage_key(screen.scenario, screen.settings) == (
        GOLDEN_BUDGET_DECOMPOSITION
    )
    budget = base.merged({"max_nodes_expanded": 20})
    assert cache_key(scenario, budget) == GOLDEN_REPEATED
    assert synthesis_stage_key(screen.scenario, screen.settings) == GOLDEN_BUDGET_SYNTHESIS


def test_a_mutated_workload_changes_its_keys_between_sweeps():
    scenario = embedded_scenario("mpeg4")
    axes = {"architecture": ("mesh", "custom")}
    before = plan_sweep([scenario], axes=axes)
    sub_keys = [decomposition_stage_key(scenario, cell.settings) for cell in before]
    source, target = scenario.acg.edges()[0]
    scenario.acg.edge_attributes(source, target)["volume"] += 64.0
    after = plan_sweep([scenario], axes=axes)
    for old, new, sub_key in zip(before, after, sub_keys):
        assert new.key != old.key
        assert decomposition_stage_key(scenario, new.settings) != sub_key
        assert new.key == cache_key(scenario, new.settings)

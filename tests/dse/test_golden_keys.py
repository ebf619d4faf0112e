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
        "96ff5646c99289952cc20a316878bb8cc7a6e2274c7dff7f1db3947ef12b21ba",
        "2c1923c6c6b5f3e76ee5aff6f44215803e668516bd8fdc5f075716b5934ccaa3",
        "42d37cad314212823c35848dd4b946a461bc6036d280b3710f06e41d3b49c38c",
    ),
    ("aes", "custom"): (
        "28b824756517fb261a6eeb07742ed252da33e478e2bf4e67f3e57681de2c5a71",
        "84568f503f020c15a3cfe02e5a26dacbe8c0991e9140a11e47c933b5ed54c1c8",
        "63d6767b20ec9098fa92ef1986f1cb0d8837a97e39f1de0167bf144c9b7af719",
    ),
    ("mpeg4", "mesh"): (
        "0a7218cf17d1e957d512d77b77d486ffa944ea388c6cb152d0246c00b5a57ea5",
        "c185142c0c6eaa45990474cae73c28435cb1e8c3d525dd2d73b6adc78b1c8ecd",
        "7e2456968aedce0d8eae75852b7afc89f80024c17aec2a246651ab450fcdbf55",
    ),
    ("mpeg4", "custom"): (
        "7302a64362d836e6a20543afcbe05f09420d197116d2db714380f66337ed519b",
        "c9f5a078ce085a19bde31107ec8687574a6113b6b76f9c649a2b3d07ee964043",
        "3b9b079b1aa9eb76ba8d52bae707d083bfde73f6ff1c9aa9eef5c9cfc5101288",
    ),
}

#: mpeg4 at three repetitions, custom at a 20-node budget: the full cell
#: and its one-iteration screen variant (same workload graph, so the same
#: stage sub-keys)
GOLDEN_REPEATED = "56a9630c76666a595629ec1b1443f76e51fdd52f86fb91411206b12412830ed8"
GOLDEN_CAPPED = "b3ea05098e42a683fff5d5d695dc6bc768e0e11db61bdf2a20b5088a1961e7c3"
GOLDEN_BUDGET_DECOMPOSITION = (
    "4cbec09a7b5e6df3d95d10e31577b6e728fe496923a509526248f56cd985ef0a"
)
GOLDEN_BUDGET_SYNTHESIS = "7495b71d8c55f1da27a1ffdf6a745ace3115db9f9566052605c6c5f4544a4edc"

SCENARIOS = {"aes": lambda: aes_scenario(blocks=1), "mpeg4": lambda: embedded_scenario("mpeg4")}


def test_pipeline_version_is_unchanged():
    assert PIPELINE_VERSION == 7


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

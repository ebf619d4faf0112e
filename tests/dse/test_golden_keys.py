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
        "5e4475417de8ba383d0a5e4d32fe627da4fa6b296a32e5f8ce79239885495b96",
        "3916f441f7160f66364a339873fe8fed612c4c88b90afc6ba0843d09d241abd6",
        "81ddec19ee4e5dafaa60f0c28c4c1d05c0c3ee148dd3bdbcdcdcaa1cda95af7b",
    ),
    ("aes", "custom"): (
        "09b6eb566cdca9d2959e055576a8589d976411d9f92ad16cad9e439584ebca86",
        "a9570cd333bdbb2439b9626cc84f23528b9dac7196d0c67d9157d906f40e442f",
        "0fdf9757fadf8eda7a42045ed8c193597d39a422139a3c00adfe4a39faaceef0",
    ),
    ("mpeg4", "mesh"): (
        "cebb27119d249407a6c4022302e454165d9a7fad53c2f04803135f4e79d7bf27",
        "34db77b81c6dc3f4dcc22c386547f53e68b547a31fc5e839c5d7a646d4c67efa",
        "9d43af6a8550fac21a171fb47ec20787e41907b9102b5e9f35555f6293c4a680",
    ),
    ("mpeg4", "custom"): (
        "6e865eefc0b33fdd2983959a0b9bc4c16b77cee1fb40bc1aa49ac3dfd463713d",
        "5cc79948c5133749b2e577e9433ccefb9216f3b737b4ca4242f4ace5b176103b",
        "f10f463ddb3ba77c1154b1dcc0751f49679774617d8e35fdf086b263abe04f89",
    ),
}

#: mpeg4 at three repetitions, custom at a 20-node budget: the full cell
#: and its one-iteration screen variant (same workload graph, so the same
#: stage sub-keys)
GOLDEN_REPEATED = "956fc1f476c119b243592ec17c25e2942fa2ecbcbedf0cac18d78258faaecf12"
GOLDEN_CAPPED = "68d24f32532a26568acd8e0dee1d9798d0f1d2a48059475e4bc6e3846c4e069a"
GOLDEN_BUDGET_DECOMPOSITION = (
    "9152b96daf122dc9abaf9bff99f34cda0f4ff8448e9ae2774385e6fd9b052d6c"
)
GOLDEN_BUDGET_SYNTHESIS = "bf0cbdfc70504d022f264400d0b30befcefb870e51918bf79a1b439d71bd045e"

SCENARIOS = {"aes": lambda: aes_scenario(blocks=1), "mpeg4": lambda: embedded_scenario("mpeg4")}


def test_pipeline_version_is_unchanged():
    assert PIPELINE_VERSION == 8


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

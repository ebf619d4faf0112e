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
        "902826974ee0c714d390516a8011aa60c86a8b30d9aea608a56030469f9c6e38",
        "28f272be4e2b29b93a40c96ba1a32ca38f36e0608f03f8fa509e532dc8b35deb",
        "574c0eb301352c5d7374da1f59f4dbae793ad83573ec51312e645f509c9021ab",
    ),
    ("aes", "custom"): (
        "b4b074d1ae86c5bbbfcfc31f20d37be941f7cfa31ba625a7ae90c281a92acba9",
        "2508f9e0ca43d7afa6c49b90c663bf78d397af659802a31f3fa149551172a440",
        "5682d4a3377811b82df5fbe52c4eb0ad4b58d8ae8bcad32c3b60affeb7868a8f",
    ),
    ("mpeg4", "mesh"): (
        "5950315a382c3c62b8bca92ccaf68f270927b2fdea59fba8d8a7b987d6c8b69b",
        "d8609f402f15ca2410e2ad6b28cdbbf15a368b0dc0f9825548a47a425c18c852",
        "ec7c0f0d3aa1da6e1ec43156f4b60b10c5cab6bd4f08c022280ead08689bfafc",
    ),
    ("mpeg4", "custom"): (
        "514d955a71a85392d335ea4a8f4563a0aa69a6d10e27a6a87e6e6146bbf3a2fa",
        "dac6ce1a53c1c67c4f7a99aa7939eef36f775b9391934c6352a8cf0c71d802c5",
        "cd10484fd99bc98d3f283cd240be1854e8e6070ac23bd72832cb40e7315325b1",
    ),
}

#: mpeg4 at three repetitions, custom at a 20-node budget: the full cell
#: and its one-iteration screen variant (same workload graph, so the same
#: stage sub-keys)
GOLDEN_REPEATED = "c23d07e5099524bd57dd5055e2da98116531da3222ec93dbe3f265fa23991596"
GOLDEN_CAPPED = "9881b72e6aeb8ea28fb1698830a79ccdf4c9dd5e9e3bdd1f01056a1f2b085e55"
GOLDEN_BUDGET_DECOMPOSITION = (
    "d5c3c69bcdc45f3850fd5a3a3107ee57ab55171bbee5d2b3f68b81a3da88ba06"
)
GOLDEN_BUDGET_SYNTHESIS = "a23e2ebac1a05a5b3f45428c5a7c518153a839adcf136d5ab38b2f2ba7c3954b"

SCENARIOS = {"aes": lambda: aes_scenario(blocks=1), "mpeg4": lambda: embedded_scenario("mpeg4")}


def test_pipeline_version_is_unchanged():
    assert PIPELINE_VERSION == 10


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

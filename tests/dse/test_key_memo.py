"""The content-key memo of ``fingerprint_scope``: each distinct key hashed once.

Inside a scope, ``cache_key``, ``decomposition_stage_key`` and
``synthesis_stage_key`` answer a repeated (kind, fingerprint, settings
payload) from the memo.  It must return exactly what a call outside any
scope returns, tell apart every pair of settings the canonical JSON tells
apart, and die with its scope.
"""

from __future__ import annotations

import pytest

import repro.dse.cache as cache_module
from repro.dse.cache import (
    cache_key,
    decomposition_stage_key,
    fingerprint_scope,
    synthesis_stage_key,
)
from repro.dse.pipeline import EvaluationSettings
from repro.dse.runner import expand_grid, plan_sweep
from repro.dse.scenarios import get_suite

#: the explorer grid the benchmark sweeps over the embedded suite
GRID_AXES = {
    "architecture": ("mesh", "custom"),
    "max_matchings_per_primitive": (1, 2, 3),
    "router_pipeline_delay_cycles": (1, 2, 4),
    "buffer_capacity_packets": (2, 4, 8),
}

KEY_FUNCTIONS = (cache_key, decomposition_stage_key, synthesis_stage_key)


@pytest.fixture(scope="module")
def grid():
    spec = get_suite("embedded")
    scenarios = spec.build()
    return [
        (scenario, settings)
        for scenario in scenarios
        for _, settings in expand_grid(spec.base_settings, GRID_AXES)
    ]


def keys_of(cells) -> list[tuple[str, str, str]]:
    return [tuple(key(scenario, settings) for key in KEY_FUNCTIONS) for scenario, settings in cells]


def test_scoped_keys_equal_the_unscoped_ones(grid):
    outside = keys_of(grid)
    with fingerprint_scope():
        inside = keys_of(grid)
        again = keys_of(grid)
    assert inside == outside
    assert again == outside


def test_each_distinct_plan_key_is_hashed_once(grid, monkeypatch):
    hashed: list[str] = []
    original = cache_module._content_hash

    def counting(payload, **spliced):
        digest = original(payload, **spliced)
        hashed.append(digest)
        return digest

    monkeypatch.setattr(cache_module, "_content_hash", counting)
    spec = get_suite("embedded")
    cells = plan_sweep(spec.build(), spec.base_settings, GRID_AXES)
    # a mesh cell's pool group is its synthesis sub-key; a custom cell's
    # is its search basis, which hashes nothing
    mesh_groups = {cell.pool_group for cell in cells if isinstance(cell.pool_group, str)}
    distinct = {cell.key for cell in cells} | mesh_groups
    assert len(cells) == 270
    assert len(hashed) == len(set(hashed)) == len(distinct)


# 0.0 and -0.0 are the other such pair, but no settings can hold them:
# a tile pitch must be positive
@pytest.mark.parametrize("first,second", [(2, 2.0)], ids=["int-vs-float"])
def test_values_equal_in_python_but_not_in_json_keep_distinct_keys(grid, first, second):
    scenario = grid[0][0]
    pair = [
        EvaluationSettings(architecture="mesh", mesh_tile_pitch_mm=pitch)
        for pitch in (first, second)
    ]
    assert pair[0] == pair[1]  # equal and equally hashed as dataclasses
    outside = keys_of((scenario, settings) for settings in pair)
    with fingerprint_scope():
        inside = keys_of((scenario, settings) for settings in pair)
    assert inside == outside
    for kind in range(len(KEY_FUNCTIONS)):
        assert outside[0][kind] != outside[1][kind]


def test_the_memo_dies_with_its_scope(grid):
    scenario, settings = grid[0]
    assert cache_module._FINGERPRINTS.get() is None
    with fingerprint_scope():
        memo = cache_module._FINGERPRINTS.get()
        cache_key(scenario, settings)
        with fingerprint_scope():  # a nested scope shares the outer memo
            assert cache_module._FINGERPRINTS.get() is memo
        assert len(memo.digests) == 1
    assert cache_module._FINGERPRINTS.get() is None

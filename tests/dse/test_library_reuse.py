"""One built communication library per process.

Every decomposition search of a sweep asks its settings for the library.
Building it once per registered factory keeps the library's primitives and
the bound tables memoized on it (``repro.core.bounds.bound_tables``) warm
for every later search; re-registering a name must still take effect.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import bounds
from repro.core.library import default_library, minimal_library
from repro.dse.cache import StageArtifactStore
from repro.dse.pipeline import LIBRARIES, EvaluationSettings, register_library
from repro.dse.runner import run_sweep
from repro.dse.scenarios import tgff_scenario


@pytest.fixture()
def probe_library():
    """A library name registered for one test and removed afterwards."""
    name = "reuse_probe"
    register_library(name, lambda: default_library(name=name))
    yield name
    LIBRARIES.unregister(name)


def test_build_library_returns_one_instance():
    settings = EvaluationSettings(library="default")
    library = settings.build_library()
    assert settings.build_library() is library
    assert EvaluationSettings(library="default", max_nodes_expanded=7).build_library() is library
    assert EvaluationSettings(library="extended").build_library() is not library


def test_build_library_rebuilds_after_the_factory_is_replaced(probe_library):
    settings = EvaluationSettings(library=probe_library)
    first = settings.build_library()
    assert settings.build_library() is first
    assert first.name == probe_library

    register_library(probe_library, lambda: minimal_library(name="replacement"))
    second = settings.build_library()
    assert second is not first
    assert second.name == "replacement"
    assert settings.build_library() is second


def test_sweep_builds_bound_tables_once_per_library(probe_library, monkeypatch, tmp_path):
    built: Counter = Counter()
    build_tables = bounds._build_tables

    def counting(library, cost_model):
        built[(library.name, repr(cost_model))] += 1
        return build_tables(library, cost_model)

    monkeypatch.setattr(bounds, "_build_tables", counting)
    scenarios = [tgff_scenario(num_tasks=8, seed=seed) for seed in (3, 5, 7)]
    base = EvaluationSettings(architecture="custom", library=probe_library)
    result = run_sweep(
        scenarios,
        base,
        {"max_nodes_expanded": (200, 400)},
        artifacts=StageArtifactStore(tmp_path / "stage_artifacts"),
    )
    assert all(record.succeeded for record in result.records)
    assert result.decomposition_searches >= 3
    assert list(built.values()) == [1], built

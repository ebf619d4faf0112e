"""A sweep enumerates each workload graph's matchings once.

Searches that differ only in ``max_matchings_per_primitive`` share one
search basis through their :class:`StageContext` (``search_bases``, the
``memo`` of ``decompose``): a serial sweep over that axis runs each
(scenario, library entry) VF2 query once.  The basis lives and dies with
its context: a new context enumerates again, and dropping the context
frees it.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.core.isomorphism import VF2Matcher
from repro.dse.cache import StageContext
from repro.dse.pipeline import EvaluationSettings
from repro.dse.runner import plan_sweep, run_cells
from repro.dse.scenarios import tgff_scenario

SCENARIOS = [tgff_scenario(num_tasks=8, seed=seed) for seed in (3, 5)]
BASE = EvaluationSettings(architecture="custom")


@pytest.fixture()
def vf2_queries(monkeypatch) -> Counter:
    """(target graph, pattern) -> how many times VF2 enumerated it."""
    queries: Counter = Counter()
    find_all = VF2Matcher.find_all

    def counting(self, *args, **kwargs):
        queries[id(self.target), id(self.pattern)] += 1
        return find_all(self, *args, **kwargs)

    monkeypatch.setattr(VF2Matcher, "find_all", counting)
    return queries


def _cells(caps):
    return plan_sweep(SCENARIOS, BASE, {"max_matchings_per_primitive": caps})


def test_a_matchings_axis_enumerates_each_graph_once(vf2_queries):
    single = run_cells(_cells((1,)))
    once = Counter(vf2_queries)
    vf2_queries.clear()
    swept = run_cells(_cells((1, 2, 3)))
    assert single.decomposition_searches == len(SCENARIOS)
    assert swept.decomposition_searches == 3 * len(SCENARIOS)
    assert all(record.succeeded for record in swept.records)
    # one query per (scenario, library entry), as a single search makes
    assert vf2_queries == once
    assert set(vf2_queries.values()) == {1}
    assert {target for target, _ in vf2_queries} == {id(s.acg) for s in SCENARIOS}


def test_a_new_context_enumerates_again(vf2_queries):
    cells = _cells((1, 2, 3))
    first = run_cells(cells)
    run_cells(cells)  # no cache: every cell is evaluated again, in a new context
    assert first.decomposition_searches == 3 * len(SCENARIOS)
    assert set(vf2_queries.values()) == {2}


def test_the_basis_dies_with_its_context():
    context = StageContext()
    run_cells(_cells((1, 2)), context=context)
    bases = list(context.search_bases.values())
    assert len(bases) == len(SCENARIOS)
    alive = [weakref.ref(basis) for basis in bases]
    gc.collect()
    gc.disable()
    try:
        del bases, context
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()

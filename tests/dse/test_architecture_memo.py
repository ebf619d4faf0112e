"""One synthesis per distinct cover, and pool groups cut by search basis.

``StageContext.architecture_for`` keys the synthesized architecture by what
synthesize and route read: the workload graph, the ordered cover and the
synthesis options.  The ``max_matchings_per_primitive`` variants of a graph
that reach one cover share one architecture, while each record keeps the
statistics of its own search.  The runner schedules every cap of a graph
into one pool worker, so a parallel sweep serves what a serial one serves.
"""

from __future__ import annotations

from itertools import chain

import pytest

from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import replay_cover
from repro.dse.cache import StageContext, decomposition_stage_key, synthesis_stage_key
from repro.dse.pipeline import (
    EvaluationSettings,
    evaluate_cells,
    fabric_content_key,
    route_stage,
    run_decomposition_search,
    synthesize_stage,
)
from repro.dse.runner import plan_sweep, run_cells
from repro.dse.records import STAGE_COMPUTED, STAGE_REUSED_MEMORY
from repro.dse.scenarios import embedded_scenario, get_suite
from test_perfbench_boundaries import load as load_perfbench

#: caps under which the mpeg4 search reaches one cover
CAPS = (1, 2, 3)


@pytest.fixture(scope="module")
def scenario():
    return embedded_scenario("mpeg4")


def capped(cap: int, **fields) -> EvaluationSettings:
    return EvaluationSettings(max_matchings_per_primitive=cap, **fields)


def fresh_architecture(scenario, settings, decomposition):
    topology = synthesize_stage(scenario, settings, decomposition)
    return route_stage(scenario, settings, decomposition, topology)


def test_equal_covers_share_one_architecture_equal_to_a_fresh_one(scenario):
    context = StageContext()
    served = []
    for cap in CAPS:
        decomposition, _ = context.decomposition_for(scenario, capped(cap))
        architecture, provenance = context.architecture_for(scenario, capped(cap), decomposition)
        served.append((decomposition, architecture, provenance))
    covers = [decomposition.matchings for decomposition, _, _ in served]
    assert covers[0] == covers[1] == covers[2]
    assert [provenance for _, _, provenance in served] == [
        STAGE_COMPUTED,
        STAGE_REUSED_MEMORY,
        STAGE_REUSED_MEMORY,
    ]
    for decomposition, architecture, _ in served[1:]:
        assert architecture is served[0][1]
        fresh = fresh_architecture(scenario, capped(CAPS[-1]), decomposition)
        assert fabric_content_key(architecture.topology, architecture.routing_table) == (
            fabric_content_key(fresh.topology, fresh.routing_table)
        )
        assert architecture.routing_table.entries() == fresh.routing_table.entries()
        assert architecture.constraint_report.satisfied == fresh.constraint_report.satisfied
        assert architecture.deadlock_report == fresh.deadlock_report


def test_a_reordered_cover_is_synthesized_on_its_own(scenario):
    context = StageContext()
    decomposition, _ = context.decomposition_for(scenario, capped(3))
    first, _ = context.architecture_for(scenario, capped(3), decomposition)
    assert decomposition.num_matchings >= 2
    reordered = replay_cover(
        scenario.acg,
        list(reversed(decomposition.matchings)),
        LinkCountCostModel(),
        decomposition.statistics,
    )
    architecture, provenance = context.architecture_for(scenario, capped(3), reordered)
    assert provenance == STAGE_COMPUTED
    assert architecture is not first


@pytest.mark.parametrize(
    "changed",
    [{"flit_width_bits": 64}, {"bidirectional_links": True}],
    ids=["flit_width_bits", "bidirectional_links"],
)
def test_another_synthesis_option_is_synthesized_on_its_own(changed):
    scenario = embedded_scenario("mpeg4")
    context = StageContext()
    decomposition, _ = context.decomposition_for(scenario, EvaluationSettings())
    first, _ = context.architecture_for(scenario, EvaluationSettings(), decomposition)
    other = EvaluationSettings(**changed)
    architecture, provenance = context.architecture_for(scenario, other, decomposition)
    assert provenance == STAGE_COMPUTED
    assert architecture is not first
    fresh = fresh_architecture(scenario, other, decomposition)
    assert fabric_content_key(architecture.topology, architecture.routing_table) == (
        fabric_content_key(fresh.topology, fresh.routing_table)
    )
    assert fabric_content_key(first.topology, first.routing_table) != (
        fabric_content_key(fresh.topology, fresh.routing_table)
    )


def test_a_served_record_keeps_its_own_search_statistics(scenario):
    cells = [
        (scenario, capped(cap), {"max_matchings_per_primitive": cap}, str(cap)) for cap in CAPS
    ]
    records = evaluate_cells(cells, StageContext())
    assert [record.stage_reuse["synthesize"] for record in records] == [
        STAGE_COMPUTED,
        STAGE_REUSED_MEMORY,
        STAGE_REUSED_MEMORY,
    ]
    statistics = []
    for record, cap in zip(records, CAPS):
        own = run_decomposition_search(scenario, capped(cap)).statistics.as_dict()
        kept = dict(record.search_statistics)
        own.pop("elapsed_seconds")
        kept.pop("elapsed_seconds")
        assert kept == own
        statistics.append(kept)
    assert statistics[0] != statistics[-1]


def test_parallel_and_serial_matchings_sweeps_share_alike():
    scenarios = [embedded_scenario(name) for name in ("mpeg4", "vopd")]
    axes = {"max_matchings_per_primitive": CAPS, "buffer_capacity_packets": (2, 4)}
    cells = plan_sweep(scenarios, axes=axes)
    serial = run_cells(cells)
    parallel = run_cells(cells, parallel=True, max_workers=2)
    assert [record.stage_reuse for record in parallel.records] == [
        record.stage_reuse for record in serial.records
    ]
    assert any(record.stage_reuse.get("simulate") == "memory" for record in serial.records)
    assert [record.metrics for record in parallel.records] == [
        record.metrics for record in serial.records
    ]


def test_pool_groups_keep_the_serial_order_of_the_benchmark_grid():
    spec = get_suite("embedded")
    cells = plan_sweep(spec.build(), spec.base_settings, load_perfbench("workloads").GRID_AXES)
    unique = list({cell.key: cell for cell in cells}.values())

    def flattened(group_of) -> list[str]:
        groups: dict[object, list[str]] = {}
        for cell in unique:
            groups.setdefault(group_of(cell), []).append(cell.key)
        return [len(groups), *chain.from_iterable(groups.values())]

    def stage_group(cell) -> str:
        """The decomposition sub-key of a custom cell, the synthesis one of a mesh cell."""
        custom = cell.settings.architecture == "custom"
        sub_key = decomposition_stage_key if custom else synthesis_stage_key
        return sub_key(cell.scenario, cell.settings)

    by_stage = flattened(stage_group)
    by_pool = flattened(lambda cell: cell.pool_group)
    assert (by_stage[0], by_pool[0]) == (18, 10)
    assert by_pool[1:] == by_stage[1:]
    for cell in cells:
        if cell.settings.architecture == "mesh":
            assert cell.pool_group == stage_group(cell)
        else:
            library = cell.scenario.effective_settings(cell.settings).library
            assert cell.pool_group == (id(cell.scenario.acg), library)

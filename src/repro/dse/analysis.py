"""Sweep analysis: Pareto fronts, mesh-baseline normalization, reports.

The exploration's deliverable is not one number but a *frontier*: which
(architecture, configuration) cells are not dominated on the
energy / latency / throughput trade-off, and how each cell compares to
the standard-mesh baseline evaluated under identical traffic.  All
helpers operate on :class:`~repro.dse.records.EvaluationRecord` lists
as produced by the runner or loaded from the JSONL cache.

Cells whose decomposition search hit a node or leaf budget
(:attr:`~repro.dse.records.EvaluationRecord.truncated_search`) carry
approximate decompositions; :func:`pareto_report` marks them with
``!`` and prints a caveat rather than silently mixing them into fronts.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dse.pipeline import SETTINGS_READERS
from repro.dse.records import EvaluationRecord
from repro.experiments.reporting import format_table

#: default Pareto objectives (smaller is better)
DEFAULT_MINIMIZE = ("energy_per_iteration_uj", "avg_latency_cycles")
#: default Pareto objectives (larger is better)
DEFAULT_MAXIMIZE = ("throughput_mbps",)

MESH_ARCHITECTURE = "mesh"


def _objective_values(
    record: EvaluationRecord,
    minimize: Sequence[str],
    maximize: Sequence[str],
) -> list[float] | None:
    """All objectives as minimization values, or None if any is missing."""
    values: list[float] = []
    for key in minimize:
        value = record.metric(key)
        if value is None:
            return None
        values.append(value)
    for key in maximize:
        value = record.metric(key)
        if value is None:
            return None
        values.append(-value)
    return values


def dominates(
    challenger: EvaluationRecord,
    incumbent: EvaluationRecord,
    minimize: Sequence[str] = DEFAULT_MINIMIZE,
    maximize: Sequence[str] = DEFAULT_MAXIMIZE,
) -> bool:
    """True when ``challenger`` is at least as good everywhere and better somewhere."""
    left = _objective_values(challenger, minimize, maximize)
    right = _objective_values(incumbent, minimize, maximize)
    if left is None or right is None:
        return False
    return all(a <= b for a, b in zip(left, right)) and any(
        a < b for a, b in zip(left, right)
    )


def _dominates_values(left: Sequence[float], right: Sequence[float]) -> bool:
    """Strict Pareto dominance on pre-negated minimization vectors."""
    return all(a <= b for a, b in zip(left, right)) and any(
        a < b for a, b in zip(left, right)
    )


def pareto_front(
    records: Sequence[EvaluationRecord],
    minimize: Sequence[str] = DEFAULT_MINIMIZE,
    maximize: Sequence[str] = DEFAULT_MAXIMIZE,
) -> list[EvaluationRecord]:
    """The non-dominated subset of the successful records.

    Sort-filter skyline rather than the all-pairs scan: candidates are
    visited in lexicographic objective order, and a vector can only be
    dominated by one that sorts before it (dominance implies all
    coordinates <=, so the first differing coordinate is smaller).  Every
    survivor therefore only needs checking against the running front —
    O(n log n + n * |front| * d) instead of O(n^2 * d), which is what lets
    the guided searcher re-derive incumbent fronts every rung for free.

    Semantics are identical to the all-pairs definition: input order is
    preserved, failed cells and cells missing an objective are excluded,
    and records with *equal* objective vectors are all kept (equality is
    not dominance).
    """
    candidates: list[tuple[EvaluationRecord, list[float]]] = []
    for record in records:
        if not record.succeeded:
            continue
        values = _objective_values(record, minimize, maximize)
        if values is not None:
            candidates.append((record, values))
    visit_order = sorted(range(len(candidates)), key=lambda i: candidates[i][1])
    accepted = [False] * len(candidates)
    front_values: list[list[float]] = []
    seen_values: set[tuple[float, ...]] = set()
    for index in visit_order:
        values = candidates[index][1]
        if any(_dominates_values(front, values) for front in front_values):
            continue
        accepted[index] = True
        key = tuple(values)
        if key not in seen_values:  # tie groups share one front entry
            seen_values.add(key)
            front_values.append(values)
    return [record for (record, _), keep in zip(candidates, accepted) if keep]


#: axes that select a standard-fabric variant rather than an operating point
_FABRIC_AXES = ("topology", "routing_policy")

#: axes a mesh-baseline match ignores: the architecture, the fabric axes and
#: every settings field no mesh evaluation reads
_MESH_IGNORED_AXES = {"architecture", *_FABRIC_AXES} | {
    name for name, (_, readers) in SETTINGS_READERS.items() if MESH_ARCHITECTURE not in readers
}


def _non_fabric_axes(record: EvaluationRecord) -> dict[str, object]:
    """The record's axes minus the architecture/fabric-selection axes."""
    excluded = ("architecture",) + _FABRIC_AXES
    return {key: value for key, value in record.axes.items() if key not in excluded}


def _is_reference_fabric(record: EvaluationRecord) -> bool:
    """True for the canonical mesh + XY baseline cell of a sweep.

    Reads the record's effective settings (falling back to its axes for
    records cached before settings carried the fabric fields), so a fabric
    selected through base settings rather than a grid axis is still
    recognized — a torus/dateline cell is never mistaken for the mesh
    reference just because ``topology`` was not swept.
    """
    settings = record.settings or {}
    topology = settings.get("topology", record.axes.get("topology", "mesh"))
    policy = settings.get("routing_policy", record.axes.get("routing_policy", "xy"))
    return topology == "mesh" and policy == "xy"


def _mesh_relevant_axes(record: EvaluationRecord) -> dict[str, object]:
    """The record's axes restricted to fields a mesh evaluation reads.

    The fabric axes are stripped too: reference cells are mesh+XY by
    definition (:func:`_is_reference_fabric` filters them upstream), so a
    reference that swept ``topology``/``routing_policy`` must still match
    a record that never carried those axes.
    """
    return {key: value for key, value in record.axes.items() if key not in _MESH_IGNORED_AXES}


def mesh_baseline_for(
    record: EvaluationRecord, records: Sequence[EvaluationRecord]
) -> EvaluationRecord | None:
    """The mesh record measured under the same scenario and grid cell.

    Only the canonical mesh-family + XY cells qualify as baselines, so in
    a fabric sweep a torus or ring variant is normalized against the
    classic mesh at the same operating point — never against itself.  A
    sweep with no mesh+XY cell at all yields None (no ratio columns)
    rather than a misleading self-ratio of 1.0.  Among the reference
    cells, prefers the one whose non-architecture, non-fabric axes match
    exactly, then falls back to one matching on every *mesh-relevant* axis
    (the mesh ignores decomposition/synthesis knobs, so such a cell is the
    same operating point).  A mesh cell differing on a mesh-relevant axis
    — e.g. the router pipeline depth — is never used as a baseline:
    returns None instead of a misleading ratio.
    """
    mesh_records = [
        other
        for other in records
        if other.scenario == record.scenario
        and other.architecture == MESH_ARCHITECTURE
        and other.succeeded
        and _is_reference_fabric(other)
    ]
    wanted_operating_point = _non_fabric_axes(record)
    for other in mesh_records:
        if _non_fabric_axes(other) == wanted_operating_point:
            return other
    # (an exact non-architecture-axes pass would be subsumed by the loop
    # above: matching on all axes implies matching on the non-fabric subset)
    wanted_relevant = _mesh_relevant_axes(record)
    for other in mesh_records:
        if _mesh_relevant_axes(other) == wanted_relevant:
            return other
    return None


def normalize_to_mesh(
    records: Sequence[EvaluationRecord],
    keys: Sequence[str] = ("avg_latency_cycles", "energy_per_iteration_uj", "throughput_mbps"),
) -> list[dict[str, object]]:
    """Reporting rows with ``<metric>_vs_mesh`` ratio columns added.

    A ratio below 1.0 means "less than the mesh baseline" (good for latency
    and energy); throughput above 1.0 means faster than the mesh.
    """
    rows: list[dict[str, object]] = []
    for record in records:
        row = record.as_row()
        baseline = mesh_baseline_for(record, records)
        if baseline is not None and record.succeeded:
            for key in keys:
                value = record.metric(key)
                reference = baseline.metric(key)
                if value is not None and reference not in (None, 0.0):
                    row[f"{key}_vs_mesh"] = value / reference
        rows.append(row)
    return rows


def custom_dominates_mesh(
    records: Sequence[EvaluationRecord],
    scenario: str,
    minimize: Sequence[str] = DEFAULT_MINIMIZE,
    maximize: Sequence[str] = DEFAULT_MAXIMIZE,
) -> bool:
    """Does some custom cell Pareto-dominate every mesh cell of the scenario?

    This is the paper's Section-5.2 shape: the synthesized architecture wins
    on every figure of merit simultaneously, not just on one axis.  Only
    the canonical mesh+XY reference cells count as "the mesh baseline" —
    torus/ring/fat-tree fabric variants share the ``mesh`` architecture
    label but are alternative baselines, not the one the verdict names.
    """
    scoped = [record for record in records if record.scenario == scenario]
    mesh_cells = [
        record
        for record in scoped
        if record.architecture == MESH_ARCHITECTURE
        and record.succeeded
        and _is_reference_fabric(record)
    ]
    custom_cells = [
        record
        for record in scoped
        if record.architecture != MESH_ARCHITECTURE and record.succeeded
    ]
    if not mesh_cells or not custom_cells:
        return False
    return any(
        all(dominates(custom, mesh, minimize, maximize) for mesh in mesh_cells)
        for custom in custom_cells
    )


def truncated_cells(records: Sequence[EvaluationRecord]) -> list[EvaluationRecord]:
    """The records whose decomposition search exhausted a counter budget.

    Node and leaf budgets truncate deterministically, so these results
    reproduce anywhere, but their decomposition may not be optimal: reports
    flag them instead of presenting them as exact.  Re-run them with a
    larger ``max_nodes_expanded`` to close the search.
    """
    return [record for record in records if record.truncated_search]


def stage_reuse_summary(records: Sequence[EvaluationRecord]) -> dict[str, dict[str, int]]:
    """Provenance counts per pipeline stage, e.g. ``{"decompose": {"computed": 2, "memory": 4}}``.

    Only cells that ran the stage appear (mesh cells never decompose); the
    runner's :class:`~repro.dse.runner.SweepResult` carries the same counts
    for one sweep, while this helper works on any record list, including
    records loaded back from the JSONL cache.
    """
    summary: dict[str, dict[str, int]] = {}
    for record in records:
        for stage, provenance in record.stage_reuse.items():
            by_provenance = summary.setdefault(stage, {})
            by_provenance[provenance] = by_provenance.get(provenance, 0) + 1
    return summary


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
_REPORT_COLUMNS = (
    "arch",
    "config",
    "status",
    "pareto",
    "trunc",
    "rung",
    "deadlock_free",
    "vc_channels_needed",
    "cycles_per_iteration",
    "avg_latency_cycles",
    "throughput_mbps",
    "energy_per_iteration_uj",
    "avg_power_mw",
    "physical_links",
    "t_decompose",
    "t_simulate",
    "avg_latency_cycles_vs_mesh",
    "energy_per_iteration_uj_vs_mesh",
    "throughput_mbps_vs_mesh",
)


def scenario_names(records: Sequence[EvaluationRecord]) -> list[str]:
    """Distinct scenario names in first-seen order."""
    seen: dict[str, None] = {}
    for record in records:
        seen.setdefault(record.scenario, None)
    return list(seen)


def pareto_report(
    records: Sequence[EvaluationRecord],
    minimize: Sequence[str] = DEFAULT_MINIMIZE,
    maximize: Sequence[str] = DEFAULT_MAXIMIZE,
) -> str:
    """One table per scenario: all cells, Pareto members starred,
    mesh-normalized ratio columns, and a dominance verdict line."""
    sections: list[str] = []
    for scenario in scenario_names(records):
        scoped = [record for record in records if record.scenario == scenario]
        front = set(id(record) for record in pareto_front(scoped, minimize, maximize))
        rows = []
        for row, record in zip(normalize_to_mesh(scoped), scoped):
            row["pareto"] = "*" if id(record) in front else ""
            if record.approximate:
                row["trunc"] = "!"
            rows.append(row)
        columns = [
            column
            for column in _REPORT_COLUMNS
            if any(column in row for row in rows)
        ]
        table = format_table(rows, columns=columns, title=f"scenario: {scenario}")
        verdict = (
            "custom Pareto-dominates the mesh baseline"
            if custom_dominates_mesh(records, scenario, minimize, maximize)
            else "custom does not dominate the mesh baseline"
        )
        section = f"{table}\n  -> {scenario}: {verdict}"
        # only full-fidelity truncations warrant the grid-level caveat: a
        # low-rung cell is truncated *by design* and gets its own caveat below
        truncated = [
            record for record in truncated_cells(scoped) if not record.low_fidelity
        ]
        if truncated:
            in_front = [record for record in truncated if id(record) in front]
            caveat = (
                f"  !  {len(truncated)} cell(s) hit the decomposition search "
                "budget (marked '!'): deterministic node/leaf budgets are "
                "reproducible anywhere, but the decomposition is approximate"
            )
            if in_front:
                caveat += (
                    f"\n  !  {len(in_front)} of them sit on the Pareto front — "
                    "treat this frontier as approximate"
                )
            section = f"{section}\n{caveat}"
        low_fidelity = [record for record in scoped if record.low_fidelity]
        if low_fidelity:
            # a promoted cell's low-rung record has a full-fidelity sibling
            # in the same table; only *pruned* front members lack one
            in_front_low = [
                record
                for record in low_fidelity
                if id(record) in front and record.search.get("pruned_at")
            ]
            caveat = (
                f"  !  {len(low_fidelity)} cell(s) are low-fidelity search "
                "rungs (marked '!'): measured under truncated budgets / short "
                "simulation windows"
            )
            if in_front_low:
                caveat += (
                    f"\n  !  {len(in_front_low)} of them sit on the Pareto "
                    "front without a completed promotion — promote them "
                    "(python -m repro.dse search) before trusting this frontier"
                )
            section = f"{section}\n{caveat}"
        sections.append(section)
    if not sections:
        return "(no records)"
    return "\n\n".join(sections)

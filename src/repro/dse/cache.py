"""Layered on-disk caches for DSE sweeps: cell results + stage artifacts.

Two cooperating stores live here (see ``docs/dse.md`` for the formats):

**Cell results** (:class:`ResultCache`) — a sweep cell is identified by
the SHA-256 of its canonical JSON content: the scenario *fingerprint*
(workload structure, volumes, positions, traffic mode and generator
parameters — including the explicit seeds) plus the effective
:class:`~repro.dse.pipeline.EvaluationSettings`.  Labels and suite names
are deliberately not part of the key, so renaming a suite never
invalidates results, while changing a volume, a seed or any knob always
does.  Results append to one JSONL file, one record per line, which
makes the store crash-safe (a truncated trailing line is skipped on
load) and merge-friendly (files from several machines can simply be
concatenated).  Re-running a sweep only evaluates cells whose key is
absent.

**Stage artifacts** (:class:`StageArtifactStore` + :class:`StageContext`)
— the pipeline's stages are separable, and the expensive one (the
decomposition search) only reads the workload graph plus the
decomposition knobs.  Its output is therefore cached under a *stage
sub-key* (:func:`decomposition_stage_key`) that hashes only the settings
the decompose stage reads (``canonical_dict("decompose")``), so all cells
of a simulator-axis sweep share one serialized decomposition.  The
synthesized topology + routing table of a custom cell is memoized in
memory by what synthesize and route read: the workload graph, the ordered
cover and the synthesis options, so the cap and budget variants of a
search that reach one cover share it.  A synthesis sub-key
(:func:`synthesis_stage_key`, ``canonical_dict("synthesize")``) adds the
synthesis fields to the decomposition sub-key; it memoizes the routed
baseline fabric of a mesh cell.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Hashable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import astuple, dataclass
from pathlib import Path

from repro.arch.topology import Topology
from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import (
    DecompositionResult,
    SearchBasis,
    SearchStatistics,
    replay_cover,
)
from repro.core.graph import ApplicationGraph
from repro.core.library import CommunicationLibrary
from repro.core.matching import Matching
from repro.core.synthesis import SynthesizedArchitecture
from repro.dse.pipeline import (
    EvaluationSettings,
    Scenario,
    SimulationRun,
    TrafficProgram,
    baseline_route_stage,
    fabric_content_key,
    get_traffic_mode,
    route_stage,
    run_decomposition_search,
    synthesize_stage,
)
from repro.dse.records import (
    STAGE_COMPUTED,
    STAGE_REUSED_MEMORY,
    STAGE_REUSED_STORE,
    EvaluationRecord,
)
from repro.exceptions import ReproError
from repro.noc.simulator import WiredFabric
from repro.routing.deadlock import DeadlockReport
from repro.routing.table import RoutingTable

#: bump when the pipeline's measurement semantics change incompatibly, so
#: stale caches are invalidated wholesale instead of silently misread
#: (version 2: stage-granular pipeline — records carry ``stage_reuse``,
#: decompositions are shared across simulator-axis sweep cells;
#: version 3: event-driven simulator — settings grew the ``engine`` knob,
#: records carry ``sim_cycles_stepped``, and energy is batch-flushed, which
#: can move link-energy floats by an ulp relative to per-hop charging;
#: version 4: pluggable fabric layer — settings grew the ``topology`` /
#: ``routing_policy`` / ``require_deadlock_free`` knobs, baseline cells are
#: table-routed through the policy registry, and every routed cell records
#: the CDG gate's ``deadlock_free`` / ``vc_channels_needed`` provenance;
#: version 5: exact residual lower bounds — settings grew the
#: ``lower_bound`` knob (part of the decomposition stage sub-key), search
#: statistics carry ``branches_pruned_by`` provenance and bound-cache
#: counters, and truncated searches expand a different tree under the
#: tighter default bound;
#: version 6: one residual bound that prunes — ``lower_bound`` defaults to
#: ``"cheapest_edge"`` (the decomposition sub-key changes) and search
#: statistics no longer carry ``exact_residuals_solved``;
#: version 7: counter budgets only — settings lost the
#: ``isomorphism_timeout_seconds`` / ``decomposition_timeout_seconds`` knobs;
#: version 8: one root enumeration per search — the branching cap takes each
#: primitive's first matchings in canonical order at every depth, so stored
#: decompositions hold covers (and search statistics) of the old search;
#: version 9: one residual bound — settings lost the ``lower_bound`` knob,
#: so the decomposition sub-key and every content key change;
#: version 10: one engine selector and one routing-table shape — settings
#: lost the search-engine and the all-pairs-routing knobs, so every
#: content key changes)
PIPELINE_VERSION = 10

#: bump when the decomposition artifact serialization changes shape
DECOMPOSITION_ARTIFACT_FORMAT = 1


def _canonical(value: object) -> str:
    """The canonical (sorted, compact) JSON encoding of one value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _joined(pieces: dict[str, str]) -> str:
    """The canonical JSON object whose members' canonical texts are given.

    Byte-identical to :func:`_canonical` of the decoded object: members in
    sorted key order, compact separators.
    """
    return "{" + ",".join(f"{_canonical(key)}:{pieces[key]}" for key in sorted(pieces)) + "}"


def _content_hash(payload: dict[str, object], **spliced: str) -> str:
    """SHA-256 of the canonical JSON of ``payload`` plus the ``spliced``
    members, which are given already serialized as canonical JSON."""
    pieces = {key: _canonical(value) for key, value in payload.items()}
    pieces.update(spliced)
    return hashlib.sha256(_joined(pieces).encode("utf-8")).hexdigest()


class _Fingerprints:
    """Scenario fingerprints as canonical JSON, each serialized once, and
    the content keys built from them, each hashed once.

    The workload graph's part is shared by every scenario over the same
    graph object (a search's capped rung variants share it).  Each memo
    holds its scenarios and graphs, so no other object can take over
    their ids while it lives.  It sees no mutation of a graph it has read,
    so it lives for one sweep or search (:func:`fingerprint_scope`).

    ``digests`` maps a key's inputs to its hex digest: the key kind, the
    spliced fingerprint text and the settings payload's names and value
    ``repr``s.  ``repr`` tells apart every pair of values that the
    canonical JSON tells apart (``2`` and ``2.0``, ``0.0`` and ``-0.0``,
    ``1`` and ``True``), which the values themselves do not as dict keys.
    """

    def __init__(self) -> None:
        self._workloads: dict[int, tuple[ApplicationGraph, dict[str, str]]] = {}
        self._scenarios: dict[int, tuple[Scenario, str, str]] = {}
        self.digests: dict[tuple[object, ...], str] = {}

    def texts(self, scenario: Scenario) -> tuple[str, str]:
        """``(fingerprint, structural fingerprint)`` as canonical JSON."""
        memoized = self._scenarios.get(id(scenario))
        if memoized is None:
            workload = self._workloads.get(id(scenario.acg))
            if workload is None:
                structural = scenario.structural_fingerprint()
                pieces = {key: _canonical(value) for key, value in structural.items()}
                workload = self._workloads[id(scenario.acg)] = (scenario.acg, pieces)
            pieces = workload[1]
            traffic = scenario.traffic_fingerprint()
            fingerprint = _joined(
                {**{key: _canonical(value) for key, value in traffic.items()}, **pieces}
            )
            memoized = (scenario, fingerprint, _joined(pieces))
            self._scenarios[id(scenario)] = memoized
        return memoized[1], memoized[2]


_FINGERPRINTS: ContextVar[_Fingerprints | None] = ContextVar(
    "repro_dse_fingerprints", default=None
)


@contextmanager
def fingerprint_scope() -> Iterator[None]:
    """Serialize each scenario's fingerprint, and hash each distinct key,
    at most once inside the block.

    The key functions below read the active memo; a nested scope shares
    the outermost one.  The memo is context-local and dropped when the
    outermost scope exits.  Sweeps and searches open one for the length of
    the call (``@fingerprint_scope()`` on the function), so a workload
    mutated between two calls keys afresh.
    """
    if _FINGERPRINTS.get() is not None:
        yield
        return
    token = _FINGERPRINTS.set(_Fingerprints())
    try:
        yield
    finally:
        _FINGERPRINTS.reset(token)


def _key_digest(
    stage: str | None, settings: dict[str, object], spliced_name: str, spliced: str
) -> str:
    """The content hash of one key, from the active memo if any.

    ``stage`` is None for a cell key; ``spliced`` is the scenario's
    fingerprint text, spliced into the hashed object as ``spliced_name``.
    """
    memo = _FINGERPRINTS.get()
    if memo is not None:
        memo_key = (stage, spliced, tuple(settings), tuple(map(repr, settings.values())))
        digest = memo.digests.get(memo_key)
        if digest is not None:
            return digest
    payload: dict[str, object] = {"pipeline_version": PIPELINE_VERSION, "settings": settings}
    if stage is not None:
        payload["stage"] = stage
    digest = _content_hash(payload, **{spliced_name: spliced})
    if memo is not None:
        memo.digests[memo_key] = digest
    return digest


def _fingerprint_texts(scenario: Scenario) -> tuple[str, str]:
    """The scenario's fingerprint texts, from the active memo if any."""
    return (_FINGERPRINTS.get() or _Fingerprints()).texts(scenario)


def cache_key(scenario: Scenario, settings: EvaluationSettings) -> str:
    """Stable content hash of one (scenario, configuration) cell."""
    effective = scenario.effective_settings(settings)
    fingerprint, _ = _fingerprint_texts(scenario)
    return _key_digest(None, effective.canonical_dict(), "scenario", fingerprint)


def decomposition_stage_key(scenario: Scenario, settings: EvaluationSettings) -> str:
    """Stable content hash of the decompose stage's inputs.

    Only the workload graph structure and the decomposition-stage settings
    (``EvaluationSettings.canonical_dict("decompose")``) enter the hash:
    two cells that differ in simulator- or synthesis-stage fields alone —
    or in how the traffic is driven — share this key, and therefore one
    decomposition search.
    """
    effective = scenario.effective_settings(settings)
    _, workload = _fingerprint_texts(scenario)
    return _key_digest("decompose", effective.canonical_dict("decompose"), "workload", workload)


def synthesis_stage_key(scenario: Scenario, settings: EvaluationSettings) -> str:
    """Stable content hash of the synthesize/route stages' inputs.

    Hashes the settings the synthesize/route stages read and those before
    them read (``EvaluationSettings.canonical_dict("synthesize")``); cells
    that differ only in simulator-stage fields share this key, and
    therefore one synthesized topology and routing table.
    """
    effective = scenario.effective_settings(settings)
    _, workload = _fingerprint_texts(scenario)
    return _key_digest("synthesize", effective.canonical_dict("synthesize"), "workload", workload)


class ResultCache:
    """A JSONL file of :class:`EvaluationRecord` lines keyed by content hash."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[str, EvaluationRecord | str] = {}
        """Records by key; a record this cache stored is kept as its JSONL
        line until first read (:meth:`_stored_copy`)."""
        self._loaded = False
        self.skipped_lines = 0
        """Malformed lines :meth:`load` skipped: truncated JSON (a crashed
        writer), non-object JSON, or a record missing fields or its key or
        holding a field of the wrong JSON type."""
        self.stale_lines = 0
        """Lines :meth:`load` skipped because another pipeline version (or
        one that stamped no version) wrote them; they stay in the file."""

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _read(self) -> dict[str, EvaluationRecord | str]:
        """The records by key, reading the file on first use (newest wins)."""
        if self._loaded:
            return self._records
        self._loaded = True
        if self.path.exists():
            for line in self.path.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    record = (
                        EvaluationRecord.from_dict(payload)
                        if isinstance(payload, dict)
                        else None
                    )
                except (json.JSONDecodeError, TypeError):
                    record = None
                if record is None or not record.cache_key:
                    self.skipped_lines += 1  # skip (and count), don't die
                    continue
                if payload.get("pipeline_version") != PIPELINE_VERSION:
                    self.stale_lines += 1
                    continue
                record.from_cache = True
                self._records[record.cache_key] = record
        return self._records

    @staticmethod
    def _stored_copy(line: str) -> EvaluationRecord:
        """The record a stored line reads back as, flagged ``from_cache``."""
        record = EvaluationRecord.from_json(line)
        record.from_cache = True
        return record

    def load(self) -> dict[str, EvaluationRecord]:
        """Read every stored record (newest wins per key); idempotent."""
        records = self._read()
        for key, value in records.items():
            if isinstance(value, str):
                records[key] = self._stored_copy(value)
        return records  # type: ignore[return-value]  # every value parsed above

    def get(self, key: str) -> EvaluationRecord | None:
        """The cached record under ``key``, or None."""
        value = self._read().get(key)
        if isinstance(value, str):
            value = self._records[key] = self._stored_copy(value)
        return value

    def __contains__(self, key: str) -> bool:
        return key in self._read()

    def __len__(self) -> int:
        return len(self._read())

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def store(self, record: EvaluationRecord) -> None:
        """Append one record (it must carry its cache key), stamped with
        :data:`PIPELINE_VERSION`.

        The cache keeps its own copy, read back from the stored line (on
        first :meth:`get`) and flagged ``from_cache``: a later :meth:`get`
        in this process returns exactly what a fresh process would load,
        and the caller's record shares no mutable state with it.
        """
        if not record.cache_key:
            raise ValueError("cannot cache a record without a cache_key")
        self._read()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # the stamp becomes the first member of the record's JSON object
        line = f'{{"pipeline_version": {PIPELINE_VERSION}, {record.to_json()[1:]}'
        with self.path.open("a", encoding="utf-8") as stream:
            stream.write(line + "\n")
        self._records[record.cache_key] = line

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def all_records(self) -> list[EvaluationRecord]:
        """Every cached record, one per content key (newest wins)."""
        return list(self.load().values())

    def describe(self) -> str:
        """One-line summary used by the CLI (path + cell count)."""
        return f"{self.path} ({len(self)} cached cells)"


# ----------------------------------------------------------------------
# stage artifacts
# ----------------------------------------------------------------------
def serialize_decomposition(decomposition: DecompositionResult) -> dict[str, object]:
    """JSON-serializable payload of a decomposition (matchings by content).

    Only the *choices* are stored — which primitive is instantiated on which
    cores — plus the search statistics and the total cost as an integrity
    check; the remainder graph and the cost breakdown are reconstructed by
    replaying the subtraction against the workload graph on load.
    """
    return {
        "format": DECOMPOSITION_ARTIFACT_FORMAT,
        "matchings": [
            {
                "primitive": matching.primitive.name,
                "assignment": [[node, core] for node, core in matching.assignment],
            }
            for matching in decomposition.matchings
        ],
        "total_cost": decomposition.total_cost,
        "statistics": decomposition.statistics.as_dict(),
    }


def rebuild_decomposition(
    payload: dict[str, object],
    acg: ApplicationGraph,
    library: CommunicationLibrary,
) -> DecompositionResult | None:
    """Inverse of :func:`serialize_decomposition`, or None when stale.

    Replays the stored matchings against ``acg`` with
    :func:`~repro.core.decomposition.replay_cover` (which re-validates that
    every covered edge exists and nothing overlaps) and recomputes the cost
    breakdown with the pipeline's cost model; any mismatch with the stored
    total cost — a changed library, cost model or workload — rejects the
    artifact so the caller falls back to a fresh search.
    """
    try:
        if payload.get("format") != DECOMPOSITION_ARTIFACT_FORMAT:
            return None
        matchings = [
            Matching.from_dict(
                library.by_name(item["primitive"]),
                {node: core for node, core in item["assignment"]},
            )
            for item in payload["matchings"]  # type: ignore[index]
        ]
        stored_statistics = payload.get("statistics")
        statistics = SearchStatistics()
        if isinstance(stored_statistics, dict):
            known = set(statistics.as_dict())
            for key, value in stored_statistics.items():
                if key in known:
                    setattr(statistics, key, value)
        result = replay_cover(acg, matchings, LinkCountCostModel(), statistics)
        if abs(result.total_cost - float(payload["total_cost"])) > 1e-6:  # type: ignore[arg-type]
            return None
        return result
    except (ReproError, KeyError, TypeError, ValueError):
        return None


class StageArtifactStore:
    """A directory of serialized stage artifacts keyed by stage sub-key.

    Lives alongside the JSONL result cache (the CLI defaults to a
    ``stage_artifacts/`` sibling of the results file).  One JSON file per
    artifact, written atomically (temp file + rename) so concurrent worker
    processes computing the same key race benignly — last writer wins with
    an identical payload.  Unreadable or stale artifacts are treated as
    absent, never as errors.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def _decomposition_path(self, key: str) -> Path:
        return self.directory / f"decompose_{key}.json"

    def load_decomposition(
        self,
        key: str,
        acg: ApplicationGraph,
        library: CommunicationLibrary,
    ) -> DecompositionResult | None:
        """Deserialize the decomposition stored under ``key``, if usable."""
        path = self._decomposition_path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        return rebuild_decomposition(payload, acg, library)

    def store_decomposition(self, key: str, decomposition: DecompositionResult) -> None:
        """Atomically persist one decomposition under its stage sub-key."""
        path = self._decomposition_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(serialize_decomposition(decomposition), sort_keys=True)
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temporary.write_text(payload + "\n", encoding="utf-8")
        os.replace(temporary, path)

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("decompose_*.json"))

    def describe(self) -> str:
        """One-line summary used by the CLI (path + artifact count)."""
        return f"{self.directory} ({len(self)} stage artifacts)"


@dataclass(slots=True)
class _RoutedFabric:
    """What a :class:`StageContext` keeps per routed fabric and table
    version: its content key and its wiring, each made on first use."""

    topology: Topology
    table: RoutingTable
    version: int
    key: Hashable | None = None
    wired: WiredFabric | None = None


class StageContext:
    """Per-process reuse of stage artifacts across the cells of a sweep.

    Holds an in-memory memo of decompositions (by decomposition sub-key),
    synthesized architectures (by workload graph, ordered cover and
    synthesis options, :meth:`architecture_for`), routed baseline fabrics
    (by synthesis sub-key), their content keys and their simulator wiring
    (:meth:`wired_fabric`), backed by an optional
    :class:`StageArtifactStore` that persists decompositions across runs
    and across worker processes, plus each scenario's traffic program,
    every finished simulation (:attr:`simulations`) and each search basis
    (:attr:`search_bases`).  Every cell the
    pipeline evaluates runs under one (:func:`repro.dse.pipeline.evaluate`
    makes a fresh one when the caller passes none; a guided search shares
    one across its rungs), so a sweep runs the decomposition search
    exactly once per sub-key, enumerates each workload graph's matchings
    once across its budget-axis searches, synthesizes and routes each
    distinct cover once, routes each baseline fabric once, wires each routed fabric once for all the runs on it, and
    simulates a run only when no earlier run on an equal fabric repeats it
    or certifies its buffer capacity.
    """

    def __init__(self, store: StageArtifactStore | None = None) -> None:
        self.store = store
        self._decompositions: dict[str, DecompositionResult] = {}
        self._architectures: dict[tuple, SynthesizedArchitecture] = {}
        self._baselines: dict[str, tuple[Topology, RoutingTable, DeadlockReport]] = {}
        self._fabrics: dict[tuple[int, int], _RoutedFabric] = {}
        self.simulations: dict[tuple, list[SimulationRun]] = {}
        """Finished simulations by everything they read but the buffer
        capacity (filled and served by the pipeline's simulate stage)."""
        self.search_bases: dict[tuple, SearchBasis] = {}
        """The decomposition searches' shared root work, the ``memo`` of
        :func:`~repro.core.decomposition.decompose`: searches of one
        workload graph that differ only in their matching or node budgets
        enumerate its matchings once."""
        self._programs: dict[int, tuple[Scenario, TrafficProgram]] = {}

    def _routed(self, topology: Topology, table: RoutingTable) -> _RoutedFabric:
        """The memo entry of a routed fabric, fresh for a table mutated
        since the entry was made.

        The entry holds the topology and the table, so no other object can
        take over their ids.
        """
        ids = (id(topology), id(table))
        routed = self._fabrics.get(ids)
        if routed is None or routed.version != table.version:
            routed = self._fabrics[ids] = _RoutedFabric(topology, table, table.version)
        return routed

    def fabric_key(self, topology: Topology, table: RoutingTable) -> Hashable:
        """The routed fabric's content key, computed once per fabric."""
        routed = self._routed(topology, table)
        if routed.key is None:
            routed.key = fabric_content_key(topology, table)
        return routed.key

    def wired_fabric(self, topology: Topology, table: RoutingTable) -> WiredFabric:
        """The routed fabric wired for the simulator, once per fabric.

        Every run on the fabric shares its wiring, scan orders and routing
        memo (:meth:`NoCSimulator.from_fabric
        <repro.noc.simulator.NoCSimulator.from_fabric>`), routed by one
        frozen snapshot of the table per table version.
        """
        routed = self._routed(topology, table)
        if routed.wired is None:
            routed.wired = WiredFabric(topology, table.frozen_next_hop())
        return routed.wired

    def traffic_program(self, scenario: Scenario) -> TrafficProgram:
        """The scenario's traffic program, built once per scenario object.

        The memo keeps the scenario alive beside its program, so no other
        object can take over its id while the context lives.
        """
        memoized = self._programs.get(id(scenario))
        if memoized is None:
            program = get_traffic_mode(scenario.traffic).program(scenario)
            memoized = self._programs[id(scenario)] = (scenario, program)
        return memoized[1]

    def decomposition_for(
        self, scenario: Scenario, settings: EvaluationSettings
    ) -> tuple[DecompositionResult, str]:
        """The decompose-stage artifact for one cell, computed at most once.

        Returns ``(decomposition, provenance)``; provenance reports whether
        the search ran (``"computed"``) or the artifact came from the
        in-memory memo (``"memory"``) or the on-disk store (``"store"``).
        """
        # the key below hashes the scenario-effective settings; resolve the
        # pins here too so search/load see the exact configuration the key
        # describes even when a caller passes raw grid settings
        settings = scenario.effective_settings(settings)
        key = decomposition_stage_key(scenario, settings)
        memoized = self._decompositions.get(key)
        if memoized is not None:
            return memoized, STAGE_REUSED_MEMORY
        if self.store is not None:
            loaded = self.store.load_decomposition(
                key, scenario.acg, settings.build_library()
            )
            if loaded is not None:
                self._decompositions[key] = loaded
                return loaded, STAGE_REUSED_STORE
        computed = run_decomposition_search(scenario, settings, memo=self.search_bases)
        self._decompositions[key] = computed
        if self.store is not None:
            self.store.store_decomposition(key, computed)
        return computed, STAGE_COMPUTED

    def architecture_for(
        self,
        scenario: Scenario,
        settings: EvaluationSettings,
        decomposition: DecompositionResult,
    ) -> tuple[SynthesizedArchitecture, str]:
        """The synthesize/route-stage product for one cell, memoized.

        Keyed by what the two stages read: the workload graph (by identity;
        the kept architecture holds it, so no other graph can take over its
        id), the cover in order (each matching's primitive name and core
        assignment, which with the graph fix the remainder) and the
        synthesis options.  Cells whose searches differ only in their cap or
        budgets and reach one cover share one architecture; each record
        still takes its search statistics from its own decomposition.
        Rebuilding is cheap and deterministic, so this layer is memoized in
        memory only; across processes it is regenerated from the shared
        decomposition artifact.
        """
        settings = scenario.effective_settings(settings)
        key = (
            id(scenario.acg),
            tuple(
                (matching.primitive.name, matching.assignment)
                for matching in decomposition.matchings
            ),
            astuple(settings.build_synthesis_options()),
        )
        memoized = self._architectures.get(key)
        if memoized is not None:
            return memoized, STAGE_REUSED_MEMORY
        topology = synthesize_stage(scenario, settings, decomposition)
        architecture = route_stage(scenario, settings, decomposition, topology)
        self._architectures[key] = architecture
        return architecture, STAGE_COMPUTED

    def baseline_for(
        self, scenario: Scenario, settings: EvaluationSettings
    ) -> tuple[Topology, RoutingTable, DeadlockReport]:
        """The routed standard-fabric baseline for one mesh cell, memoized.

        Cells that differ only in simulator-stage fields share the synthesis
        sub-key, and with it one fabric object, routing table and deadlock
        report -- which is also what lets their simulations be served across
        buffer capacities.
        """
        key = synthesis_stage_key(scenario, settings)
        routed = self._baselines.get(key)
        if routed is None:
            routed = self._baselines[key] = baseline_route_stage(scenario, settings)
        return routed

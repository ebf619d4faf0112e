"""The shared evaluation pipeline: one (scenario, configuration) -> record.

This is the engine the batch design-space exploration is built on, and
the one the Section-5.2 experiments run on: :mod:`repro.experiments`
builds the customized AES fabric with :func:`run_decomposition_search`,
:func:`synthesize_stage` and :func:`route_stage`, the 4x4 mesh with
:func:`baseline_route_stage`, and replays the ``aes_phases`` program an
AES sweep cell's simulate stage replays on both with :func:`_replay`.

:func:`evaluate` (one cell) and :func:`evaluate_cells` (many) run the
same path, prepare -> simulate -> score, through one
:class:`~repro.dse.cache.StageContext` (a fresh one per call when the
caller passes none).  Prepare runs the decomposition search, then
:func:`synthesize_stage` + :func:`route_stage` for the ``custom``
architecture, or builds the standard-fabric baseline (a
:mod:`repro.arch.families` topology family compiled against a
:mod:`repro.routing.policies` routing policy, via
:func:`baseline_route_stage`) for ``mesh``; simulate replays the
scenario's traffic mode — an op program (:class:`TrafficProgram`) — on
the cycle-level simulator, one cell at a time, and :func:`score_stage`
captures every figure of merit into an
:class:`~repro.dse.records.EvaluationRecord`.  Failures at any stage
become record statuses, not exceptions: an infeasible or deadlocking
configuration is a *result* of the exploration.

The stages are separable on purpose: the decompose stage only reads the
workload graph plus the decomposition knobs, and the synthesize/route
stages only add the synthesis knobs, so sweep cells that differ in
simulator-stage axes alone (injection knobs, buffering, cycle budgets)
share one decomposition — and one synthesized topology — through the
context.  ``record.stage_reuse`` says per cell whether each stage was
computed fresh or served from the in-memory memo (``"memory"``) or the
on-disk artifact store (``"store"``); a cell whose simulation was served
from an earlier run on an equal fabric says ``"memory"`` under
``"simulate"``, or ``"capacity:<C>"`` when that run was a certified
sibling at another buffer capacity.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import TYPE_CHECKING, get_args, get_type_hints

from repro.aes.aes_core import FIPS197_KEY
from repro.aes.distributed import DistributedAES
from repro.arch.families import get_family, pad_node_ids
from repro.arch.topology import Topology
from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import DecompositionConfig, DecompositionResult, decompose
from repro.core.graph import ApplicationGraph
from repro.core.library import (
    CommunicationLibrary,
    aes_library,
    default_library,
    extended_library,
    minimal_library,
)
from repro.core.synthesis import (
    SynthesisOptions,
    SynthesizedArchitecture,
    TopologySynthesizer,
)
from repro.dse.records import (
    STAGE_REUSED_MEMORY,
    STATUS_DECOMPOSITION_FAILED,
    STATUS_ROUTING_FAILED,
    STATUS_SIMULATION_FAILED,
    STATUS_SYNTHESIS_FAILED,
    EvaluationRecord,
)
from repro.energy.technology import Technology, get_technology
from repro.exceptions import (
    ConfigurationError,
    DeadlockError,
    DecompositionError,
    EnergyModelError,
    RoutingError,
    SimulationError,
    SynthesisError,
)
from repro.noc.simulator import (
    ENGINE_EVENT,
    DrainOp,
    NoCSimulator,
    RunOp,
    ScheduleOp,
    SimulatorConfig,
    WiredFabric,
)
from repro.noc.stats import SimulationStatistics, throughput_mbps_from_cycles
from repro.noc.traffic import acg_messages
from repro.obs.probes import SimulatorProbe
from repro.obs.session import get_session, get_tracer
from repro.plugins.registry import Registry
from repro.routing.deadlock import DeadlockReport, analyze_deadlock
from repro.routing.policies import get_policy
from repro.routing.table import RoutingTable

if TYPE_CHECKING:
    from repro.dse.cache import StageContext

NodeId = Hashable

#: traffic modes a scenario can request
TRAFFIC_ACG = "acg"
TRAFFIC_AES_PHASES = "aes_phases"

#: bits per AES block (the paper's throughput unit)
AES_BLOCK_SIZE_BITS = 128

#: the communication-library registry (plugin-fabric cell: third-party
#: libraries register here, directly or via the entry-point group)
LIBRARIES: Registry[Callable[[], CommunicationLibrary]] = Registry("communication library")
LIBRARIES.register("minimal", minimal_library)
LIBRARIES.register("default", default_library)
LIBRARIES.register("extended", extended_library)
LIBRARIES.register("aes", aes_library)

#: library name -> (the factory that built it, the built library); see
#: :meth:`EvaluationSettings.build_library`
_BUILT_LIBRARIES: dict[
    str, tuple[Callable[[], CommunicationLibrary], CommunicationLibrary]
] = {}


def get_library(name: str) -> Callable[[], CommunicationLibrary]:
    """Look a communication-library factory up by name (uniform errors)."""
    return LIBRARIES.get(name)


def register_library(name: str, factory: Callable[[], CommunicationLibrary]) -> None:
    """Register (or replace) a communication-library factory."""
    LIBRARIES.register(name, factory)


@dataclass(frozen=True)
class TrafficProgram:
    """A scenario's traffic as simulator ops, and how its run is measured.

    ``ops`` replay in order on a fresh
    :class:`~repro.noc.simulator.NoCSimulator`: a ``ScheduleOp`` schedules
    messages at the current cycle, a ``DrainOp`` runs until the network
    drains, a ``RunOp`` runs a fixed number of cycles.  The per-block
    metrics divide by ``iterations`` (AES blocks, ACG repetitions);
    ``block_throughput`` selects the paper's 128-bit block-throughput
    formula over the delivered-bits throughput.
    """

    ops: tuple[ScheduleOp | DrainOp | RunOp, ...]
    iterations: int
    block_throughput: bool = False
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    """The ``ScheduleOp`` messages compiled per fabric layout, shared by
    every replay of the program (``NoCSimulator.schedule_messages``
    ``memo``); it lives and dies with the program."""

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("a traffic program needs at least one iteration")


@dataclass(frozen=True)
class TrafficModeSpec:
    """One named way to drive the simulator with a scenario's traffic.

    ``program(scenario)`` builds the workload's :class:`TrafficProgram`.
    The built-in modes are ``"acg"`` (inject every ACG edge's volume per
    repetition, drain between repetitions) and ``"aes_phases"`` (the
    dependency-aware distributed-AES phase trace); third-party traffic
    generators register additional modes through the plugin fabric and
    become usable from any :class:`Scenario`.  Every mode runs the same
    simulate stage, capacity reuse included.
    """

    name: str
    description: str
    program: Callable[["Scenario"], TrafficProgram]


#: the traffic-mode registry (plugin-fabric cell: third-party traffic
#: generators register here, directly or via the entry-point group)
TRAFFIC_MODES: Registry[TrafficModeSpec] = Registry("traffic mode")


def get_traffic_mode(name: str) -> TrafficModeSpec:
    """Look a traffic mode up by name (uniform errors)."""
    return TRAFFIC_MODES.get(name)


def register_traffic_mode(spec: TrafficModeSpec) -> TrafficModeSpec:
    """Register (or replace) a traffic mode under its name."""
    return TRAFFIC_MODES.register(spec.name, spec)


#: the scoring-function registry: extra per-cell figures of merit.
#: Each registered ``fn(metrics, topology) -> float`` contributes one
#: ``{name: value}`` column to every record :func:`score_stage` produces;
#: nothing is registered by default, so the built-in record shape is
#: unchanged until a caller (or an entry-point plugin) adds scores.
SCORES: Registry[Callable[["ArchitectureMetrics", Topology], float]] = Registry(
    "scoring function"
)


def register_score(name: str, fn: Callable[["ArchitectureMetrics", Topology], float]):
    """Register (or replace) an extra scoring function under ``name``."""
    return SCORES.register(name, fn)


# ----------------------------------------------------------------------
# configuration of one grid cell
# ----------------------------------------------------------------------
@cache
def _field_types(cls: type) -> tuple[tuple[str, tuple[type, ...], str], ...]:
    """Per dataclass field: its name, the types its annotation admits and
    the annotation as written."""
    hints = get_type_hints(cls)
    return tuple(
        (spec.name, get_args(hints[spec.name]) or (hints[spec.name],), spec.type)
        for spec in fields(cls)
    )


def _type_matches(value: object, allowed: tuple[type, ...]) -> bool:
    """``isinstance`` with a bool never passing for a number, and an int
    passing for a float (JSON and the CLI spell ``2.0`` as ``2``)."""
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


#: ``"custom"`` (decompose + synthesize) or ``"mesh"`` (a standard fabric)
ARCHITECTURES = ("custom", "mesh")

#: the pipeline stages a settings field can feed, in order; a stage's key
#: holds every field read by that stage or an earlier one
STAGES = ("decompose", "synthesize", "simulate")


def _setting(default: object, stage: str, readers: tuple[str, ...] = ARCHITECTURES):
    """A settings field: its default, the first stage that reads it and the
    architectures whose evaluation reads it (see :data:`SETTINGS_READERS`)."""
    return field(default=default, metadata={"stage": stage, "readers": readers})


@dataclass(frozen=True)
class EvaluationSettings:
    """One point of the configuration space (JSON-serializable by design).

    Every field is a plain string/number/bool so a settings instance can be
    content-hashed for the result cache and shipped to worker processes.
    """

    architecture: str = _setting("custom", "decompose")
    """``"custom"`` (decompose + synthesize) or ``"mesh"`` (standard-fabric
    baseline: a :mod:`repro.arch.families` topology family routed by a
    :mod:`repro.routing.policies` policy; the label predates the fabric
    registry and covers every standard family, not just the mesh)."""

    # -- decomposition ---------------------------------------------------
    library: str = _setting("default", "decompose", ("custom",))
    max_matchings_per_primitive: int | None = _setting(3, "decompose", ("custom",))
    max_nodes_expanded: int | None = _setting(400, "decompose", ("custom",))

    # -- synthesis -------------------------------------------------------
    flit_width_bits: int = _setting(32, "synthesize")
    """Also feeds the simulator config, but it shapes the topology first."""
    bidirectional_links: bool = _setting(False, "synthesize", ("custom",))

    # -- standard-fabric baseline (its first-stage inputs) ---------------
    topology: str = _setting("mesh", "decompose", ("mesh",))
    """Topology family of the baseline fabric (see
    :func:`repro.arch.families.family_names`)."""
    routing_policy: str = _setting("xy", "decompose", ("mesh",))
    """Routing policy compiled onto the baseline fabric (see
    :func:`repro.routing.policies.policy_names`)."""
    mesh_tile_pitch_mm: float = _setting(2.0, "decompose", ("mesh",))
    """Tile pitch of the baseline fabric (the name predates the fabric
    registry; every family reads it, not just the mesh)."""

    # -- routing gate ----------------------------------------------------
    require_deadlock_free: bool = _setting(False, "simulate")
    """When true, the route-stage CDG gate fails cells whose routing table
    admits a dependency cycle instead of simulating them; either way the
    record carries ``deadlock_free`` and ``vc_channels_needed``.  The table
    and report it inspects do not depend on it, so it is declared with the
    simulate stage and stage artifacts are shared across gate settings."""

    # -- simulation ------------------------------------------------------
    technology: str = _setting("fpga_virtex2", "simulate")
    router_pipeline_delay_cycles: int = _setting(1, "simulate")
    buffer_capacity_packets: int = _setting(4, "simulate")
    max_cycles: int = _setting(100_000, "simulate")
    engine: str = _setting(ENGINE_EVENT, "simulate")
    """Simulator engine: ``"event"`` (skip dead time) or ``"batch"``
    (vectorized numpy, one cell per
    :class:`~repro.noc.simulator.NoCSimulator`)."""

    def __new__(cls, *args: object, **kwargs: object) -> "EvaluationSettings":
        # checked before the generated __init__, which would raise a bare
        # TypeError; pickling and dataclasses.replace pass known names only
        unknown = kwargs.keys() - {name for name, _, _ in _field_types(cls)}
        if unknown:
            raise ConfigurationError(f"unknown settings fields: {sorted(unknown)}")
        return super().__new__(cls)

    def __post_init__(self) -> None:
        values = vars(self)
        for name, allowed, annotation in _field_types(type(self)):
            value = values[name]
            if type(value) not in allowed and not _type_matches(value, allowed):
                raise ConfigurationError(
                    f"setting {name}={value!r} has type {type(value).__name__}, "
                    f"expected {annotation}"
                )
        if self.architecture not in ARCHITECTURES:
            raise ConfigurationError(
                f"unknown architecture {self.architecture!r} (use 'custom' or 'mesh')"
            )
        LIBRARIES.get(self.library)  # raises UnknownPluginError when unknown
        get_family(self.topology)  # raises ConfigurationError when unknown
        get_policy(self.routing_policy)  # raises ConfigurationError when unknown
        if not (math.isfinite(self.mesh_tile_pitch_mm) and self.mesh_tile_pitch_mm > 0):
            raise ConfigurationError(
                f"mesh_tile_pitch_mm must be positive and finite, got {self.mesh_tile_pitch_mm!r}"
            )
        try:
            self.build_technology()
            self.build_simulator_config()  # engine, buffers, delays, cycle budget
            self.build_decomposition_config()  # search budgets
        except (SimulationError, DecompositionError, EnergyModelError) as error:
            raise ConfigurationError(str(error)) from error

    def as_dict(self) -> dict[str, object]:
        """All fields as a plain JSON-serializable dict."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "EvaluationSettings":
        """Rebuild settings from a dict, ignoring unknown keys."""
        known = {spec.name for spec in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})

    def canonical_dict(self, stage: str = "simulate") -> dict[str, object]:
        """``as_dict`` with the fields this architecture does not read by
        ``stage`` (see :data:`SETTINGS_READERS`) nulled out.

        The content identity of ``stage`` and the stages before it.  The
        default, ``"simulate"``, is the cell key's: a mesh baseline ignores
        the search/synthesis knobs and a custom architecture the fabric
        fields, so cells differing only in an unread axis share one
        evaluation (and ``"decompose"`` cells one search).
        """
        payload = self.as_dict()
        for name in _UNREAD[self.architecture, stage]:
            payload[name] = None
        return payload

    def merged(self, overrides: dict[str, object]) -> "EvaluationSettings":
        """A copy with the given fields replaced (unknown keys rejected)."""
        return replace(self, **overrides)

    def build_decomposition_config(self) -> DecompositionConfig:
        """The decompose-stage knobs as a :class:`DecompositionConfig`."""
        return DecompositionConfig(
            max_matchings_per_primitive=self.max_matchings_per_primitive,
            max_nodes_expanded=self.max_nodes_expanded,
        )

    def build_library(self) -> CommunicationLibrary:
        """The named communication library, built once per registered factory.

        Every search over one library shares the instance, so its
        primitives and the bound tables memoized on it
        (:func:`repro.core.bounds.bound_tables`) stay warm across a sweep.
        Callers treat it as read-only.  Re-registering the name replaces
        the factory object, and the next call builds from the new one.
        """
        factory = LIBRARIES.get(self.library)
        built = _BUILT_LIBRARIES.get(self.library)
        if built is None or built[0] is not factory:
            built = (factory, factory())
            _BUILT_LIBRARIES[self.library] = built
        return built[1]

    def build_synthesis_options(self) -> SynthesisOptions:
        """The synthesize/route-stage knobs as :class:`SynthesisOptions`."""
        return SynthesisOptions(
            flit_width_bits=self.flit_width_bits,
            bidirectional_links=self.bidirectional_links,
        )

    def build_simulator_config(self) -> SimulatorConfig:
        """The simulate-stage knobs as a :class:`SimulatorConfig`."""
        return SimulatorConfig(
            flit_width_bits=self.flit_width_bits,
            buffer_capacity_packets=self.buffer_capacity_packets,
            router_pipeline_delay_cycles=self.router_pipeline_delay_cycles,
            max_cycles=self.max_cycles,
            engine=self.engine,
        )

    def build_technology(self) -> Technology:
        """Resolve the named technology's energy/frequency parameters."""
        return get_technology(self.technology)


#: per settings field: (the first stage that reads it, the architectures
#: that read it); a field declared without :func:`_setting` fails here
SETTINGS_READERS: dict[str, tuple[str, tuple[str, ...]]] = {
    spec.name: (spec.metadata["stage"], spec.metadata["readers"])
    for spec in fields(EvaluationSettings)
}

#: (architecture, stage) -> the fields that stage's key nulls: those the
#: architecture never reads and those first read by a later stage
_UNREAD: dict[tuple[str, str], tuple[str, ...]] = {
    (architecture, stage): tuple(
        name
        for name, (first, readers) in SETTINGS_READERS.items()
        if architecture not in readers or STAGES.index(first) > STAGES.index(stage)
    )
    for architecture in ARCHITECTURES
    for stage in STAGES
}


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
#: stands for a settings field a scenario pin names but the settings lack
_UNSET = object()


@dataclass
class Scenario:
    """One named workload a sweep evaluates architectures against."""

    name: str
    acg: ApplicationGraph
    traffic: str = TRAFFIC_ACG
    repetitions: int = 1
    """How many back-to-back batches of ACG traffic are injected."""
    aes_blocks: int = 1
    computation_cycles_per_phase: int = 4
    """Local-computation allowance between AES phases (AES traffic only)."""
    packet_size_bits: int = 32
    description: str = ""
    params: dict[str, object] = field(default_factory=dict)
    """Generator parameters (sizes, densities, **explicit seeds**): part of
    the content fingerprint so distinct instances never share a cache key."""
    settings_overrides: dict[str, object] = field(default_factory=dict)
    """Per-scenario settings pins applied on top of every grid cell (e.g.
    the AES scenario pins ``library='aes'`` and full-duplex links)."""

    def __post_init__(self) -> None:
        TRAFFIC_MODES.get(self.traffic)  # raises UnknownPluginError when unknown
        for name in (
            "repetitions",
            "aes_blocks",
            "computation_cycles_per_phase",
            "packet_size_bits",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        if self.repetitions < 1 or self.aes_blocks < 1:
            raise ConfigurationError("repetitions and aes_blocks must be at least 1")
        if self.packet_size_bits < 1:
            raise ConfigurationError("packet_size_bits must be at least 1")
        if self.computation_cycles_per_phase < 0:
            raise ConfigurationError("computation_cycles_per_phase must be non-negative")

    def effective_settings(self, settings: EvaluationSettings) -> EvaluationSettings:
        """The grid cell's settings with this scenario's pins applied.

        Settings that already hold every pinned value (the same objects,
        so equal canonical JSON) come back as they are: resolving them
        again, as each content key does, costs no merge.
        """
        pins = self.settings_overrides
        if all(getattr(settings, name, _UNSET) is value for name, value in pins.items()):
            return settings
        return settings.merged(pins)

    def with_simulation_cap(self, cap: int) -> "Scenario":
        """A copy whose simulation window is capped at ``cap`` iterations.

        The short-window variant the guided searcher's low rungs evaluate:
        ``repetitions`` and ``aes_blocks`` are clamped to ``cap`` while the
        workload graph, traffic mode and per-iteration rates stay identical.
        The traffic knobs are part of :meth:`fingerprint`, so the capped
        variant keys separately in every cache — a short-window result can
        never satisfy a full-window lookup.  Returns ``self`` unchanged when
        the cap is not binding (identical content = identical cache key, by
        design: the "low-fidelity" evaluation would be bit-identical).
        """
        if cap < 1:
            raise ConfigurationError("simulation cap must be at least 1")
        if self.repetitions <= cap and self.aes_blocks <= cap:
            return self
        return replace(
            self,
            repetitions=min(self.repetitions, cap),
            aes_blocks=min(self.aes_blocks, cap),
            params=dict(self.params),
            settings_overrides=dict(self.settings_overrides),
        )

    def fingerprint(self) -> dict[str, object]:
        """Content identity for cache keys: workload + traffic, not labels."""
        # the display name is deliberately absent: renaming a scenario must
        # not invalidate cached results for a content-identical workload
        # (the runner re-labels shared records with each cell's own name)
        return {**self.traffic_fingerprint(), **self.structural_fingerprint()}

    def traffic_fingerprint(self) -> dict[str, object]:
        """The part of :meth:`fingerprint` that says how the graph is driven."""
        return {
            "traffic": self.traffic,
            "repetitions": self.repetitions,
            "aes_blocks": self.aes_blocks,
            "computation_cycles_per_phase": self.computation_cycles_per_phase,
            "packet_size_bits": self.packet_size_bits,
            "params": {key: self.params[key] for key in sorted(self.params)},
        }

    def structural_fingerprint(self) -> dict[str, object]:
        """The workload-graph part of :meth:`fingerprint`.

        Content identity of the communication graph alone — nodes, weighted
        edges and floorplan positions.  This is all the decompose and
        synthesize/route stages read; traffic-stage knobs (repetitions, AES
        block counts, packet sizes) are deliberately absent so cells that
        differ only in how the workload is *driven* share one decomposition.
        """
        edges = sorted(
            (
                str(source),
                str(target),
                float(self.acg.volume(source, target)),
                float(self.acg.bandwidth(source, target)),
            )
            for source, target in self.acg.edges()
        )
        positions = {
            str(node): (self.acg.position(node).x, self.acg.position(node).y)
            for node in self.acg.nodes()
            if self.acg.has_position(node)
        }
        return {
            "nodes": sorted(str(node) for node in self.acg.nodes()),
            "edges": edges,
            "positions": {key: positions[key] for key in sorted(positions)},
        }


# ----------------------------------------------------------------------
# measurement substrate (shared with the prototype comparison)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArchitectureMetrics:
    """Measured figures of merit for one architecture under one workload.

    ``num_blocks`` counts AES blocks for phase traffic and injected ACG
    batches otherwise, so ``cycles_per_block`` reads as cycles per
    iteration for generic workloads.
    """

    name: str
    num_blocks: int
    total_cycles: int
    cycles_per_block: float
    throughput_mbps: float
    average_latency_cycles: float
    average_hops: float
    average_power_mw: float
    energy_per_block_uj: float
    num_physical_links: int
    max_channel_utilization: float
    engine: str = ENGINE_EVENT
    """Which simulator engine produced these figures (provenance only —
    both engines yield identical metrics by contract)."""
    cycles_stepped: int = 0
    """Cycles the engine actually executed; ``total_cycles`` minus this is
    the dead time the event engine skipped."""

    def as_dict(self) -> dict[str, object]:
        """Reporting-row view of the measured figures of merit."""
        return {
            "architecture": self.name,
            "cycles_per_block": self.cycles_per_block,
            "throughput_mbps": self.throughput_mbps,
            "avg_latency_cycles": self.average_latency_cycles,
            "avg_hops": self.average_hops,
            "avg_power_mw": self.average_power_mw,
            "energy_per_block_uj": self.energy_per_block_uj,
            "physical_links": self.num_physical_links,
        }


def _session_probe(simulator: NoCSimulator) -> SimulatorProbe | None:
    """Attach a fresh probe when the active obs session asks for capture.

    Returns ``None`` (and leaves the simulator untouched) outside a
    probe-capturing :class:`~repro.obs.ObsSession`, so the default path
    costs one contextvar read.
    """
    if not get_session().capture_probes:
        return None
    probe = SimulatorProbe()
    simulator.attach_probe(probe)
    return probe


def _flush_probe(probe: SimulatorProbe | None, statistics, name: str) -> None:
    """Publish a probe's per-router/per-channel figures into session metrics."""
    if probe is None:
        return
    metrics = get_session().metrics
    if metrics is not None:
        probe.emit_metrics(metrics, statistics, architecture=name)


def _aes_program(blocks: int, computation_cycles_per_phase: int) -> TrafficProgram:
    """Distributed-AES traffic: per phase of every block, schedule + drain,
    then idle for the local-computation allowance."""
    if computation_cycles_per_phase < 0:
        raise SimulationError("computation cycles per phase must be non-negative")
    aes = DistributedAES(FIPS197_KEY)
    plaintext = bytes(range(16))
    ops: list[ScheduleOp | DrainOp | RunOp] = []
    for block_index in range(blocks):
        block = bytes((byte + block_index) % 256 for byte in plaintext)
        for phase in aes.encrypt_block(block).phases:
            ops += [ScheduleOp(tuple(phase)), DrainOp()]
            if computation_cycles_per_phase:
                ops.append(RunOp(computation_cycles_per_phase))
    return TrafficProgram(tuple(ops), blocks, block_throughput=True)


def _acg_program(
    acg: ApplicationGraph, repetitions: int, packet_size_bits: int
) -> TrafficProgram:
    """ACG traffic: per repetition, schedule every edge's volume + drain."""
    messages = tuple(acg_messages(acg, packet_size_bits=packet_size_bits))
    return TrafficProgram((ScheduleOp(messages), DrainOp()) * repetitions, repetitions)


register_traffic_mode(
    TrafficModeSpec(
        name=TRAFFIC_ACG,
        description="inject every ACG edge's volume per repetition and drain",
        program=lambda scenario: _acg_program(
            scenario.acg, scenario.repetitions, scenario.packet_size_bits
        ),
    )
)

register_traffic_mode(
    TrafficModeSpec(
        name=TRAFFIC_AES_PHASES,
        description="dependency-aware distributed-AES phase trace",
        program=lambda scenario: _aes_program(
            scenario.aes_blocks, scenario.computation_cycles_per_phase
        ),
    )
)


def _replay(
    name: str,
    wire: Callable[[], WiredFabric],
    program: TrafficProgram,
    technology: Technology,
    simulator_config: SimulatorConfig,
) -> tuple[ArchitectureMetrics, NoCSimulator, SimulatorProbe | None]:
    """Run one traffic program on a fresh :class:`NoCSimulator`, measure it.

    ``wire`` gives the routed fabric, wired now or shared with earlier
    runs (the ``noc.setup`` span says which).  Returns the metrics, the
    simulator (for its ``engine_info``) and the session probe, if one was
    attached.
    """
    tracer = get_tracer()
    with tracer.span("noc.setup") as span:
        fabric = wire()
        simulator = NoCSimulator.from_fabric(
            fabric, config=simulator_config, technology=technology
        )
        if tracer.enabled:
            span.annotate(fabric="wired" if fabric.simulators == 1 else "shared")
    probe = _session_probe(simulator)
    for op in program.ops:
        if isinstance(op, ScheduleOp):
            simulator.schedule_messages(op.messages, memo=program.compiled)
        elif isinstance(op, DrainOp):
            simulator.run_until_drained(op.max_cycles)
        else:
            simulator.run(op.cycles)
    statistics = simulator.statistics
    _flush_probe(probe, statistics, name)
    total_cycles = statistics.total_cycles
    iterations = program.iterations
    cycles_per_block = total_cycles / iterations
    if program.block_throughput:
        throughput = throughput_mbps_from_cycles(
            AES_BLOCK_SIZE_BITS, cycles_per_block, technology.frequency_mhz
        )
    else:
        throughput = statistics.throughput_mbps(technology.frequency_mhz)
    metrics = ArchitectureMetrics(
        name=name,
        num_blocks=iterations,
        total_cycles=total_cycles,
        cycles_per_block=cycles_per_block,
        throughput_mbps=throughput,
        average_latency_cycles=statistics.average_latency_cycles(),
        average_hops=statistics.average_hops(),
        average_power_mw=simulator.energy.average_power_mw(max(total_cycles, 1)),
        energy_per_block_uj=simulator.energy.total_energy_uj / iterations,
        num_physical_links=fabric.num_physical_links,
        max_channel_utilization=statistics.max_channel_utilization(),
        engine=simulator.config.engine,
        cycles_stepped=simulator.cycles_stepped,
    )
    return metrics, simulator, probe


def build_baseline_fabric(
    acg: ApplicationGraph,
    family: str = "mesh",
    tile_pitch_mm: float = 2.0,
    flit_width_bits: int = 32,
) -> Topology:
    """The standard-fabric baseline of the named family for a scenario.

    Every ACG core becomes one fabric router; when the family needs more
    routers than the ACG has cores (a rectangular grid, an even spidergon
    ring) the spare slots are padded with traffic-less ``__pad*`` filler
    routers, so structured routing policies stay intact.  The mesh family
    uses the most-square grid that fits every core (16 cores -> 4x4,
    12 -> 3x4), exactly as the historical mesh baseline did.
    """
    nodes = list(acg.nodes())
    if not nodes:
        raise ConfigurationError("cannot build a fabric baseline for an empty ACG")
    spec = get_family(family)
    return spec.build(
        pad_node_ids(spec, nodes),
        tile_pitch_mm=tile_pitch_mm,
        flit_width_bits=flit_width_bits,
    )


def baseline_route_stage(
    scenario: Scenario, settings: EvaluationSettings
) -> tuple[Topology, RoutingTable, DeadlockReport]:
    """Build + route the standard-fabric baseline for one cell.

    The counterpart of :func:`synthesize_stage` + :func:`route_stage` for
    ``architecture="mesh"`` cells: instantiate the settings' topology
    family, compile its routing policy into a flat next-hop table, and run
    the CDG deadlock analysis over the scenario's traffic pairs.  Raises
    :class:`~repro.exceptions.RoutingError` when the policy does not
    support the family — an explicit exploration result, not a crash.
    """
    settings = scenario.effective_settings(settings)
    fabric = build_baseline_fabric(
        scenario.acg,
        family=settings.topology,
        tile_pitch_mm=settings.mesh_tile_pitch_mm,
        flit_width_bits=settings.flit_width_bits,
    )
    # only the scenario's traffic pairs are ever simulated or deadlock-
    # gated, so the table is restricted to them: same routed decisions,
    # none of the all-pairs work over __pad*/__sw* infrastructure routers
    table = get_policy(settings.routing_policy).build(fabric, scenario.acg.edges())
    deadlock_report = analyze_deadlock(table, scenario.acg.edges())
    return fabric, table, deadlock_report


# ----------------------------------------------------------------------
# the pipeline, stage by stage
# ----------------------------------------------------------------------
def run_decomposition_search(
    scenario: Scenario, settings: EvaluationSettings, memo: dict | None = None
) -> DecompositionResult:
    """The uncached decompose stage: run the search on the scenario's ACG.

    This is the expensive part of a custom-architecture evaluation; the
    pipeline reaches it through
    :meth:`~repro.dse.cache.StageContext.decomposition_for`, which runs it
    at most once per decomposition sub-key and passes its
    ``search_bases`` as ``memo``, so searches of one graph that differ only
    in their budgets share one basis (see
    :func:`~repro.core.decomposition.decompose`).
    """
    settings = scenario.effective_settings(settings)
    return decompose(
        scenario.acg,
        settings.build_library(),
        cost_model=LinkCountCostModel(),
        config=settings.build_decomposition_config(),
        memo=memo,
    )


def synthesize_stage(
    scenario: Scenario,
    settings: EvaluationSettings,
    decomposition: DecompositionResult,
) -> Topology:
    """Stage 2: instantiate the chosen primitives as a customized topology."""
    settings = scenario.effective_settings(settings)
    synthesizer = TopologySynthesizer(options=settings.build_synthesis_options())
    return synthesizer.build_topology(scenario.acg, decomposition)


def route_stage(
    scenario: Scenario,
    settings: EvaluationSettings,
    decomposition: DecompositionResult,
    topology: Topology,
) -> SynthesizedArchitecture:
    """Stage 3: routing table + constraint and deadlock analysis.

    :meth:`~repro.core.synthesis.TopologySynthesizer.route` on the stage-2
    topology, so the product is exactly what
    :func:`repro.core.synthesis.synthesize_architecture` builds in one go —
    the split exists so the synthesize/route product can be memoized under
    the synthesis sub-key.
    """
    settings = scenario.effective_settings(settings)
    synthesizer = TopologySynthesizer(options=settings.build_synthesis_options())
    return synthesizer.route(scenario.acg, decomposition, topology)


def fabric_content_key(topology: Topology, table: RoutingTable) -> Hashable:
    """Everything the simulator reads of a routed fabric, as a memo key.

    The fabric name (it labels the metrics), the router order and each
    router's input-port order -- the order channels into it were added,
    which sets its arbitration order -- plus :meth:`Topology.signature`
    (routers, positions and channel attributes) and the routing entries.
    Two separately built fabrics with equal keys simulate identically.
    """
    ports: dict[NodeId, list[NodeId]] = {node: [] for node in topology.routers()}
    for channel in topology.channels():
        ports[channel.target].append(channel.source)
    return (
        topology.name,
        tuple((node, tuple(sources)) for node, sources in ports.items()),
        json.dumps(topology.signature(), sort_keys=True),
        frozenset(table.entries().items()),
    )


@dataclass(frozen=True)
class SimulationRun:
    """One finished simulation, kept to serve later cells that repeat it.

    A cell at the run's own capacity repeats it exactly.  An unblocked run
    never failed a space test and no input buffer held more than
    ``peak_occupancy`` packets, so at any capacity above the peak every
    space test passes exactly as it did here and the run is bit-identical,
    ``cycles_stepped`` included (``docs/simulator.md``).
    """

    capacity: int
    blocked: bool
    """A space test failed, or the engine reports no certificate."""
    peak_occupancy: int
    metrics: ArchitectureMetrics
    probe: SimulatorProbe | None
    statistics: SimulationStatistics | None
    """The run's statistics, kept only beside a probe (re-emission)."""

    def serves(self, capacity: int) -> str | None:
        """The provenance a cell at ``capacity`` is served under, or None."""
        if capacity == self.capacity:
            return STAGE_REUSED_MEMORY
        if not self.blocked and capacity > self.peak_occupancy:
            return f"capacity:{self.capacity}"
        return None


def _simulate_cell(
    scenario: Scenario,
    settings: EvaluationSettings,
    topology: Topology,
    table: RoutingTable,
    context: StageContext,
) -> tuple[ArchitectureMetrics, SimulationRun | None, str | None]:
    """Simulate the scenario's traffic program, or serve an earlier run.

    The context's ``simulations`` memo is keyed by everything a run reads
    except ``buffer_capacity_packets``: the scenario (whose traffic program
    the context builds, and keeps alive, once) by identity, the routed
    fabric by content (:func:`fabric_content_key`), the technology and the
    other simulator settings by value.  A run at the cell's capacity, or an
    unblocked run whose peak occupancy is below it, serves the cell (see
    :meth:`SimulationRun.serves`).  Returns ``(metrics, run, provenance)``,
    with ``run`` and ``provenance`` None for a real run.
    """
    program = context.traffic_program(scenario)
    technology = settings.build_technology()
    config = settings.build_simulator_config()
    capturing = get_session().capture_probes
    key = (
        id(scenario),
        context.fabric_key(topology, table),
        technology,
        capturing,
        *(
            getattr(config, spec.name)
            for spec in fields(config)
            if spec.name != "buffer_capacity_packets"
        ),
    )
    capacity = config.buffer_capacity_packets
    runs = context.simulations.setdefault(key, [])
    for run in runs:
        provenance = run.serves(capacity)
        if provenance is not None:
            _flush_probe(run.probe, run.statistics, topology.name)
            return run.metrics, run, provenance
    metrics, simulator, probe = _replay(
        topology.name,
        lambda: context.wired_fabric(topology, table),
        program,
        technology,
        config,
    )
    info = simulator.engine_info()
    runs.append(
        SimulationRun(
            capacity=capacity,
            blocked=bool(info.get("blocked", True)),
            peak_occupancy=int(info.get("peak_occupancy", capacity)),
            metrics=metrics,
            probe=probe,
            statistics=simulator.statistics if probe is not None else None,
        )
    )
    return metrics, None, None


def score_stage(metrics: ArchitectureMetrics, topology: Topology) -> dict[str, float]:
    """Stage 5: flatten measured metrics into the record's figures of merit.

    ``sim_cycles_stepped`` is engine provenance: together with
    ``total_cycles`` it says how much dead time the configured simulator
    engine skipped for this cell (the engine name itself sits in the
    record's ``settings["engine"]``).

    Every function in the :data:`SCORES` registry contributes one extra
    ``{name: value}`` column on top of the built-in figures (a registered
    score that reuses a built-in key deliberately shadows it).
    """
    scores = {
        "sim_cycles_stepped": float(metrics.cycles_stepped),
        "total_cycles": float(metrics.total_cycles),
        "cycles_per_iteration": metrics.cycles_per_block,
        "avg_latency_cycles": metrics.average_latency_cycles,
        "avg_hops": metrics.average_hops,
        "throughput_mbps": metrics.throughput_mbps,
        "avg_power_mw": metrics.average_power_mw,
        "energy_uj": metrics.energy_per_block_uj * metrics.num_blocks,
        "energy_per_iteration_uj": metrics.energy_per_block_uj,
        "physical_links": float(metrics.num_physical_links),
        "max_channel_utilization": metrics.max_channel_utilization,
        "total_wire_mm": topology.total_wire_length_mm(),
    }
    for score_name in SCORES.names():
        scores[score_name] = float(SCORES.get(score_name)(metrics, topology))
    return scores


def _apply_deadlock_gate(
    record: EvaluationRecord,
    settings: EvaluationSettings,
    deadlock_report: DeadlockReport,
) -> None:
    """The route-stage CDG gate: record provenance, optionally fail the cell.

    Every routed cell gets ``deadlock_free`` plus a ``vc_channels_needed``
    metric (how many channels would need an extra virtual channel to break
    every dependency cycle).  With ``require_deadlock_free`` a cyclic CDG
    raises :class:`~repro.exceptions.DeadlockError`, which
    :func:`evaluate` records as a routing failure — nothing is ever
    silently simulated on a deadlocky table without provenance saying so.
    """
    record.deadlock_free = deadlock_report.is_deadlock_free
    record.metrics["vc_channels_needed"] = float(
        len(deadlock_report.channels_needing_virtual_channels)
    )
    if settings.require_deadlock_free and not deadlock_report.is_deadlock_free:
        raise DeadlockError(list(deadlock_report.cycle))


@contextmanager
def _stage(stage: str, record: EvaluationRecord) -> Iterator[object]:
    """Time one pipeline stage into ``stage_seconds`` and span it.

    Timing lands in the record even when the stage raises (the pipeline's
    failure statuses), so a failed cell still reports where its time went.
    The span is named ``dse.<stage>`` so trace summaries can break a
    sweep's wall clock down by stage; it is yielded for annotation.
    """
    start = time.perf_counter()
    with get_tracer().span(f"dse.{stage}") as span:
        try:
            yield span
        finally:
            record.stage_seconds[stage] = time.perf_counter() - start


# ----------------------------------------------------------------------
# the cell pipeline: prepare -> simulate(cells) -> score
# ----------------------------------------------------------------------
#: exception type -> record status.  Any other error (ConfigurationError,
#: WorkloadError, an unknown technology, ...) is a caller bug, not an
#: exploration outcome: it keeps raising rather than poison the result cache
#: with mislabeled failures.  DeadlockError is a RoutingError.
_FAILURE_STATUSES: dict[type[Exception], str] = {
    DecompositionError: STATUS_DECOMPOSITION_FAILED,
    SynthesisError: STATUS_SYNTHESIS_FAILED,
    RoutingError: STATUS_ROUTING_FAILED,
    SimulationError: STATUS_SIMULATION_FAILED,
}


@contextmanager
def _phase(record: EvaluationRecord) -> Iterator[None]:
    """Run one cell: its wall time and its failure status.

    The wall time lands in the record's ``runtime_seconds``; an exception
    listed in :data:`_FAILURE_STATUSES` becomes the record's status and
    error instead of propagating.
    """
    start = time.perf_counter()
    try:
        yield
    except tuple(_FAILURE_STATUSES) as error:
        record.status = next(
            status for kind, status in _FAILURE_STATUSES.items() if isinstance(error, kind)
        )
        record.error = str(error)
    finally:
        record.runtime_seconds += time.perf_counter() - start


def _record_decomposition(
    record: EvaluationRecord, decomposition: DecompositionResult
) -> None:
    """Copy the decompose stage's outputs into the record."""
    record.search_statistics = decomposition.statistics.as_dict()
    record.metrics.update(
        {
            "decomposition_cost": decomposition.total_cost,
            "num_matchings": float(decomposition.num_matchings),
            "remainder_edges": float(decomposition.remainder.num_edges),
            "covered_fraction": decomposition.covered_edge_fraction(),
        }
    )


def _prepare(
    scenario: Scenario,
    settings: EvaluationSettings,
    record: EvaluationRecord,
    context: StageContext,
) -> tuple[Topology, RoutingTable]:
    """Decompose -> synthesize -> route, or route the baseline fabric.

    Returns the routed fabric and its routing table.  The context reuses
    the decomposition, the synthesize/route product and the routed
    baseline fabric across cells sharing their stage sub-keys.
    """
    if settings.architecture == "mesh":
        with _stage("route", record):
            topology, table, deadlock_report = context.baseline_for(scenario, settings)
            _apply_deadlock_gate(record, settings, deadlock_report)
    else:
        with _stage("decompose", record):
            decomposition, provenance = context.decomposition_for(scenario, settings)
        record.stage_reuse["decompose"] = provenance
        _record_decomposition(record, decomposition)
        # the memoized synthesize+route product; one fused stage timing
        with _stage("synthesize", record):
            architecture, provenance = context.architecture_for(
                scenario, settings, decomposition
            )
        record.stage_reuse["synthesize"] = provenance
        record.constraints_satisfied = architecture.constraint_report.satisfied
        _apply_deadlock_gate(record, settings, architecture.deadlock_report)
        topology, table = architecture.topology, architecture.routing_table
    return topology, table


def _evaluate_cell(
    scenario: Scenario,
    settings: EvaluationSettings,
    key: str,
    axes: dict[str, object] | None,
    label: str,
    context: StageContext,
) -> EvaluationRecord:
    """Prepare, simulate and score one cell into its fresh record.

    The scenario's pins are applied to the grid ``settings`` first.  The
    cell runs inside its own ``dse.evaluate`` span, annotated with its
    status.  Its traffic program (memoized per scenario on the context) is
    replayed, or served from an earlier run of the same content
    (``stage_reuse["simulate"] = "memory"``) or a certified buffer-capacity
    sibling (``"capacity:<C>"``).
    """
    settings = scenario.effective_settings(settings)
    record = EvaluationRecord(
        scenario=scenario.name,
        architecture=settings.architecture,
        config_label=label or settings.architecture,
        cache_key=key,
        axes=dict(axes or {}),
        settings=settings.as_dict(),
    )
    with get_tracer().span(
        "dse.evaluate",
        scenario=scenario.name,
        architecture=settings.architecture,
        config=record.config_label,
    ) as span:
        with _phase(record):
            topology, table = _prepare(scenario, settings, record, context)
            with _stage("simulate", record) as simulate_span:
                metrics, donor, provenance = _simulate_cell(
                    scenario, settings, topology, table, context
                )
                if donor is not None:
                    record.stage_reuse["simulate"] = provenance
                    simulate_span.annotate(donor_capacity=donor.capacity)
            with _stage("score", record):
                record.metrics.update(score_stage(metrics, topology))
        span.annotate(status=record.status)
    return record


def _context_or_fresh(context: StageContext | None) -> StageContext:
    """The caller's context, or a fresh one for this call alone."""
    if context is not None:
        return context
    from repro.dse.cache import StageContext  # cache.py imports this module

    return StageContext()


def evaluate(
    scenario: Scenario,
    settings: EvaluationSettings,
    cache_key: str = "",
    config_label: str = "",
    axes: dict[str, object] | None = None,
    context: StageContext | None = None,
) -> EvaluationRecord:
    """Run the full pipeline for one (scenario, configuration) cell.

    The one-cell case of :func:`evaluate_cells`.  Never raises for
    workload/architecture failures: decomposition, synthesis, routing and
    simulation errors all come back as record statuses.  Only caller bugs
    (e.g. an unknown technology in a hand-built settings object) surface
    as exceptions.

    ``context`` is the :class:`~repro.dse.cache.StageContext` the cell runs
    under (a fresh one when omitted); cells evaluated under one context
    share every stage artifact and simulation run they have in common.
    """
    return _evaluate_cell(
        scenario, settings, cache_key, axes, config_label, _context_or_fresh(context)
    )


def axis_label(axes: Mapping[str, object]) -> str:
    """Compact human-readable cell label: ``arch=mesh,delay=2``."""
    if not axes:
        return "base"
    return ",".join(f"{key}={value}" for key, value in axes.items())


def evaluate_cells(
    cell_payloads: Sequence[tuple[Scenario, EvaluationSettings, dict[str, object], str]],
    context: StageContext | None = None,
) -> list[EvaluationRecord]:
    """Evaluate a sequence of sweep cells, one after another.

    The plural of :func:`evaluate`: records come back in payload order,
    each labelled with :func:`axis_label` of its axes, all under one
    context (a fresh one when omitted).
    """
    context = _context_or_fresh(context)
    return [
        _evaluate_cell(scenario, settings, key, axes, axis_label(axes), context)
        for scenario, settings, axes, key in cell_payloads
    ]

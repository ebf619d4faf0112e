"""Differential harness: the event and batch engines against the oracle.

The engine contract is "identical results, less work": on any traffic,
over any topology, every engine must produce the ``report()`` dict, the
per-packet delivery cycles and the per-packet paths of the cycle model
-- bit for bit, floats included.  The model is executed by
:class:`~simulator_oracle.OracleSimulator` (``tests/simulator_oracle.py``),
a plain implementation of ``docs/simulator.md``'s cycle rules that
shares no kernel code with the engines: it visits every router on every
cycle and retries a blocked arrival on every cycle.

Hypothesis drives randomized traffic (sources, destinations, sizes,
injection schedules) over both the 4x4 mesh baseline and a
synthesized-style irregular custom topology, across the
backpressure-relevant corner of a one-packet buffer and the design-space
grid's router axes (buffers of 1-8 packets, pipeline delays of 1-4
cycles), in drained, phased and open-loop runs.  Each candidate engine is
asserted against the oracle on its own, so a shrunk failure names the
engine that diverged.  The event engine's buffer-capacity certificate
(``blocked``, ``peak_occupancy``), its drain-budget errors and its
recovery from a routing error are checked too.  Batch-specific
strategies drive the multi-cell :class:`~repro.noc.batch.BatchSimulator`
at batch sizes 1, 2 and ragged groups, asserting that a cell's results
never depend on what else shares its batch.

Every test here carries the ``differential`` marker.  The default run
uses the example budgets below; the scheduled/labelled CI job raises
them uniformly via the ``REPRO_HYPOTHESIS_BUDGET`` multiplier (e.g.
``REPRO_HYPOTHESIS_BUDGET=8 pytest -m differential``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arch.mesh import build_mesh
from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.batch import BatchSimulator, DrainOp
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_BATCH,
    ENGINE_EVENT,
    NoCSimulator,
    SimulatorConfig,
)
from repro.obs import SimulatorProbe
from repro.routing.shortest_path import all_pairs_shortest_paths
from repro.routing.table import RoutingTable
from repro.routing.policies import get_policy
from simulator_oracle import OracleSimulator

pytestmark = pytest.mark.differential

#: uniform example-budget multiplier for the scheduled differential CI job
BUDGET = int(os.environ.get("REPRO_HYPOTHESIS_BUDGET", "1"))


#: the oracle and the engines independently diffed against it
ORACLE = "oracle"
CANDIDATES = (ENGINE_EVENT, ENGINE_BATCH)


def mesh_fabric() -> tuple[Topology, object]:
    mesh = build_mesh(4, 4)
    return mesh, get_policy("xy").build(mesh).frozen_next_hop()


def custom_fabric() -> tuple[Topology, object]:
    """An irregular synthesized-style topology: a hub, a ring and chords.

    Shaped like the custom architectures the synthesis flow emits: mixed
    router degrees, asymmetric link lengths, no grid regularity — the cases
    where per-(node, destination) table routing replaces XY.
    """
    topology = Topology(name="custom_irregular")
    ring = [0, 1, 2, 3, 4, 5]
    for index, node in enumerate(ring):
        topology.add_channel(node, ring[(index + 1) % len(ring)], length_mm=1.5, bidirectional=True)
    for spoke in (1, 3, 5):
        topology.add_channel(6, spoke, length_mm=2.5, bidirectional=True)
    topology.add_channel(0, 7, length_mm=1.0, bidirectional=True)
    topology.add_channel(7, 4, length_mm=3.0)
    table = RoutingTable(topology)
    # install first hops only: full-path installs from different sources may
    # disagree mid-path, but per-pair first hops along BFS-shortest paths
    # strictly decrease the distance to the destination, so they are
    # conflict-free and loop-free
    for (source, destination), path in all_pairs_shortest_paths(topology).items():
        table.set_next_hop(source, destination, path[1])
    return topology, table.frozen_next_hop()


def ring_fabric() -> tuple[Topology, object]:
    """A one-way ring of six routers: dense traffic at small buffers
    deadlocks it, every buffer on the ring full."""
    topology = Topology(name="ring")
    for node in range(6):
        topology.add_channel(node, (node + 1) % 6, length_mm=1.0)
    return topology, lambda current, destination: (current + 1) % 6


FABRICS = {"mesh_4x4": mesh_fabric, "custom": custom_fabric}


def build(
    engine: str,
    fabric: tuple[Topology, object],
    buffer_capacity: int = 4,
    pipeline_delay: int = 1,
) -> NoCSimulator | OracleSimulator:
    """A simulator of ``engine`` (or the oracle) on a fresh fabric."""
    topology, routing = fabric
    config = SimulatorConfig(
        engine=ENGINE_EVENT if engine == ORACLE else engine,
        buffer_capacity_packets=buffer_capacity,
        router_pipeline_delay_cycles=pipeline_delay,
    )
    if engine == ORACLE:
        return OracleSimulator(topology, routing, config=config)
    return NoCSimulator(topology, routing, config=config)


def traffic_messages(
    topology: Topology, traffic: list[tuple[int, int, int, int]]
) -> list[tuple[int, Message]]:
    """Resolve raw traffic tuples into per-cycle messages on a fabric.

    Self-sends are dropped; when nothing survives, one fallback message is
    injected so ``report()`` (which needs a delivery) stays defined.
    """
    nodes = topology.routers()
    resolved: list[tuple[int, Message]] = []
    for cycle, source_index, destination_index, size_bits in traffic:
        source = nodes[source_index % len(nodes)]
        destination = nodes[destination_index % len(nodes)]
        if source == destination:
            continue
        resolved.append((cycle, Message(source, destination, size_bits)))
    if not resolved:
        resolved.append((0, Message(nodes[0], nodes[1], 32)))
    return resolved


def phased_messages(
    topology: Topology, traffic: list[tuple[int, int, int, int]], count: int
) -> list[list[Message]]:
    """The traffic dealt round-robin into ``count`` phases."""
    phases: list[list[Message]] = [[] for _ in range(count)]
    for index, (_, message) in enumerate(traffic_messages(topology, traffic)):
        phases[index % count].append(message)
    return phases


def run_engine(
    engine: str,
    fabric: str,
    traffic: list[tuple[int, int, int, int]],
    buffer_capacity: int,
    pipeline_delay: int,
    probed: bool = False,
) -> NoCSimulator | OracleSimulator:
    topology, routing = FABRICS[fabric]()
    simulator = build(engine, (topology, routing), buffer_capacity, pipeline_delay)
    if probed:
        simulator.attach_probe(SimulatorProbe())
    for cycle, message in traffic_messages(topology, traffic):
        simulator.schedule_message(message, cycle=cycle)
    simulator.run_until_drained()
    return simulator


def run_all_engines(
    fabric: str,
    traffic: list[tuple[int, int, int, int]],
    buffer_capacity: int,
    pipeline_delay: int,
) -> dict[str, NoCSimulator | OracleSimulator]:
    """One identical run per engine, oracle first."""
    return {
        engine: run_engine(engine, fabric, traffic, buffer_capacity, pipeline_delay)
        for engine in (ORACLE, *CANDIDATES)
    }


def unprobed(report: dict[str, float]) -> dict[str, float]:
    """The report without the figures a probe contributes."""
    return {key: value for key, value in report.items() if not key.startswith("probe_")}


def report_or_error(simulator) -> tuple[object, object]:
    """``(report minus probe figures, None)``, or ``(None, (type, text))``
    when the figures are undefined (nothing delivered yet)."""
    try:
        return unprobed(simulator.report()), None
    except SimulationError as error:
        return None, (type(error), str(error))


def paths(simulator) -> dict[int, list]:
    return {packet.packet_id: packet.path for packet in simulator.statistics.delivered_packets}


def stuck(simulator) -> list[tuple]:
    return [
        (packet.packet_id, where, packet.hops, list(packet.path))
        for packet, where in simulator.stuck_packets()
    ]


def assert_equivalent(candidate: NoCSimulator, oracle: OracleSimulator) -> None:
    """The bit-exactness contract between one engine and the oracle.

    The batch engine keeps no capacity certificate.  The event engine's
    peak occupancy is the model's; its ``blocked`` flag may also be set
    by its re-arm space test, which the model does not make, so it must
    be set whenever the oracle's is.
    """
    assert report_or_error(candidate) == report_or_error(oracle)
    assert candidate.statistics.delivery_cycles() == oracle.statistics.delivery_cycles()
    assert paths(candidate) == paths(oracle)
    assert candidate.current_cycle == oracle.current_cycle
    assert stuck(candidate) == stuck(oracle)
    if candidate.config.engine == ENGINE_EVENT:
        info, model = candidate.engine_info(), oracle.engine_info()
        assert info["peak_occupancy"] == model["peak_occupancy"]
        assert info["blocked"] or not model["blocked"]


def assert_all_equivalent(runs: dict[str, NoCSimulator | OracleSimulator]) -> None:
    """Every candidate engine against the oracle, one at a time."""
    for engine in CANDIDATES:
        assert_equivalent(runs[engine], runs[ORACLE])


traffic_entries = st.tuples(
    st.integers(min_value=0, max_value=120),  # injection cycle
    st.integers(min_value=0, max_value=15),  # source index
    st.integers(min_value=0, max_value=15),  # destination index
    st.sampled_from([8, 32, 64, 96, 256]),  # size in bits (1..8 flits)
)

#: the design-space grid's router axes (plus the one-packet corner)
grid_buffers = st.sampled_from([1, 2, 4, 8])
grid_delays = st.sampled_from([1, 2, 4])


def budget(base: int) -> settings:
    """Hypothesis settings with ``base`` examples, scaled by the CI budget."""
    return settings(
        max_examples=base * BUDGET, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


@budget(30)
@given(
    traffic=st.lists(traffic_entries, min_size=12, max_size=40),
    window=st.sampled_from([8, 121]),
    buffer_capacity=grid_buffers,
    pipeline_delay=grid_delays,
)
def test_mesh_engines_equivalent(traffic, window, buffer_capacity, pipeline_delay):
    """Injections spread over 121 cycles, or bursts within 8 that fill
    buffers and park arrivals (XY routing on the mesh cannot deadlock, so
    every drain ends)."""
    traffic = [(cycle % window, *rest) for cycle, *rest in traffic]
    assert_all_equivalent(
        run_all_engines("mesh_4x4", traffic, buffer_capacity, pipeline_delay)
    )


@budget(30)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=40),
    buffer_capacity=st.integers(min_value=1, max_value=8),
    pipeline_delay=st.sampled_from([1, 2, 3, 4]),
)
def test_custom_topology_engines_equivalent(traffic, buffer_capacity, pipeline_delay):
    assert_all_equivalent(
        run_all_engines("custom", traffic, buffer_capacity, pipeline_delay)
    )


@budget(20)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=32),
    fabric=st.sampled_from(sorted(FABRICS)),
    buffer_capacity=st.sampled_from([1, 2]),
    pipeline_delay=st.sampled_from([1, 2]),
)
def test_probed_engines_equivalent_and_unperturbed(
    traffic, fabric, buffer_capacity, pipeline_delay
):
    """Probes observe without perturbing.

    Both engines run with a `SimulatorProbe` attached: they must agree on
    the full report, `probe_*` figures included, and stripping those
    figures must give the oracle's report and the unprobed engine's
    (attaching a probe never changes what is simulated).
    """
    oracle = run_engine(ORACLE, fabric, traffic, buffer_capacity, pipeline_delay)
    probed = {
        engine: run_engine(engine, fabric, traffic, buffer_capacity, pipeline_delay, probed=True)
        for engine in CANDIDATES
    }
    reports = {engine: simulator.report() for engine, simulator in probed.items()}
    assert reports[ENGINE_EVENT] == reports[ENGINE_BATCH]
    assert any(key.startswith("probe_") for key in reports[ENGINE_EVENT])
    for engine, simulator in probed.items():
        assert_equivalent(simulator, oracle)
        plain = run_engine(engine, fabric, traffic, buffer_capacity, pipeline_delay)
        assert unprobed(reports[engine]) == plain.report()
        assert simulator.statistics.delivery_cycles() == plain.statistics.delivery_cycles()


@budget(20)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=24),
    computation=st.integers(min_value=0, max_value=20),
)
def test_phased_execution_equivalent(traffic, computation):
    """Phased traffic (schedule, drain, idle): the analytic idle jump
    matches the stepped idle crawl."""
    runs = {}
    for engine in (ORACLE, *CANDIDATES):
        topology, routing = mesh_fabric()
        simulator = build(engine, (topology, routing))
        drained = []
        for phase in phased_messages(topology, traffic, 3):
            simulator.schedule_messages(phase)
            drained.append(simulator.run_until_drained())
            if computation:
                simulator.run(computation)
        runs[engine] = (simulator, drained)
    oracle, oracle_drained = runs[ORACLE]
    for engine in CANDIDATES:
        candidate, drained = runs[engine]
        assert drained == oracle_drained
        assert_equivalent(candidate, oracle)


@budget(20)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=24),
    fabric=st.sampled_from(sorted(FABRICS)),
    buffer_capacity=grid_buffers,
    pipeline_delay=grid_delays,
    computation=st.integers(min_value=1, max_value=12),
)
def test_phased_grid_point_event_matches_oracle(
    traffic, fabric, buffer_capacity, pipeline_delay, computation
):
    """Phased traffic at a design-space grid point, the event engine's
    regime in the explorer: schedule a phase, drain it, then jump the
    computation allowance -- per-phase drain cycles, reports, delivery
    cycles and paths must match the oracle, which steps every idle
    cycle."""
    runs = {}
    for engine in (ORACLE, ENGINE_EVENT):
        topology, routing = FABRICS[fabric]()
        simulator = build(engine, (topology, routing), buffer_capacity, pipeline_delay)
        drained = []
        for phase in phased_messages(topology, traffic, 4):
            simulator.schedule_messages(phase)
            drained.append(simulator.run_until_drained())
            simulator.run(computation)
        runs[engine] = (simulator, drained)
    oracle, oracle_drained = runs[ORACLE]
    candidate, drained = runs[ENGINE_EVENT]
    assert drained == oracle_drained
    assert_equivalent(candidate, oracle)


@budget(15)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=40),
    fabric=st.sampled_from(sorted(FABRICS)),
    buffer_capacity=grid_buffers,
    pipeline_delay=grid_delays,
    horizons=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=3),
)
def test_open_loop_run_equivalent(traffic, fabric, buffer_capacity, pipeline_delay, horizons):
    """Fixed-horizon ``run()`` windows (open loop, undelivered traffic
    allowed).

    The horizons can cut packets off in flight or parked; the engines
    must agree with the oracle on the partial state too: the report (or
    the error when nothing was delivered yet), delivery cycles, paths, the
    stuck packets and the clock.
    """
    runs = {}
    for engine in (ORACLE, *CANDIDATES):
        topology, routing = FABRICS[fabric]()
        simulator = build(engine, (topology, routing), buffer_capacity, pipeline_delay)
        for cycle, message in traffic_messages(topology, traffic):
            simulator.schedule_message(message, cycle=cycle)
        for horizon in horizons:
            simulator.run(horizon)
        runs[engine] = simulator
    assert_all_equivalent(runs)


@budget(20)
@given(
    traffic=st.lists(traffic_entries, min_size=1, max_size=40),
    fabric=st.sampled_from(["custom", "mesh_4x4", "ring"]),
    buffer_capacity=st.sampled_from([1, 2]),
    pipeline_delay=grid_delays,
    drain_budget=st.integers(min_value=0, max_value=60),
)
def test_drain_budget_errors_equivalent(
    traffic, fabric, buffer_capacity, pipeline_delay, drain_budget
):
    """A drain that overruns its budget (a short budget, or a deadlocked
    ring) raises the same error on the same cycle on both engines as in
    the oracle, naming the same stuck packets."""
    fabrics = {**FABRICS, "ring": ring_fabric}
    outcomes = {}
    for engine in (ORACLE, *CANDIDATES):
        topology, routing = fabrics[fabric]()
        simulator = build(engine, (topology, routing), buffer_capacity, pipeline_delay)
        for cycle, message in traffic_messages(topology, traffic):
            simulator.schedule_message(message, cycle=cycle % 8)
        try:
            simulator.run_until_drained(max_cycles=drain_budget)
            error = None
        except SimulationError as raised:
            error = str(raised)
        outcomes[engine] = (simulator, error)
    oracle, oracle_error = outcomes[ORACLE]
    for engine in CANDIDATES:
        candidate, error = outcomes[engine]
        assert error == oracle_error
        if error is None:
            assert_equivalent(candidate, oracle)
        else:  # the error names the stuck packets; figures are not final
            assert candidate.statistics.delivery_cycles() == oracle.statistics.delivery_cycles()
            assert candidate.current_cycle == oracle.current_cycle
            assert stuck(candidate) == stuck(oracle)


class Unroutable(LookupError):
    """What a broken routing function raises (not a library error)."""


@budget(20)
@example(  # a popped queue's new head needs the broken decision
    traffic=[(0, 0, 1, 8), (0, 0, 2, 8)],
    fabric="mesh_4x4",
    buffer_capacity=1,
    pipeline_delay=1,
    broken=1,
    failing_error=Unroutable,
    retries=1,
)
@given(
    traffic=st.lists(traffic_entries, min_size=8, max_size=40),
    fabric=st.sampled_from(sorted(FABRICS)),
    buffer_capacity=st.sampled_from([1, 2, 4]),
    pipeline_delay=grid_delays,
    broken=st.integers(min_value=0, max_value=39),
    failing_error=st.sampled_from([Unroutable, SimulationError]),
    retries=st.integers(min_value=0, max_value=2),
)
def test_routing_error_then_repeated_run_equivalent(
    traffic, fabric, buffer_capacity, pipeline_delay, broken, failing_error, retries
):
    """A routing function that raises for one (router, destination) pair,
    a message's first hop, cuts the run short on the cycle the oracle
    first asks for that decision, leaving the clock there.  Repeating the run re-executes that
    cycle, visiting every loaded router again: while the routing stays
    broken it fails the same way each time, and once mended the run
    drains to the oracle's report."""
    outcomes = {}
    for engine in (ORACLE, ENGINE_EVENT):
        topology, routing = FABRICS[fabric]()
        messages = traffic_messages(topology, traffic)
        _, message = messages[broken % len(messages)]
        pair = (message.source, message.destination)
        state = {"broken": True}

        def flaky(current, destination, routing=routing, pair=pair, state=state):
            if state["broken"] and (current, destination) == pair:
                raise failing_error(f"no route from {current!r} to {destination!r}")
            return routing(current, destination)

        simulator = build(engine, (topology, flaky), buffer_capacity, pipeline_delay)
        for cycle, message in messages:
            simulator.schedule_message(message, cycle=cycle % 8)  # bursts queue up
        failures = []
        for _ in range(1 + retries):
            try:
                simulator.run_until_drained()
                failures.append(None)
            except failing_error as error:
                failures.append((str(error), simulator.current_cycle, stuck(simulator)))
        state["broken"] = False
        simulator.run_until_drained()
        outcomes[engine] = (simulator, failures)
    oracle, oracle_failures = outcomes[ORACLE]
    candidate, failures = outcomes[ENGINE_EVENT]
    assert failures == oracle_failures
    assert_equivalent(candidate, oracle)


# ----------------------------------------------------------------------
# batch-specific strategies: multi-cell batches vs solo oracles
# ----------------------------------------------------------------------
#: one batch cell: (traffic, buffer capacity, pipeline delay)
cell_workloads = st.tuples(
    st.lists(traffic_entries, min_size=1, max_size=16),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2]),
)


@budget(15)
@given(
    cells=st.lists(cell_workloads, min_size=1, max_size=5),
    fabric=st.sampled_from(sorted(FABRICS)),
)
def test_batched_cells_match_solo_oracle(cells, fabric):
    """A multi-cell batch equals per-cell oracle runs, cell for cell.

    Batch sizes shrink down through the interesting cases (1, 2, and the
    ragged sizes a chunked sweep produces); each cell carries its own
    traffic and simulator knobs, so the test also certifies that batching
    heterogeneous configurations never couples them.
    """
    topology, routing = FABRICS[fabric]()
    core = BatchSimulator(
        topology,
        routing,
        [
            SimulatorConfig(
                engine=ENGINE_BATCH,
                buffer_capacity_packets=capacity,
                router_pipeline_delay_cycles=delay,
            )
            for _, capacity, delay in cells
        ],
    )
    for position, (traffic, _, _) in enumerate(cells):
        for cycle, message in traffic_messages(topology, traffic):
            core.schedule_message(position, message, cycle=cycle)
        core.enqueue(position, DrainOp(None))
    core.execute(raise_errors=True)
    for position, (traffic, capacity, delay) in enumerate(cells):
        solo = run_engine(ORACLE, fabric, traffic, capacity, delay)
        core.flush_energy(position)
        statistics = core.statistics(position)
        assert statistics.delivery_cycles() == solo.statistics.delivery_cycles()
        batched_paths = {p.packet_id: p.path for p in statistics.delivered_packets}
        assert batched_paths == paths(solo)
        assert statistics.summary() == solo.statistics.summary()
        assert core.energy(position).summary() == solo.energy.summary()
        assert core.current_cycle(position) == solo.current_cycle


@budget(10)
@given(
    cells=st.lists(cell_workloads, min_size=2, max_size=5),
    fabric=st.sampled_from(sorted(FABRICS)),
)
def test_batch_composition_invariance(cells, fabric):
    """A cell's results are invariant under batch composition and order.

    The same cells run (a) all in one batch and (b) each alone in a
    single-cell batch, in reversed order; every per-cell figure — including
    ``cycles_stepped``, which solo-vs-batched bugs would skew first — must
    be identical.  This is the bug class batching introduces.
    """
    def run_grouped(grouping: list[list[int]]) -> dict[int, tuple]:
        results: dict[int, tuple] = {}
        for group in grouping:
            topology, routing = FABRICS[fabric]()
            core = BatchSimulator(
                topology,
                routing,
                [
                    SimulatorConfig(
                        engine=ENGINE_BATCH,
                        buffer_capacity_packets=cells[index][1],
                        router_pipeline_delay_cycles=cells[index][2],
                    )
                    for index in group
                ],
            )
            for position, index in enumerate(group):
                for cycle, message in traffic_messages(topology, cells[index][0]):
                    core.schedule_message(position, message, cycle=cycle)
                core.enqueue(position, DrainOp(None))
            core.execute(raise_errors=True)
            for position, index in enumerate(group):
                core.flush_energy(position)
                results[index] = (
                    core.statistics(position).summary(),
                    core.statistics(position).delivery_cycles(),
                    core.energy(position).summary(),
                    core.current_cycle(position),
                    core.cycles_stepped(position),
                )
        return results

    together = run_grouped([list(range(len(cells)))])
    solo_reversed = run_grouped([[index] for index in reversed(range(len(cells)))])
    assert together == solo_reversed

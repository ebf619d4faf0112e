"""Unit tests for the event-driven engine's bookkeeping and the satellites.

The equivalence property suite (``tests/property/test_engine_equivalence``)
establishes that the engines agree with the oracle of the cycle model
(``tests/simulator_oracle.py``); this file pins down the mechanisms —
active-set wake-ups, idle-cycle skipping, leakage finalization, stuck-packet
diagnostics — with deterministic scenarios.
"""

from __future__ import annotations

import pytest

from repro.arch.mesh import build_mesh
from repro.arch.topology import Topology
from repro.exceptions import SimulationError
from repro.noc.packet import Message
from repro.noc.simulator import (
    ENGINE_BATCH,
    ENGINE_EVENT,
    ENGINES,
    DrainOp,
    NoCSimulator,
    RunOp,
    SimulatorConfig,
)
from repro.noc.traffic import InjectionSchedule, uniform_random_messages
from repro.routing.policies import get_policy
from simulator_oracle import OracleSimulator


def chain_topology(length: int = 4) -> Topology:
    topology = Topology(name="chain")
    for node in range(length - 1):
        topology.add_channel(node, node + 1, length_mm=1.0, bidirectional=True)
    return topology


def chain_simulator(**config_overrides) -> NoCSimulator:
    topology = chain_topology()

    def forward(current, destination):
        return current + 1 if destination > current else current - 1

    return NoCSimulator(topology, forward, config=SimulatorConfig(**config_overrides))


def mesh_simulator(simulator: type = NoCSimulator) -> NoCSimulator:
    """The 4x4 mesh under XY routing; ``simulator`` may be the oracle's class."""
    mesh = build_mesh(4, 4)
    return simulator(mesh, get_policy("xy").build(mesh).frozen_next_hop())


class TestEngineConfig:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            SimulatorConfig(engine="warp")

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("flit_width_bits", 0, "flit width must be positive"),
            ("flit_width_bits", -32, "flit width must be positive"),
            ("buffer_capacity_packets", 0, "router buffers must hold at least one packet"),
            ("router_pipeline_delay_cycles", 0, "router pipeline delay must be at least one"),
            ("max_cycles", 0, "the cycle budget must be at least one cycle"),
        ],
    )
    def test_bad_config_rejected_at_construction(self, field, value, message):
        """A bad knob fails when the config is built, not at the first
        scheduled packet or router visit."""
        with pytest.raises(SimulationError, match=message):
            SimulatorConfig(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "flit_width_bits",
            "buffer_capacity_packets",
            "router_pipeline_delay_cycles",
            "max_cycles",
        ],
    )
    def test_smallest_valid_config_accepted(self, field):
        assert getattr(SimulatorConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize(
        "field",
        [
            "flit_width_bits",
            "buffer_capacity_packets",
            "router_pipeline_delay_cycles",
            "max_cycles",
        ],
    )
    @pytest.mark.parametrize("value", [1.5, 8.0, True, "4"])
    def test_non_int_count_rejected(self, field, value):
        with pytest.raises(SimulationError, match=f"{field} must be an int"):
            SimulatorConfig(**{field: value})

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_info_reports_skipped_cycles(self, engine):
        simulator = chain_simulator(engine=engine)
        simulator.schedule_message(Message(0, 3, 32), cycle=100)
        simulator.run_until_drained()
        info = simulator.engine_info()
        assert info["engine"] == engine
        assert info["cycles_total"] == simulator.current_cycle
        assert info["cycles_stepped"] + info["cycles_skipped"] == info["cycles_total"]
        # the 100 idle warm-up cycles must not have been executed
        assert info["cycles_skipped"] >= 100


class TestActiveSetBookkeeping:
    """A router never sleeps while it can make progress."""

    def test_lone_packet_skips_serialization_gaps(self):
        """A single multi-flit packet is only processed at launch/arrival
        cycles; the serialization + pipeline dead time in between is
        skipped — and the packet still arrives."""
        simulator = chain_simulator(router_pipeline_delay_cycles=2)
        simulator.schedule_message(Message(0, 3, 32 * 8))  # 8 flits
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered
        assert simulator.cycles_stepped < simulator.current_cycle

    @pytest.mark.parametrize("engine", ENGINES)
    def test_backpressure_wake_on_space(self, engine):
        """With one-packet buffers, every forward depends on the downstream
        pop; only the pop-side wake can keep upstream routers moving."""
        simulator = chain_simulator(engine=engine, buffer_capacity_packets=1)
        for _ in range(12):
            simulator.schedule_message(Message(0, 3, 64))
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered

    @pytest.mark.parametrize("engine", ENGINES)
    def test_arbitration_loser_is_rearmed(self, engine):
        """Two sources feeding one ejection port: the round-robin loser must
        wake again by itself (no arrival or channel event helps it)."""
        topology = Topology(name="fan_in")
        topology.add_channel(1, 0, length_mm=1.0)
        topology.add_channel(2, 0, length_mm=1.0)
        simulator = NoCSimulator(
            topology, lambda current, dest: 0, config=SimulatorConfig(engine=engine)
        )
        for source in (1, 2):
            for _ in range(3):
                simulator.schedule_message(Message(source, 0, 32))
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered

    def test_loser_rearms_before_a_later_scheduled_wake(self):
        """The re-arm scan is skipped only when a wake at or before the next
        cycle is already scheduled.  Here R already waits until cycle 8 (V's
        packet behind the 8-flit launch on R->X) when, at cycle 5, U's and
        R's own packets for Y contend: the loser must wake at 6, not 8."""

        def run(simulator_class: type) -> NoCSimulator:
            topology = Topology(name="rearm")
            for source, target in (("U", "R"), ("V", "R"), ("R", "X"), ("R", "Y")):
                topology.add_channel(source, target, length_mm=1.0)
            hops = {("U", "Y"): "R", ("V", "X"): "R", ("R", "X"): "X", ("R", "Y"): "Y"}
            simulator = simulator_class(
                topology,
                lambda current, destination: hops[current, destination],
                config=SimulatorConfig(router_pipeline_delay_cycles=1),
            )
            simulator.schedule_message(Message("R", "X", 256), cycle=0)
            simulator.schedule_message(Message("V", "X", 32), cycle=0)
            simulator.schedule_message(Message("U", "Y", 32), cycle=3)
            simulator.schedule_message(Message("R", "Y", 32), cycle=5)
            simulator.run_until_drained()
            return simulator

        event, oracle = run(NoCSimulator), run(OracleSimulator)
        assert oracle.statistics.delivery_cycles() == {0: 9, 1: 10, 2: 8, 3: 7}
        assert event.statistics.delivery_cycles() == oracle.statistics.delivery_cycles()
        assert event.report() == oracle.report()

    def test_no_wake_leaks_after_drain(self):
        """After draining, any leftover speculative wakes must be harmless:
        a fresh run on the same simulator still matches the oracle."""
        runs = {}
        for simulator_class in (NoCSimulator, OracleSimulator):
            simulator = mesh_simulator(simulator_class)
            simulator.schedule_messages(
                uniform_random_messages(simulator.topology.routers(), 30, seed=3)
            )
            simulator.run_until_drained()
            simulator.schedule_messages(
                uniform_random_messages(simulator.topology.routers(), 30, seed=4)
            )
            simulator.run_until_drained()
            runs[simulator_class] = simulator
        assert runs[NoCSimulator].report() == runs[OracleSimulator].report()

    def test_open_loop_schedule_skips_idle_gaps(self):
        simulator = mesh_simulator()
        messages = uniform_random_messages(simulator.topology.routers(), 40, seed=1)
        InjectionSchedule.periodic(messages, period_cycles=25, seed=1).schedule_onto(
            simulator
        )
        simulator.run_until_drained()
        assert simulator.statistics.all_delivered
        # the schedule spreads 40 injections over ~1000 cycles; the engine
        # must execute only a fraction of them
        assert simulator.cycles_stepped < simulator.current_cycle / 2


class TestLeakageFinalization:
    """Satellite: `_leakage_charged_until` lives in __init__ and interleaved
    run()/run_until_drained() calls charge leakage exactly once per cycle."""

    def expected_leakage_pj(self, simulator: NoCSimulator) -> float:
        technology = simulator.technology
        return (
            technology.leakage_power_mw_per_router
            * simulator.topology.num_routers
            * simulator.current_cycle
            * technology.cycle_time_ns
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_interleaved_runs_charge_leakage_exactly_once(self, engine):
        simulator = chain_simulator(engine=engine)
        simulator.schedule_message(Message(0, 3, 64))
        simulator.run_until_drained()
        simulator.run(17)  # idle stretch
        simulator.schedule_message(Message(3, 0, 64))
        simulator.run_until_drained()
        simulator.run(5)
        assert simulator.energy.leakage_energy_pj == pytest.approx(
            self.expected_leakage_pj(simulator)
        )

    def test_leakage_state_initialized_in_constructor(self):
        simulator = chain_simulator()
        assert simulator._leakage_charged_until == 0

    def test_repeated_finalize_is_idempotent(self):
        simulator = chain_simulator()
        simulator.schedule_message(Message(0, 2, 64))
        simulator.run_until_drained()
        charged = simulator.energy.leakage_energy_pj
        simulator.run(0)
        simulator.run(0)
        assert simulator.energy.leakage_energy_pj == charged


class TestStuckPacketDiagnostics:
    """Satellite: drain-budget errors name the stuck packets."""

    def stuck_simulator(
        self, simulator_class: type = NoCSimulator, engine: str = ENGINE_EVENT
    ) -> NoCSimulator:
        topology = chain_topology()
        topology.add_router(99)  # unreachable destination
        simulator = simulator_class(
            topology,
            lambda current, dest: current + 1 if current < 3 else current - 1,
            config=SimulatorConfig(engine=engine, max_cycles=60),
        )
        simulator.schedule_message(Message(0, 99, 64))
        return simulator

    @pytest.mark.parametrize("engine", ENGINES)
    def test_error_names_packet_position_destination_hops(self, engine):
        simulator = self.stuck_simulator(engine=engine)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_until_drained(max_cycles=40)
        message = str(excinfo.value)
        assert "did not drain within 40 cycles" in message
        assert "#0 at " in message  # packet id + current position
        assert "-> 99" in message  # destination
        assert "hops" in message

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_raises_the_oracles_message(self, engine):
        errors = {}
        for simulator_class in (NoCSimulator, OracleSimulator):
            simulator = self.stuck_simulator(simulator_class, engine)
            with pytest.raises(SimulationError) as excinfo:
                simulator.run_until_drained(max_cycles=40)
            errors[simulator_class] = str(excinfo.value)
        assert errors[NoCSimulator] == errors[OracleSimulator]

    def deadlocked_ring(
        self, simulator_class: type = NoCSimulator, engine: str = ENGINE_EVENT
    ) -> NoCSimulator:
        """Every one-packet buffer of a ring ends up holding a packet
        waiting on the next full buffer clockwise."""
        topology = Topology(name="ring")
        for node in range(4):
            topology.add_channel(node, (node + 1) % 4)
        simulator = simulator_class(
            topology,
            lambda current, destination: (current + 1) % 4,
            config=SimulatorConfig(engine=engine, buffer_capacity_packets=1),
        )
        simulator.schedule_messages(
            [Message(node, (node + 3) % 4, 32) for node in range(4) for _ in range(3)]
        )
        return simulator

    def test_overrun_lands_on_the_oracles_cycle(self):
        """A deadlocked ring: both engines give up on the cycle after the
        budget, as the oracle does, with the same message and stuck
        packets."""
        outcomes = {}
        for simulator_class, engine in (
            (NoCSimulator, ENGINE_EVENT),
            (NoCSimulator, ENGINE_BATCH),
            (OracleSimulator, ENGINE_EVENT),
        ):
            simulator = self.deadlocked_ring(simulator_class, engine)
            start = simulator.current_cycle
            with pytest.raises(SimulationError) as excinfo:
                simulator.run_until_drained(max_cycles=50)
            assert simulator.current_cycle == start + 51
            stuck = [(packet.packet_id, where) for packet, where in simulator.stuck_packets()]
            outcomes[simulator_class, engine] = (str(excinfo.value), stuck)
        event = outcomes[NoCSimulator, ENGINE_EVENT]
        assert "did not drain within 50 cycles (12 packets stuck" in event[0]
        assert event == outcomes[NoCSimulator, ENGINE_BATCH]
        assert event == outcomes[OracleSimulator, ENGINE_EVENT]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_stuck_packet_view_walks_its_routing_loop(self, engine):
        """The packet bounces between routers 2 and 3; its path is walked
        through the resolved routes, once per hop, loop included."""
        simulator = self.stuck_simulator(engine=engine)
        with pytest.raises(SimulationError, match=r"#0 at 2 -> 99 \(14 hops\)"):
            simulator.run_until_drained(max_cycles=40)
        [(packet, where)] = simulator.stuck_packets()
        assert (packet.packet_id, where, packet.hops) == (0, 2, 14)
        assert packet.path == [0, 1, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2]
        assert packet.delivery_cycle is None and packet.injection_cycle == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadlocked_packets_keep_their_hops_and_paths(self, engine):
        simulator = self.deadlocked_ring(engine=engine)
        with pytest.raises(SimulationError):
            simulator.run_until_drained(max_cycles=50)
        stuck = [
            (packet.packet_id, where, packet.hops, packet.path)
            for packet, where in simulator.stuck_packets()
        ]
        assert stuck == [
            (0, 1, 1, [0, 1]), (1, 1, 1, [0, 1]), (2, 0, 0, [0]),
            (3, 2, 1, [1, 2]), (4, 2, 1, [1, 2]), (5, 1, 0, [1]),
            (6, 3, 1, [2, 3]), (7, 3, 1, [2, 3]), (8, 2, 0, [2]),
            (9, 0, 1, [3, 0]), (10, 0, 1, [3, 0]), (11, 3, 0, [3]),
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_many_stuck_packets_are_truncated(self, engine):
        topology = chain_topology()
        topology.add_router(99)
        simulator = NoCSimulator(
            topology,
            lambda current, dest: current + 1 if current < 3 else current - 1,
            config=SimulatorConfig(engine=engine, max_cycles=60),
        )
        for _ in range(12):
            simulator.schedule_message(Message(0, 99, 64))
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_until_drained(max_cycles=40)
        assert "more" in str(excinfo.value)


@pytest.mark.parametrize("engine", ENGINES)
class TestNegativeCycleCounts:
    """A negative window or drain budget is rejected before anything moves,
    so no engine's clock can run backwards."""

    def simulator(self, engine: str) -> NoCSimulator:
        if engine == ENGINE_BATCH:
            pytest.importorskip("numpy")
        return chain_simulator(engine=engine)

    def test_negative_run_is_rejected(self, engine):
        simulator = self.simulator(engine)
        simulator.schedule_message(Message(0, 2, 64))
        drained = simulator.run_until_drained()
        stepped = simulator.cycles_stepped
        with pytest.raises(SimulationError, match="negative number of cycles"):
            simulator.run(-5)
        assert simulator.current_cycle == simulator.statistics.total_cycles == drained
        assert simulator.cycles_stepped == stepped

    def test_negative_drain_budget_is_rejected(self, engine):
        simulator = self.simulator(engine)
        simulator.schedule_message(Message(0, 2, 64), cycle=10)
        with pytest.raises(SimulationError, match="drain budget cannot be negative"):
            simulator.run_until_drained(max_cycles=-3)
        assert simulator.current_cycle == simulator.cycles_stepped == 0
        assert simulator.run_until_drained() > 10
        assert simulator.statistics.delivered_count == 1


@pytest.mark.parametrize("engine", ENGINES)
class TestNonIntCycleCounts:
    """A cycle count or budget that is not an ``int`` is rejected before
    anything moves, alike on both engines."""

    def simulator(self, engine: str) -> NoCSimulator:
        if engine == ENGINE_BATCH:
            pytest.importorskip("numpy")
        return chain_simulator(engine=engine)

    @pytest.mark.parametrize("cycles", [1.5, 2.0, True])
    def test_run(self, engine, cycles):
        simulator = self.simulator(engine)
        with pytest.raises(SimulationError, match="the cycles to run must be an int"):
            simulator.run(cycles)
        assert simulator.current_cycle == simulator.cycles_stepped == 0

    @pytest.mark.parametrize("budget", [1.5, 10.0, False])
    def test_drain_budget(self, engine, budget):
        simulator = self.simulator(engine)
        simulator.schedule_message(Message(0, 2, 64))
        with pytest.raises(SimulationError, match="the drain budget must be an int"):
            simulator.run_until_drained(budget)
        assert simulator.current_cycle == simulator.cycles_stepped == 0

    @pytest.mark.parametrize("cycle", [2.5, 3.0, True])
    def test_schedule_cycle(self, engine, cycle):
        simulator = self.simulator(engine)
        with pytest.raises(SimulationError, match="the schedule cycle must be an int"):
            simulator.schedule_message(Message(0, 2, 64), cycle=cycle)
        with pytest.raises(SimulationError, match="the schedule cycle must be an int"):
            simulator.schedule_messages([Message(0, 2, 64)], cycle=cycle)
        assert simulator.statistics.injected_count == 0


class TestNegativeOpBudgets:
    """An op with a negative budget fails when it is built, so no program
    can hand one to an engine (the batch core included)."""

    def test_negative_drain_op_is_rejected(self):
        with pytest.raises(SimulationError, match="drain budget cannot be negative"):
            DrainOp(-3)
        assert DrainOp().max_cycles is None
        assert DrainOp(0).max_cycles == 0

    def test_negative_run_op_is_rejected(self):
        with pytest.raises(SimulationError, match="negative number of cycles"):
            RunOp(-5)
        assert RunOp(0).cycles == 0

    @pytest.mark.parametrize("value", [1.5, 3.0, True])
    def test_non_int_op_budget_is_rejected(self, value):
        with pytest.raises(SimulationError, match="the cycles to run must be an int"):
            RunOp(value)
        with pytest.raises(SimulationError, match="the drain budget must be an int"):
            DrainOp(value)

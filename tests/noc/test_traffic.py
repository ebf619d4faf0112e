"""Unit tests for the traffic generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.mesh import build_mesh
from repro.exceptions import SimulationError, WorkloadError
from repro.noc.packet import Message
from repro.noc.simulator import ENGINES, NoCSimulator, SimulatorConfig
from repro.noc.traffic import (
    InjectionSchedule,
    acg_messages,
    split_volume_into_messages,
    uniform_random_messages,
)
from repro.obs.probes import SimulatorProbe
from repro.routing.policies import get_policy


class TestSplitVolume:
    def test_exact_split(self):
        messages = split_volume_into_messages(1, 2, volume_bits=64, packet_size_bits=32)
        assert len(messages) == 2
        assert all(m.size_bits == 32 for m in messages)

    def test_remainder_packet_is_smaller(self):
        messages = split_volume_into_messages(1, 2, volume_bits=70, packet_size_bits=32)
        assert [m.size_bits for m in messages] == [32, 32, 6]

    def test_zero_volume_yields_nothing(self):
        assert split_volume_into_messages(1, 2, 0, 32) == []

    def test_invalid_packet_size(self):
        with pytest.raises(WorkloadError):
            split_volume_into_messages(1, 2, 10, 0)


class TestAcgMessages:
    def test_total_bits_preserved(self, k4_acg):
        messages = acg_messages(k4_acg, packet_size_bits=16)
        assert sum(m.size_bits for m in messages) == pytest.approx(k4_acg.total_volume())

    def test_every_edge_represented(self, k4_acg):
        messages = acg_messages(k4_acg)
        pairs = {(m.source, m.destination) for m in messages}
        assert pairs == set(k4_acg.edges())


class TestSyntheticPatterns:
    def test_uniform_random_reproducible(self):
        nodes = list(range(1, 9))
        first = uniform_random_messages(nodes, 50, seed=3)
        second = uniform_random_messages(nodes, 50, seed=3)
        assert [(m.source, m.destination) for m in first] == [
            (m.source, m.destination) for m in second
        ]
        assert all(m.source != m.destination for m in first)

    def test_uniform_random_validation(self):
        with pytest.raises(WorkloadError):
            uniform_random_messages([1], 5)
        with pytest.raises(WorkloadError):
            uniform_random_messages([1, 2], -1)


class TestInjectionSchedule:
    def test_periodic_schedule(self):
        messages = uniform_random_messages(list(range(1, 5)), 10, seed=1)
        schedule = InjectionSchedule.periodic(messages, period_cycles=5)
        cycles = [cycle for cycle, _ in schedule]
        assert cycles == [5 * i for i in range(10)]
        assert len(schedule) == 10

    def test_jitter_bounded(self):
        messages = uniform_random_messages(list(range(1, 5)), 20, seed=1)
        schedule = InjectionSchedule.periodic(messages, period_cycles=10, jitter=3, seed=2)
        for index, (cycle, _) in enumerate(schedule):
            assert 10 * index <= cycle <= 10 * index + 3

    @pytest.mark.parametrize("period", [0, -1, 2.5, 2.0, "2", True, None])
    def test_invalid_period(self, period):
        messages = uniform_random_messages(list(range(1, 5)), 2, seed=1)
        with pytest.raises(WorkloadError, match="injection period must be"):
            InjectionSchedule.periodic(messages, period_cycles=period)

    def test_negative_jitter_rejected(self):
        messages = uniform_random_messages(list(range(1, 5)), 4, seed=1)
        with pytest.raises(WorkloadError, match="jitter"):
            InjectionSchedule.periodic(messages, period_cycles=5, jitter=-3)


MESH = build_mesh(4, 4)
XY = get_policy("xy").build(MESH).frozen_next_hop()


def one_message_batches(schedule: InjectionSchedule, simulator: NoCSimulator) -> None:
    """Schedule each entry as a one-message ``schedule_messages`` batch, the
    compiled path that ``schedule_message`` must equal."""
    for cycle, message in schedule:
        simulator.schedule_messages((message,), cycle=cycle)


class TestScheduleMessage:
    """``schedule_message`` appends a message straight to the packet table;
    the packets, their injection order and every figure equal those of
    scheduling it as a compiled one-message batch."""

    def simulate(self, schedule, scheduler, engine: str, probed: bool):
        simulator = NoCSimulator(MESH, XY, config=SimulatorConfig(engine=engine))
        probe = simulator.attach_probe(SimulatorProbe()) if probed else None
        scheduler(schedule, simulator)
        simulator.run_until_drained()
        packets = [
            (packet.packet_id, packet.message, packet.injection_cycle, packet.path)
            for packet in simulator.statistics.delivered_packets
        ]
        recorded = None if probe is None else (list(probe.occupancy.items()), list(probe.latency.items()))
        return simulator.report(), simulator.statistics.delivery_cycles(), packets, recorded

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # few cycles: many share one
                st.integers(min_value=1, max_value=16),
                st.integers(min_value=1, max_value=16),
                st.sampled_from([8, 32, 40, 96, 256]),
            ),
            min_size=1,
            max_size=40,
        ).filter(lambda entries: any(source != target for _, source, target, _ in entries)),
        probed=st.booleans(),
    )
    def test_equals_one_message_batches(self, engine, entries, probed):
        schedule = InjectionSchedule(
            tuple(
                (cycle, Message(source, target, size))
                for cycle, source, target, size in entries
                if source != target
            )
        )
        direct = self.simulate(schedule, InjectionSchedule.schedule_onto, engine, probed)
        assert direct == self.simulate(schedule, one_message_batches, engine, probed)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_returns_consecutive_packet_ids(self, engine):
        simulator = NoCSimulator(MESH, XY, config=SimulatorConfig(engine=engine))
        ids = [simulator.schedule_message(Message(1, 16, 64), cycle=cycle) for cycle in (3, 0, 3)]
        simulator.schedule_messages((Message(2, 15, 64),), cycle=1)
        assert ids + [simulator.schedule_message(Message(3, 14, 64))] == [0, 1, 2, 4]
        assert simulator.statistics.injected_count == 5

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "message, cycle, error",
        [
            (Message("nowhere", 4, 64), 2, "unknown source router 'nowhere'"),
            (Message(4, "nowhere", 64), 2, "unknown destination router 'nowhere'"),
            (Message(1, 16, 64), 0, "cannot schedule a message in the past"),
        ],
    )
    def test_a_rejected_message_leaves_exactly_the_earlier_entries_queued(
        self, engine, message, cycle, error
    ):
        messages = [Message(1, 16, 64), Message(2, 15, 64), Message(3, 14, 64)]
        entries = (
            (1, messages[0]),
            (2, messages[1]),
            (2, messages[2]),
            (cycle, message),
            (2, Message(5, 12, 64)),
            (3, Message(6, 11, 64)),
        )
        schedule = InjectionSchedule(entries)
        queued = []
        for scheduler in (InjectionSchedule.schedule_onto, one_message_batches):
            simulator = NoCSimulator(MESH, XY, config=SimulatorConfig(engine=engine))
            simulator.run(1)  # cycle 0 is in the past
            with pytest.raises(SimulationError, match=error):
                scheduler(schedule, simulator)
            assert simulator.statistics.injected_count == 3
            simulator.run_until_drained()
            queued.append(
                [
                    (packet.packet_id, packet.message, packet.injection_cycle)
                    for packet in simulator.statistics.delivered_packets
                ]
            )
        assert queued[0] == queued[1]
        assert sorted(queued[0]) == [(0, messages[0], 1), (1, messages[1], 2), (2, messages[2], 2)]

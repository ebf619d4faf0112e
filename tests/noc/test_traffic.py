"""Unit tests for the traffic generators."""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.noc.traffic import (
    InjectionSchedule,
    acg_messages,
    split_volume_into_messages,
    uniform_random_messages,
)


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

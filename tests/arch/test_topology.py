"""Unit tests for the topology abstraction and customized topologies."""

from __future__ import annotations

import pytest

from repro.arch.custom import ChannelOrigin, CustomTopology
from repro.arch.topology import Channel, Topology
from repro.exceptions import GraphError, NodeNotFoundError, SynthesisError


class TestChannel:
    def test_defaults(self):
        channel = Channel(source=1, target=2, length_mm=3.0, width_bits=16)
        assert channel.bandwidth_bits_per_cycle == 16.0
        assert channel.key == (1, 2)

    def test_invalid_parameters(self):
        with pytest.raises(SynthesisError):
            Channel(source=1, target=2, length_mm=-1.0)
        with pytest.raises(SynthesisError):
            Channel(source=1, target=2, width_bits=0)


class TestTopology:
    def test_add_routers_and_channels(self):
        topology = Topology(name="t")
        topology.add_router(1, 0, 0)
        topology.add_router(2, 2, 0)
        topology.add_channel(1, 2)
        assert topology.num_routers == 2
        assert topology.num_channels == 1
        assert topology.has_channel(1, 2) and not topology.has_channel(2, 1)
        # length defaults to the Manhattan distance between placed routers
        assert topology.channel(1, 2).length_mm == pytest.approx(2.0)

    def test_bidirectional_channel(self):
        topology = Topology()
        topology.add_channel(1, 2, length_mm=5.0, bidirectional=True)
        assert topology.has_channel(2, 1)
        assert topology.num_channels == 2
        assert topology.num_physical_links == 1

    def test_add_channel_idempotent(self):
        topology = Topology()
        first = topology.add_channel(1, 2, length_mm=1.0)
        second = topology.add_channel(1, 2, length_mm=9.0)
        assert first is second
        assert topology.channel(1, 2).length_mm == pytest.approx(1.0)

    def test_self_channel_rejected(self):
        topology = Topology()
        with pytest.raises(GraphError):
            topology.add_channel(1, 1)

    def test_missing_channel_raises(self):
        topology = Topology()
        topology.add_router(1)
        topology.add_router(2)
        with pytest.raises(SynthesisError):
            topology.channel(1, 2)

    def test_neighbors_and_degree(self):
        topology = Topology()
        topology.add_channel(1, 2, bidirectional=True)
        topology.add_channel(1, 3)
        assert set(topology.neighbors_out(1)) == {2, 3}
        assert topology.neighbors_in(1) == [2]
        assert topology.degree(1) == 2  # physical links {1,2}, {1,3}
        assert topology.max_degree() == 2
        with pytest.raises(NodeNotFoundError):
            topology.degree(99)

    def test_positions_and_distance(self):
        topology = Topology()
        topology.add_router(1, 0, 0)
        topology.add_router(2, 3, 4)
        assert topology.distance(1, 2) == pytest.approx(7.0)
        topology.add_router(3)
        with pytest.raises(NodeNotFoundError):
            topology.position(3)

    def test_total_wire_length_counts_physical_links_once(self):
        topology = Topology()
        topology.add_channel(1, 2, length_mm=3.0, bidirectional=True)
        topology.add_channel(2, 3, length_mm=2.0)
        assert topology.total_wire_length_mm() == pytest.approx(5.0)

    def test_copy_independent(self):
        topology = Topology()
        topology.add_channel(1, 2, length_mm=3.0)
        clone = topology.copy()
        clone.add_channel(2, 3)
        assert not topology.has_channel(2, 3)
        assert clone.channel(1, 2).length_mm == pytest.approx(3.0)

    def test_contains_and_iter(self):
        topology = Topology()
        topology.add_router("a")
        assert "a" in topology
        assert list(iter(topology)) == ["a"]


class TestCustomTopology:
    def test_origin_tracking(self):
        topology = CustomTopology(name="c")
        gossip = ChannelOrigin(kind="primitive", label="MGG4#0")
        remainder = ChannelOrigin(kind="remainder", label="remainder")
        topology.add_channel_with_origin(1, 2, gossip, bidirectional=True)
        topology.add_channel_with_origin(3, 4, remainder)
        assert topology.origins(1, 2) == [gossip]
        assert topology.origins(2, 1) == [gossip]
        assert topology.origins(3, 4) == [remainder]

    def test_multiple_origins_accumulate(self):
        topology = CustomTopology()
        first = ChannelOrigin(kind="primitive", label="MGG4#0")
        second = ChannelOrigin(kind="primitive", label="L4#1")
        topology.add_channel_with_origin(1, 2, first)
        topology.add_channel_with_origin(1, 2, second)
        assert len(topology.origins(1, 2)) == 2
        assert topology.num_channels == 1  # still one physical channel

    def test_describe_lists_origins(self):
        topology = CustomTopology()
        topology.add_channel_with_origin(1, 2, ChannelOrigin("primitive", "MGG4#0"))
        topology.add_channel_with_origin(2, 3, ChannelOrigin("remainder", "remainder"))
        text = topology.describe()
        assert "MGG4#0" in text and "remainder" in text

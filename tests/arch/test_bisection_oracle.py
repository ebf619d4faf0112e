"""The exact bisection search against two exhaustive oracles.

``bisection_bandwidth`` is a branch-and-bound over router placements that
only considers the partitions holding the first router when the router
count is even (a cut and its complement cross the same channels).  The
first oracle walks every balanced partition with sets, in
``itertools.combinations`` order, and keeps the first minimum.  The second
is the bitmask enumeration the branch-and-bound replaced: it scores every
partition holding the first router (even counts) in channel order.  All
three must agree on every field, ties and float rounding included.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.mesh import MeshTopology
from repro.arch.metrics import BisectionResult, bisection_bandwidth
from repro.arch.topology import Topology


def exhaustive_bisection(topology: Topology) -> BisectionResult:
    routers = topology.routers()
    half = len(routers) // 2
    links = [
        (channel.source, channel.target, float(channel.bandwidth_bits_per_cycle or 0.0))
        for channel in topology.channels()
    ]
    best: BisectionResult | None = None
    for combo in itertools.combinations(routers, half):
        part_a = set(combo)
        bandwidth = 0.0
        cut_channels = 0
        for source, target, link_bandwidth in links:
            if (source in part_a) != (target in part_a):
                bandwidth += link_bandwidth
                cut_channels += 1
        if best is None or bandwidth < best.bandwidth_bits_per_cycle:
            best = BisectionResult(
                bandwidth_bits_per_cycle=bandwidth,
                partition_a=frozenset(part_a),
                partition_b=frozenset(set(routers) - part_a),
                num_cut_channels=cut_channels,
            )
    assert best is not None
    return best


def enumerated_bisection(topology: Topology) -> BisectionResult:
    """The bitmask enumeration over ``itertools.combinations``."""
    routers = topology.routers()
    count = len(routers)
    half = count // 2
    links = [
        (channel.source, channel.target, float(channel.bandwidth_bits_per_cycle or 0.0))
        for channel in topology.channels()
    ]
    bit = {router: 1 << index for index, router in enumerate(routers)}
    masks = [(bit[source] | bit[target], bandwidth) for source, target, bandwidth in links]
    if count % 2:
        fixed, free, size = 0, list(bit.values()), half
    else:
        fixed, free, size = 1, list(bit.values())[1:], half - 1
    best_mask = -1
    best_bandwidth = 0.0
    for combo in itertools.combinations(free, size):
        part = fixed + sum(combo)
        bandwidth = 0.0
        for both, link_bandwidth in masks:
            crossing = part & both
            if crossing and crossing != both:
                bandwidth += link_bandwidth
        if best_mask < 0 or bandwidth < best_bandwidth:
            best_bandwidth = bandwidth
            best_mask = part
    part_a = {router for router in routers if best_mask & bit[router]}
    bandwidth = 0.0
    cut_channels = 0
    for source, target, link_bandwidth in links:
        if (source in part_a) != (target in part_a):
            bandwidth += link_bandwidth
            cut_channels += 1
    return BisectionResult(
        bandwidth_bits_per_cycle=bandwidth,
        partition_a=frozenset(part_a),
        partition_b=frozenset(set(routers) - part_a),
        num_cut_channels=cut_channels,
    )


#: integral widths, values whose sums round differently by order, and zero
BANDWIDTHS = (8.0, 16.0, 32.0, 0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.5, 1e16 + 2.0)


@st.composite
def bisection_topologies(draw) -> Topology:
    """Up to 12 routers with random channels; drawing bandwidths from a
    small set makes tied cuts common."""
    count = draw(st.integers(min_value=2, max_value=12))
    routers = draw(st.permutations([f"r{index}" for index in range(count)]))
    topology = Topology(name="drawn")
    for router in routers:
        topology.add_router(router)
    integral = draw(st.booleans())
    choices = [bw for bw in BANDWIDTHS if bw.is_integer()] if integral else list(BANDWIDTHS)
    pairs = st.tuples(st.sampled_from(routers), st.sampled_from(routers))
    for source, target in draw(st.lists(pairs, max_size=3 * count)):
        if source != target:
            topology.add_channel(
                source,
                target,
                bandwidth_bits_per_cycle=draw(st.sampled_from(choices)),
                bidirectional=draw(st.booleans()),
            )
    return topology


@settings(max_examples=300, deadline=None)
@given(bisection_topologies())
def test_matches_the_enumeration_it_replaced(topology):
    expected = enumerated_bisection(topology)
    assert bisection_bandwidth(topology) == expected
    assert expected == exhaustive_bisection(topology)


def random_topology(seed: int, fractional: bool) -> Topology:
    rng = random.Random(seed)
    count = rng.randint(2, 13)
    routers = [f"r{index}" for index in range(count)]
    rng.shuffle(routers)
    topology = Topology(name=f"random{seed}")
    for router in routers:
        topology.add_router(router)
    for _ in range(rng.randint(0, 3 * count)):
        source, target = rng.sample(routers, 2)
        if fractional:
            bandwidth = rng.choice([0.1, 0.2, 0.3, 1.0 / 3.0, rng.random() * 10.0])
        else:
            bandwidth = float(rng.choice([8, 16, 32, 64]))
        topology.add_channel(
            source,
            target,
            bandwidth_bits_per_cycle=bandwidth,
            bidirectional=rng.random() < 0.5,
        )
    return topology


@pytest.mark.parametrize("fractional", [False, True], ids=["integral", "fractional"])
def test_matches_the_oracle_on_random_topologies(fractional):
    counts = set()
    for seed in range(150):
        topology = random_topology(seed, fractional)
        counts.add(topology.num_routers % 2)
        assert bisection_bandwidth(topology) == exhaustive_bisection(topology), seed
    assert counts == {0, 1}


def test_matches_the_oracle_on_the_4x4_mesh():
    mesh = MeshTopology(4, 4)
    result = bisection_bandwidth(mesh)
    assert result == exhaustive_bisection(mesh)
    assert result.num_cut_channels == 8


def test_first_router_is_on_the_reported_side_for_even_counts():
    # every cut ties with its complement; the reported side is the one the
    # lexicographic enumeration meets first, which holds the first router
    ring = Topology(name="ring")
    routers = ["d", "c", "b", "a"]
    for source, target in zip(routers, routers[1:] + routers[:1]):
        ring.add_channel(source, target, bandwidth_bits_per_cycle=1.0, bidirectional=True)
    result = bisection_bandwidth(ring)
    assert result == exhaustive_bisection(ring)
    assert "d" in result.partition_a


def test_float_sums_are_compared_in_channel_order():
    """Two cuts that are equal in exact arithmetic but whose channel-order
    float sums differ in the last place: the search must pick the partition
    the channel-order enumeration picks, so it may not prune on partial
    sums taken in placement order."""
    topology = Topology(name="rounding")
    for router in range(6):
        topology.add_router(router)
    channels = [
        (4, 3, 0.7), (4, 5, 0.2), (1, 0, 0.3), (0, 3, 0.3), (1, 3, 0.7),
        (2, 4, 0.7), (1, 4, 0.7), (2, 1, 0.1), (1, 2, 0.3), (5, 0, 0.1),
    ]  # fmt: skip
    for source, target, bandwidth in channels:
        topology.add_channel(source, target, bandwidth_bits_per_cycle=bandwidth)
    assert bisection_bandwidth(topology) == enumerated_bisection(topology)

"""The exact bisection search against a plain exhaustive oracle.

``bisection_bandwidth`` enumerates only the partitions that hold the first
router when the router count is even (a cut and its complement cross the
same channels) and tests membership with bitmasks.  The oracle below walks
every balanced partition with sets, in ``itertools.combinations`` order,
and keeps the first minimum; both must agree on every field.
"""

from __future__ import annotations

import itertools
import random

import pytest

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

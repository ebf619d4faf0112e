"""Topology metrics: diameter, average hop count, bisection bandwidth, wiring.

Section 4.2 of the paper checks the synthesized architecture against the
"availability of wiring resources" by comparing its bisection bandwidth with
the maximum the technology provides, and Section 4.3 argues about the maximum
and average hop counts.  This module computes those figures for any
:class:`~repro.arch.topology.Topology`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import SynthesisError

NodeId = Hashable


def hop_counts_from(topology: Topology, source: NodeId) -> dict[NodeId, int]:
    """BFS hop counts from ``source`` to every reachable router."""
    if not topology.has_router(source):
        raise SynthesisError(f"{source!r} is not a router of {topology.name!r}")
    distances: dict[NodeId, int] = {source: 0}
    queue: deque[NodeId] = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors_out(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def all_pairs_hop_counts(topology: Topology) -> dict[tuple[NodeId, NodeId], int]:
    """Hop counts between every ordered pair of connected routers."""
    result: dict[tuple[NodeId, NodeId], int] = {}
    for source in topology.routers():
        for target, hops in hop_counts_from(topology, source).items():
            result[(source, target)] = hops
    return result


def is_strongly_connected(topology: Topology) -> bool:
    """True when every router can reach every other router over channels."""
    routers = topology.routers()
    if len(routers) <= 1:
        return True
    return all(len(hop_counts_from(topology, source)) == len(routers) for source in routers)


def diameter(topology: Topology, require_strongly_connected: bool = False) -> int:
    """Longest shortest-path hop count over all *reachable* ordered pairs.

    Customized topologies are not necessarily strongly connected (broadcast
    trees and loops are one-way structures), so by default the diameter is
    taken over reachable pairs only; pass ``require_strongly_connected=True``
    to instead raise when some pair is unreachable.
    """
    routers = topology.routers()
    if len(routers) <= 1:
        return 0
    worst = 0
    for source in routers:
        reachable = hop_counts_from(topology, source)
        if require_strongly_connected and len(reachable) != len(routers):
            raise SynthesisError(f"topology {topology.name!r} is not strongly connected")
        worst = max(worst, max(reachable.values()))
    return worst


def average_hop_count(
    topology: Topology, traffic: ApplicationGraph | None = None
) -> float:
    """Average hop count, uniformly or weighted by an ACG's traffic volumes.

    With ``traffic`` given, the average is weighted by communication volume
    (the quantity that "directly impacts the overall performance" per
    Section 4.3); otherwise all *reachable* ordered router pairs are weighted
    equally.
    """
    pairs = all_pairs_hop_counts(topology)
    if traffic is None:
        distances = [hops for (source, target), hops in pairs.items() if source != target]
        return sum(distances) / len(distances) if distances else 0.0
    weighted = 0.0
    volume_total = 0.0
    for source, target in traffic.edges():
        if (source, target) not in pairs:
            raise SynthesisError(
                f"traffic edge ({source!r} -> {target!r}) is not routable on {topology.name!r}"
            )
        volume = traffic.volume(source, target)
        weighted += volume * pairs[(source, target)]
        volume_total += volume
    return weighted / volume_total if volume_total else 0.0


@dataclass(frozen=True)
class BisectionResult:
    """Result of a bisection-bandwidth computation."""

    bandwidth_bits_per_cycle: float
    partition_a: frozenset
    partition_b: frozenset
    num_cut_channels: int


def bisection_bandwidth(topology: Topology, exact_limit: int = 16) -> BisectionResult:
    """Minimum bandwidth crossing a balanced bipartition of the routers.

    For up to ``exact_limit`` routers the search is exact; beyond that a
    coordinate-sweep heuristic is used (sort by x then by y and cut in the
    middle), which is exact for meshes and a good estimate for
    floorplan-derived customized topologies.

    The exact result is the first minimum in the lexicographic order of
    ``itertools.combinations(routers, count // 2)``, where a partition's
    bandwidth is summed in channel order.  A cut and its complement cross
    the same channels, so with an even router count the side holding the
    first router always comes first and only those partitions count.  The
    search is a depth-first branch-and-bound that places routers in order,
    "in side A" first, which meets the partitions in that same order.  A
    channel is charged when its later endpoint is placed, and a branch is
    pruned once its partial cut is at least the best full cut so far.
    Pruning needs every partial sum to be exact, so it runs only when all
    bandwidths are non-negative integers summing to at most 2**53; with
    other bandwidths every partition is scored, in channel order.
    """
    routers = topology.routers()
    count = len(routers)
    if count < 2:
        raise SynthesisError("bisection bandwidth needs at least two routers")
    half = count // 2
    # walked once per partition: resolve the channels outside the loop
    links = [
        (channel.source, channel.target, float(channel.bandwidth_bits_per_cycle or 0.0))
        for channel in topology.channels()
    ]

    def result(part_a: set[NodeId]) -> BisectionResult:
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

    if count <= exact_limit:
        position = {router: index for index, router in enumerate(routers)}
        indexed = [(position[source], position[target], bw) for source, target, bw in links]
        exact = all(bw >= 0 and bw.is_integer() for _, _, bw in indexed) and (
            sum(int(bw) for _, _, bw in indexed) <= 2**53
        )
        # per router: (earlier endpoint, bandwidth) of the channels it closes
        closes: list[list[tuple[int, float]]] = [[] for _ in routers]
        for first, second, bw in indexed:
            if first != second:
                closes[max(first, second)].append((min(first, second), bw))
        in_a = [False] * count
        best: list[object] = [None, None]  # [cut, sides]

        def place(index: int, taken: int, cut: float) -> None:
            if exact and best[0] is not None and cut >= best[0]:
                return
            if index == count:
                if not exact:
                    cut = 0.0
                    for first, second, bw in indexed:
                        if in_a[first] != in_a[second]:
                            cut += bw
                if best[0] is None or cut < best[0]:
                    best[0], best[1] = cut, list(in_a)
                return
            left = count - index
            # even counts fix the first router in side A
            for side in (True, False) if index or count % 2 else (True,):
                if (taken + side > half) or (half - taken - side > left - 1):
                    continue
                in_a[index] = side
                charge = cut
                for other, bw in closes[index]:
                    if in_a[other] != side:
                        charge += bw
                place(index + 1, taken + side, charge)

        try:
            place(0, 0, 0.0)
        finally:
            del place  # the closure refers to itself: free it without the cyclic GC
        sides = best[1]
        return result({router for router, side in zip(routers, sides) if side})

    # heuristic: axis-aligned sweeps
    candidates: list[set[NodeId]] = []
    if all(topology.has_position(node) for node in routers):
        by_x = sorted(routers, key=lambda n: (topology.position(n).x, topology.position(n).y))
        by_y = sorted(routers, key=lambda n: (topology.position(n).y, topology.position(n).x))
        candidates.append(set(by_x[:half]))
        candidates.append(set(by_y[:half]))
    candidates.append(set(list(routers)[:half]))
    best: BisectionResult | None = None
    for part_a in candidates:
        candidate = result(part_a)
        if best is None or candidate.bandwidth_bits_per_cycle < best.bandwidth_bits_per_cycle:
            best = candidate
    assert best is not None
    return best


@dataclass(frozen=True)
class TopologyReport:
    """Summary of the structural metrics of one architecture."""

    name: str
    num_routers: int
    num_channels: int
    num_physical_links: int
    max_degree: int
    diameter: int
    average_hops_uniform: float
    average_hops_weighted: float | None
    bisection_bandwidth: float
    total_wire_length_mm: float
    strongly_connected: bool

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "num_routers": self.num_routers,
            "num_channels": self.num_channels,
            "num_physical_links": self.num_physical_links,
            "max_degree": self.max_degree,
            "diameter": self.diameter,
            "average_hops_uniform": self.average_hops_uniform,
            "average_hops_weighted": self.average_hops_weighted,
            "bisection_bandwidth": self.bisection_bandwidth,
            "total_wire_length_mm": self.total_wire_length_mm,
            "strongly_connected": self.strongly_connected,
        }


def topology_report(
    topology: Topology, traffic: ApplicationGraph | None = None
) -> TopologyReport:
    """Compute the full structural report for one topology."""
    weighted = average_hop_count(topology, traffic) if traffic is not None else None
    return TopologyReport(
        name=topology.name,
        num_routers=topology.num_routers,
        num_channels=topology.num_channels,
        num_physical_links=topology.num_physical_links,
        max_degree=topology.max_degree(),
        diameter=diameter(topology),
        average_hops_uniform=average_hop_count(topology),
        average_hops_weighted=weighted,
        bisection_bandwidth=bisection_bandwidth(topology).bandwidth_bits_per_cycle,
        total_wire_length_mm=topology.total_wire_length_mm(),
        strongly_connected=is_strongly_connected(topology),
    )

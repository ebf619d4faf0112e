"""Generic communication primitives and their optimal implementations.

Section 3 of the paper builds a *communication library* out of frequently
encountered communication primitives.  Every primitive has two graphs
(Figure 1):

representation graph
    The communication *requirement* the primitive captures, i.e. the pattern
    the decomposition algorithm searches for inside the application graph.
    For gossiping among ``n`` nodes it is the complete directed graph; for a
    one-to-``k`` broadcast it is a star of ``k`` outgoing edges; paths and
    loops represent chained point-to-point traffic.

implementation graph
    The physical channel structure that solves the primitive's communication
    problem in the minimum number of rounds with the minimum number of edges
    (a Minimum Gossip Graph or Minimum Broadcast Graph for gossip/broadcast;
    the structure itself for paths and loops), together with the optimal
    schedule and the internal routes every requirement edge follows.

The internal routes are what Section 4.2's bandwidth argument relies on: if
requirement edges ``e13`` and ``e14`` are both routed over implementation
link ``(1, 3)``, that link must provide the sum of both bandwidths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.core.graph import DiGraph, Edge, Node
from repro.core.schedules import (
    CommunicationSchedule,
    binomial_broadcast_schedule,
    broadcast_round_lower_bound,
    gossip_round_lower_bound,
    hypercube_gossip_schedule,
    pair_exchange_schedule,
    ring_schedule,
)
from repro.exceptions import LibraryError


class PrimitiveKind(Enum):
    """The classes of communication problems the library understands."""

    GOSSIP = "gossip"
    BROADCAST = "broadcast"
    MULTICAST = "multicast"
    PATH = "path"
    LOOP = "loop"


@dataclass
class CommunicationPrimitive:
    """One entry of the communication library.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"MGG4"`` or ``"G1to3"``.
    kind:
        The communication problem the primitive solves.
    representation:
        Pattern graph searched for in the application graph.
    implementation:
        Optimal physical topology realizing the primitive.  Edges are
        directed channels; bidirectional links appear as two opposite edges.
    schedule:
        Optimal round schedule on the implementation graph.
    internal_routes:
        For every representation edge ``(u, v)``, the node sequence
        ``(u, ..., v)`` the corresponding traffic follows inside the
        implementation graph.
    """

    name: str
    kind: PrimitiveKind
    representation: DiGraph
    implementation: DiGraph
    schedule: CommunicationSchedule
    internal_routes: dict[Edge, tuple[Node, ...]] = field(default_factory=dict)
    primitive_id: int | None = None

    # ------------------------------------------------------------------
    # derived properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes in the primitive."""
        return self.representation.num_nodes

    @property
    def num_requirement_edges(self) -> int:
        """Edges of the requirement (representation) graph."""
        return self.representation.num_edges

    @property
    def num_implementation_edges(self) -> int:
        """Directed edges of the implementation graph."""
        return self.implementation.num_edges

    @property
    def num_physical_links(self) -> int:
        """Number of physical links: opposite directed edges share a link."""
        seen: set[frozenset[Node]] = set()
        for source, target in self.implementation.edges():
            seen.add(frozenset((source, target)))
        return len(seen)

    @property
    def num_rounds(self) -> int:
        """Rounds of the primitive's optimal communication schedule."""
        return self.schedule.num_rounds

    def diameter(self) -> int:
        """Longest internal route length (hops) over all requirement edges."""
        if not self.internal_routes:
            return 0
        return max(len(route) - 1 for route in self.internal_routes.values())

    def route_for(self, source: Node, target: Node) -> tuple[Node, ...]:
        """The implementation path serving requirement edge ``source -> target``."""
        try:
            return self.internal_routes[(source, target)]
        except KeyError as error:
            raise LibraryError(
                f"primitive {self.name!r} has no internal route for "
                f"({source!r} -> {target!r})"
            ) from error

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raise :class:`LibraryError` if broken."""
        rep_nodes = set(self.representation.nodes())
        imp_nodes = set(self.implementation.nodes())
        if rep_nodes != imp_nodes:
            raise LibraryError(
                f"primitive {self.name!r}: representation nodes {rep_nodes} differ "
                f"from implementation nodes {imp_nodes}"
            )
        for edge in self.representation.edges():
            if edge not in self.internal_routes:
                raise LibraryError(
                    f"primitive {self.name!r}: requirement edge {edge} has no route"
                )
        for (source, target), route in self.internal_routes.items():
            if not route or route[0] != source or route[-1] != target:
                raise LibraryError(
                    f"primitive {self.name!r}: route {route} does not connect "
                    f"{source!r} to {target!r}"
                )
            for hop_source, hop_target in zip(route, route[1:]):
                if not self.implementation.has_edge(hop_source, hop_target):
                    raise LibraryError(
                        f"primitive {self.name!r}: route {route} uses missing "
                        f"implementation edge ({hop_source!r} -> {hop_target!r})"
                    )
        try:
            self.schedule.validate_against_graph(self.implementation)
        except Exception as error:  # ScheduleError -> LibraryError for callers
            raise LibraryError(
                f"primitive {self.name!r}: invalid schedule: {error}"
            ) from error
        self._validate_schedule_completes()

    def _validate_schedule_completes(self) -> None:
        nodes = self.representation.nodes()
        if self.kind is PrimitiveKind.GOSSIP:
            if not self.schedule.completes_gossip(nodes):
                raise LibraryError(f"primitive {self.name!r}: schedule does not gossip")
            if self.schedule.num_rounds > gossip_round_lower_bound(len(nodes)):
                raise LibraryError(
                    f"primitive {self.name!r}: gossip schedule is not round-optimal"
                )
        elif self.kind in (PrimitiveKind.BROADCAST, PrimitiveKind.MULTICAST):
            root = _broadcast_root(self.representation)
            if not self.schedule.completes_broadcast(root, nodes):
                raise LibraryError(
                    f"primitive {self.name!r}: schedule does not broadcast from {root!r}"
                )
            if self.kind is PrimitiveKind.BROADCAST and (
                self.schedule.num_rounds > broadcast_round_lower_bound(len(nodes))
            ):
                raise LibraryError(
                    f"primitive {self.name!r}: broadcast schedule is not round-optimal"
                )

    def __repr__(self) -> str:
        return (
            f"<CommunicationPrimitive {self.name} kind={self.kind.value} "
            f"size={self.size} rep_edges={self.num_requirement_edges} "
            f"impl_edges={self.num_implementation_edges} rounds={self.num_rounds}>"
        )


def _broadcast_root(representation: DiGraph) -> Node:
    """The unique source node of a broadcast/multicast representation graph."""
    sources = [node for node in representation.nodes() if representation.in_degree(node) == 0]
    if len(sources) != 1:
        raise LibraryError("broadcast representation graph must have exactly one source")
    return sources[0]


# ----------------------------------------------------------------------
# shortest-path routing inside an implementation graph
# ----------------------------------------------------------------------
def _bfs_route(graph: DiGraph, source: Node, target: Node) -> tuple[Node, ...]:
    """Deterministic BFS shortest path (insertion-order neighbour expansion)."""
    if source == target:
        return (source,)
    parents: dict[Node, Node] = {}
    visited = {source}
    queue: deque[Node] = deque([source])
    while queue:
        node = queue.popleft()
        for successor in graph.successors(node):
            if successor in visited:
                continue
            visited.add(successor)
            parents[successor] = node
            if successor == target:
                path = [target]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                path.reverse()
                return tuple(path)
            queue.append(successor)
    raise LibraryError(f"implementation graph has no route from {source!r} to {target!r}")


def derive_internal_routes(
    representation: DiGraph, implementation: DiGraph
) -> dict[Edge, tuple[Node, ...]]:
    """Route every representation edge over the implementation graph (BFS)."""
    return {
        (source, target): _bfs_route(implementation, source, target)
        for source, target in representation.edges()
    }


# ----------------------------------------------------------------------
# primitive builders
# ----------------------------------------------------------------------
def _default_nodes(count: int) -> list[int]:
    """Primitive-local node labels 1..count, matching the paper's figures."""
    return list(range(1, count + 1))


def make_gossip_primitive(size: int, name: str | None = None) -> CommunicationPrimitive:
    """Gossip (all-to-all) among ``size`` nodes with a hypercube MGG implementation.

    ``size`` must be a power of two (2, 4, 8, ...).  For ``size == 4`` the
    implementation graph is the 4-cycle MGG-4 of Figure 1 with the exact
    round structure quoted in Section 4.5: (1,3) and (2,4) exchange first,
    then (1,2) and (3,4).
    """
    if size < 2 or size & (size - 1):
        raise LibraryError("gossip primitives are provided for power-of-two sizes only")
    nodes = _default_nodes(size)
    representation = DiGraph(name=f"gossip-{size}-rep")
    for source in nodes:
        for target in nodes:
            if source != target:
                representation.add_edge(source, target)

    implementation = DiGraph(name=f"MGG{size}")
    if size == 2:
        schedule = pair_exchange_schedule(nodes[0], nodes[1])
    else:
        schedule = hypercube_gossip_schedule(nodes)
    # The implementation links are exactly the exchange pairs of the schedule
    # (the hypercube edges); every exchange is a full-duplex physical link.
    for round_ in schedule.rounds:
        for transfer in round_:
            implementation.add_edge(transfer.sender, transfer.receiver, exist_ok=True)
    for node in nodes:
        implementation.add_node(node, exist_ok=True)

    routes = derive_internal_routes(representation, implementation)
    primitive = CommunicationPrimitive(
        name=name or f"MGG{size}",
        kind=PrimitiveKind.GOSSIP,
        representation=representation,
        implementation=implementation,
        schedule=schedule,
        internal_routes=routes,
    )
    primitive.validate()
    return primitive


def make_broadcast_primitive(
    num_receivers: int, name: str | None = None
) -> CommunicationPrimitive:
    """Broadcast from node 1 to ``num_receivers`` other nodes.

    The representation graph is the out-star (the requirement "node 1 sends
    to everybody"); the implementation graph is the binomial broadcast tree,
    which reaches all ``num_receivers + 1`` nodes in ``ceil(log2(n))`` rounds
    with only ``n - 1`` links — a Minimum Broadcast Graph.
    """
    if num_receivers < 1:
        raise LibraryError("a broadcast primitive needs at least one receiver")
    size = num_receivers + 1
    nodes = _default_nodes(size)
    root = nodes[0]

    representation = DiGraph(name=f"broadcast-1to{num_receivers}-rep")
    for node in nodes:
        representation.add_node(node, exist_ok=True)
    for receiver in nodes[1:]:
        representation.add_edge(root, receiver)

    schedule = binomial_broadcast_schedule(nodes)
    implementation = DiGraph(name=f"MBG{size}")
    for node in nodes:
        implementation.add_node(node, exist_ok=True)
    for round_ in schedule.rounds:
        for transfer in round_:
            implementation.add_edge(transfer.sender, transfer.receiver, exist_ok=True)

    routes = derive_internal_routes(representation, implementation)
    primitive = CommunicationPrimitive(
        name=name or f"G1to{num_receivers}",
        kind=PrimitiveKind.BROADCAST,
        representation=representation,
        implementation=implementation,
        schedule=schedule,
        internal_routes=routes,
    )
    primitive.validate()
    return primitive


def make_path_primitive(size: int, name: str | None = None) -> CommunicationPrimitive:
    """A directed path 1 -> 2 -> ... -> size (chained point-to-point traffic)."""
    if size < 2:
        raise LibraryError("a path primitive needs at least two nodes")
    nodes = _default_nodes(size)
    representation = DiGraph(name=f"path-{size}-rep")
    for source, target in zip(nodes, nodes[1:]):
        representation.add_edge(source, target)
    implementation = representation.copy()
    implementation.name = f"P{size}"
    schedule = ring_schedule(nodes, closed=False)
    routes = derive_internal_routes(representation, implementation)
    primitive = CommunicationPrimitive(
        name=name or f"P{size}",
        kind=PrimitiveKind.PATH,
        representation=representation,
        implementation=implementation,
        schedule=schedule,
        internal_routes=routes,
    )
    primitive.validate()
    return primitive


def make_loop_primitive(size: int, name: str | None = None) -> CommunicationPrimitive:
    """A directed loop 1 -> 2 -> ... -> size -> 1 (cyclic shift traffic)."""
    if size < 3:
        raise LibraryError("a loop primitive needs at least three nodes")
    nodes = _default_nodes(size)
    representation = DiGraph(name=f"loop-{size}-rep")
    for source, target in zip(nodes, nodes[1:]):
        representation.add_edge(source, target)
    representation.add_edge(nodes[-1], nodes[0])
    implementation = representation.copy()
    implementation.name = f"L{size}"
    schedule = ring_schedule(nodes, closed=True)
    routes = derive_internal_routes(representation, implementation)
    primitive = CommunicationPrimitive(
        name=name or f"L{size}",
        kind=PrimitiveKind.LOOP,
        representation=representation,
        implementation=implementation,
        schedule=schedule,
        internal_routes=routes,
    )
    primitive.validate()
    return primitive


def make_multicast_primitive(
    num_receivers: int, name: str | None = None
) -> CommunicationPrimitive:
    """One-to-many multicast: like broadcast but without the round-optimality claim.

    Useful as a library extension when the application contains fan-outs that
    should be implemented with a simple tree rather than a full MBG.
    """
    if num_receivers < 1:
        raise LibraryError("a multicast primitive needs at least one receiver")
    size = num_receivers + 1
    nodes = _default_nodes(size)
    root = nodes[0]
    representation = DiGraph(name=f"multicast-1to{num_receivers}-rep")
    for receiver in nodes[1:]:
        representation.add_edge(root, receiver)
    schedule = binomial_broadcast_schedule(nodes)
    implementation = DiGraph(name=f"MC{size}")
    for node in nodes:
        implementation.add_node(node, exist_ok=True)
    for round_ in schedule.rounds:
        for transfer in round_:
            implementation.add_edge(transfer.sender, transfer.receiver, exist_ok=True)
    routes = derive_internal_routes(representation, implementation)
    primitive = CommunicationPrimitive(
        name=name or f"M1to{num_receivers}",
        kind=PrimitiveKind.MULTICAST,
        representation=representation,
        implementation=implementation,
        schedule=schedule,
        internal_routes=routes,
    )
    primitive.validate()
    return primitive

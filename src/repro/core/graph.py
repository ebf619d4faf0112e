"""Directed-graph substrate used throughout the synthesis flow.

The paper specifies the application with an *Application Characterization
Graph* (ACG): a directed graph ``G(V, E)`` whose vertices are cores and whose
edge ``e_ij`` carries the communication volume ``v(e_ij)`` and the bandwidth
requirement ``b(e_ij)`` from core ``i`` to core ``j`` (Section 4).  The
decomposition algorithm manipulates these graphs with three operations
(Definitions 1 and 2 of the paper):

* graph *sum* (union of vertex and edge sets),
* graph *difference* (remove the edges of a subgraph, keep the vertices),
* subgraph extraction.

This module implements a small, dependency-free directed graph
(:class:`DiGraph`) with exactly those operations plus the traversal helpers
the rest of the library needs, and the :class:`ApplicationGraph` (ACG)
specialisation that attaches volumes, bandwidths and core positions.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Any

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    NotASubgraphError,
)

Node = Hashable
Edge = tuple[Node, Node]


class DiGraph:
    """A simple directed graph with hashable nodes and at most one edge per pair.

    The class intentionally mirrors the subset of functionality the
    decomposition algorithm needs; it is not a general-purpose graph library.
    Edge attributes are stored as arbitrary mappings so that both plain
    pattern graphs (no attributes) and ACGs (volume/bandwidth) share the same
    machinery.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._succ: dict[Node, dict[Node, dict[str, Any]]] = {}
        self._pred: dict[Node, dict[Node, dict[str, Any]]] = {}
        self._node_attrs: dict[Node, dict[str, Any]] = {}
        # Cached structural counters, maintained by add_edge/remove_edge so
        # num_edges / degree queries are O(1) on the decomposition hot path.
        self._num_edges = 0
        self._out_degree: dict[Node, int] = {}
        self._in_degree: dict[Node, int] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        nodes: Iterable[Node] = (),
        name: str = "",
    ) -> "DiGraph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        graph = cls(name=name)
        for node in nodes:
            graph.add_node(node, exist_ok=True)
        for source, target in edges:
            graph.add_edge(source, target, exist_ok=True)
        return graph

    def copy(self) -> "DiGraph":
        """Return a deep structural copy (attribute dicts are shallow-copied).

        The clone is built from the adjacency dicts directly, not edge by
        edge: nodes and successors keep their order, each predecessor map
        lists its sources in node order (the order re-adding the edges
        source by source gives), each edge's attribute dict is copied once
        and shared by both adjacency maps, and the degree counters carry
        over.  The greedy decomposition and the replay of a chosen cover
        (:meth:`Matching.subtract_from`) clone residuals, and the VF2
        matcher's candidate order follows the node order.
        """
        clone = type(self)(name=self.name)
        clone._node_attrs = {node: dict(attrs) for node, attrs in self._node_attrs.items()}
        successors = clone._succ
        predecessors = {node: {} for node in self._succ}
        for source, targets in self._succ.items():
            row = {}
            for target, attrs in targets.items():
                row[target] = predecessors[target][source] = dict(attrs)
            successors[source] = row
        clone._pred = predecessors
        clone._num_edges = self._num_edges
        clone._out_degree = dict(self._out_degree)
        clone._in_degree = dict(self._in_degree)
        return clone

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(self, node: Node, exist_ok: bool = False, **attrs: Any) -> None:
        """Add ``node``; raise :class:`DuplicateNodeError` unless ``exist_ok``."""
        if node in self._succ:
            if not exist_ok:
                raise DuplicateNodeError(node)
            self._node_attrs[node].update(attrs)
            return
        self._succ[node] = {}
        self._pred[node] = {}
        self._node_attrs[node] = dict(attrs)
        self._out_degree[node] = 0
        self._in_degree[node] = 0

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` together with all incident edges."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        for target in list(self._succ[node]):
            self.remove_edge(node, target)
        for source in list(self._pred[node]):
            self.remove_edge(source, node)
        del self._succ[node]
        del self._pred[node]
        del self._node_attrs[node]
        del self._out_degree[node]
        del self._in_degree[node]

    def has_node(self, node: Node) -> bool:
        """True when ``node`` is in the graph."""
        return node in self._succ

    def nodes(self) -> list[Node]:
        """Return the node list in insertion order."""
        return list(self._succ)

    def node_attributes(self, node: Node) -> dict[str, Any]:
        """The mutable attribute dict of ``node``."""
        if node not in self._node_attrs:
            raise NodeNotFoundError(node)
        return self._node_attrs[node]

    @property
    def num_nodes(self) -> int:
        """Number of nodes (O(1))."""
        return len(self._succ)

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(
        self, source: Node, target: Node, exist_ok: bool = False, **attrs: Any
    ) -> None:
        """Add the directed edge ``source -> target``.

        Self-loops are rejected: a core never sends traffic to itself in an
        ACG and the communication primitives never contain them either.
        """
        if source == target:
            raise GraphError(f"self-loop {source!r} -> {target!r} is not allowed")
        self.add_node(source, exist_ok=True)
        self.add_node(target, exist_ok=True)
        if target in self._succ[source]:
            if not exist_ok:
                raise DuplicateEdgeError(source, target)
            self._succ[source][target].update(attrs)
            return
        data = dict(attrs)
        self._succ[source][target] = data
        self._pred[target][source] = data
        self._num_edges += 1
        self._out_degree[source] += 1
        self._in_degree[target] += 1

    def remove_edge(self, source: Node, target: Node) -> None:
        """Delete one directed edge (the endpoints stay)."""
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        del self._succ[source][target]
        del self._pred[target][source]
        self._num_edges -= 1
        self._out_degree[source] -= 1
        self._in_degree[target] -= 1

    def has_edge(self, source: Node, target: Node) -> bool:
        """True when the directed edge ``source -> target`` exists."""
        return source in self._succ and target in self._succ[source]

    def edge_attributes(self, source: Node, target: Node) -> dict[str, Any]:
        """The mutable attribute dict of one directed edge."""
        if not self.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        return self._succ[source][target]

    def edges(self, data: bool = False) -> list[tuple]:
        """Return all edges, optionally with their attribute dictionaries."""
        result = []
        for source, targets in self._succ.items():
            for target, attrs in targets.items():
                if data:
                    result.append((source, target, attrs))
                else:
                    result.append((source, target))
        return result

    @property
    def num_edges(self) -> int:
        """Number of directed edges (O(1), maintained incrementally)."""
        return self._num_edges

    # ------------------------------------------------------------------
    # adjacency / degrees
    # ------------------------------------------------------------------
    def successors(self, node: Node) -> list[Node]:
        """Nodes reachable from ``node`` over one outgoing edge."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return list(self._succ[node])

    def predecessors(self, node: Node) -> list[Node]:
        """Nodes with an edge into ``node``."""
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return list(self._pred[node])

    def neighbors(self, node: Node) -> list[Node]:
        """Union of successors and predecessors (order-preserving, unique)."""
        seen: dict[Node, None] = {}
        for neighbor in self.successors(node):
            seen.setdefault(neighbor, None)
        for neighbor in self.predecessors(node):
            seen.setdefault(neighbor, None)
        return list(seen)

    def out_degree(self, node: Node) -> int:
        """Number of outgoing edges of ``node`` (O(1))."""
        try:
            return self._out_degree[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def in_degree(self, node: Node) -> int:
        """Number of incoming edges of ``node`` (O(1))."""
        try:
            return self._in_degree[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """Total degree: in-degree plus out-degree (O(1))."""
        return self.in_degree(node) + self.out_degree(node)

    # ------------------------------------------------------------------
    # Definitions 1 and 2 of the paper
    # ------------------------------------------------------------------
    def graph_sum(self, other: "DiGraph") -> "DiGraph":
        """Definition 1: the union of vertex and edge sets of two graphs."""
        result = self.copy()
        result.name = f"{self.name}+{other.name}" if self.name or other.name else ""
        for node, attrs in other._node_attrs.items():
            result.add_node(node, exist_ok=True, **dict(attrs))
        for source, target, attrs in other.edges(data=True):
            result.add_edge(source, target, exist_ok=True, **dict(attrs))
        return result

    def graph_difference(self, subgraph: "DiGraph") -> "DiGraph":
        """Definition 2: the remaining graph ``R`` after removing ``subgraph``.

        The vertex set is preserved (``V_R = V``); only the edges of the
        subgraph are removed.  All edges of ``subgraph`` must be present.
        """
        for source, target in subgraph.edges():
            if not self.has_edge(source, target):
                raise NotASubgraphError(
                    f"edge ({source!r} -> {target!r}) of the subtracted graph "
                    "is not present in the original graph"
                )
        result = self.copy()
        for source, target in subgraph.edges():
            result.remove_edge(source, target)
        return result

    def edge_induced_subgraph(self, edges: Iterable[Edge]) -> "DiGraph":
        """Return the subgraph consisting of ``edges`` and their endpoints."""
        result = type(self)(name=f"{self.name}|sub")
        for source, target in edges:
            if not self.has_edge(source, target):
                raise EdgeNotFoundError(source, target)
            attrs = dict(self.edge_attributes(source, target))
            result.add_edge(source, target, **attrs)
        return result

    # ------------------------------------------------------------------
    # traversal / structure queries
    # ------------------------------------------------------------------
    def isolated_nodes(self) -> list[Node]:
        """Nodes with neither incoming nor outgoing edges."""
        return [node for node in self.nodes() if self.degree(node) == 0]

    def without_isolated_nodes(self) -> "DiGraph":
        """Return a copy with all isolated nodes removed."""
        result = self.copy()
        for node in result.isolated_nodes():
            result.remove_node(node)
        return result

    def weakly_connected_components(self) -> list[set[Node]]:
        """Connected components of the underlying undirected graph."""
        remaining = set(self.nodes())
        components: list[set[Node]] = []
        while remaining:
            start = next(iter(remaining))
            component = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in self.neighbors(node):
                    if neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            components.append(component)
            remaining -= component
        return components

    def is_weakly_connected(self) -> bool:
        """True when the undirected projection is connected (empty counts)."""
        if self.num_nodes == 0:
            return True
        return len(self.weakly_connected_components()) == 1

    def find_cycle(self) -> list[Node] | None:
        """Return one directed cycle as a node list, or ``None`` if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in self.nodes()}
        parent: dict[Node, Node | None] = {}

        for root in self.nodes():
            if color[root] != WHITE:
                continue
            stack: list[tuple[Node, Iterator[Node]]] = [(root, iter(self.successors(root)))]
            color[root] = GRAY
            parent[root] = None
            while stack:
                node, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if color[successor] == WHITE:
                        color[successor] = GRAY
                        parent[successor] = node
                        stack.append((successor, iter(self.successors(successor))))
                        advanced = True
                        break
                    if color[successor] == GRAY:
                        cycle = [successor, node]
                        walker = parent[node]
                        while walker is not None and walker != successor:
                            cycle.append(walker)
                            walker = parent[walker]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        """True when the graph has no directed cycle."""
        return self.find_cycle() is None

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return set(self.nodes()) == set(other.nodes()) and set(self.edges()) == set(
            other.edges()
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("DiGraph objects are mutable and therefore unhashable")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} |V|={self.num_nodes} |E|={self.num_edges}>"


class EdgeIndex:
    """Bit positions for a graph's edges, so an edge subset is one ``int``.

    Edge ``i`` of ``graph.edges()`` is bit ``1 << i``, so iterating a mask
    from its lowest bit visits its edges in the graph's edge order, the
    order a :class:`DiGraph` residual of ``graph`` lists them in.  The
    decomposition search keeps its residuals and matchings as such masks:
    subtracting a matching is ``residual & ~mask``.  The index is a
    snapshot; it does not follow later edits of ``graph``.
    """

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph
        self.nodes: list[Node] = graph.nodes()
        self.edges: list[Edge] = graph.edges()
        self.bit: dict[Edge, int] = {edge: index for index, edge in enumerate(self.edges)}
        self.full = (1 << len(self.edges)) - 1
        node_index = {node: index for index, node in enumerate(self.nodes)}
        self.sources = [node_index[source] for source, _ in self.edges]
        self.targets = [node_index[target] for _, target in self.edges]
        # per edge: the mask of its reverse edge (0 when the graph has none)
        self.reverse = [
            1 << self.bit[target, source] if (target, source) in self.bit else 0
            for source, target in self.edges
        ]
        # per node position: its outgoing and incoming edges, and one mask
        # per full-duplex partner holding both directions of the pair
        self.out_masks = [0] * len(self.nodes)
        self.in_masks = [0] * len(self.nodes)
        self.pair_masks: list[list[int]] = [[] for _ in self.nodes]
        # per node position: its successors and predecessors as node-position
        # masks, and target position -> edge mask for its outgoing edges
        self.successor_masks = [0] * len(self.nodes)
        self.predecessor_masks = [0] * len(self.nodes)
        self.edge_masks: list[dict[int, int]] = [{} for _ in self.nodes]
        for index, (source, target) in enumerate(zip(self.sources, self.targets)):
            self.out_masks[source] |= 1 << index
            self.in_masks[target] |= 1 << index
            if self.reverse[index]:
                self.pair_masks[source].append(1 << index | self.reverse[index])
            self.successor_masks[source] |= 1 << target
            self.predecessor_masks[target] |= 1 << source
            self.edge_masks[source][target] = 1 << index
        self._hosts: dict[tuple[int, int], int] = {}

    def hosts(self, degrees: tuple[int, int]) -> int:
        """The node positions with at least ``degrees`` ``(out, in)``
        neighbours, as a mask (memoized: every VF2 query on the index asks)."""
        hosts = self._hosts.get(degrees)
        if hosts is None:
            wanted_out, wanted_in = degrees
            hosts = self._hosts[degrees] = sum(
                1 << position
                for position, (out_mask, in_mask) in enumerate(
                    zip(self.successor_masks, self.predecessor_masks)
                )
                if out_mask.bit_count() >= wanted_out and in_mask.bit_count() >= wanted_in
            )
        return hosts

    def mask_of(self, edges: Iterable[Edge]) -> int:
        """The mask of an edge subset (``KeyError`` for an unknown edge)."""
        bit = self.bit
        mask = 0
        for edge in edges:
            mask |= 1 << bit[edge]
        return mask

    def edges_of(self, mask: int) -> list[Edge]:
        """The edges of ``mask`` in the graph's edge order."""
        edges = self.edges
        found = []
        while mask:
            low = mask & -mask
            found.append(edges[low.bit_length() - 1])
            mask ^= low
        return found

    def graph_of(self, mask: int) -> DiGraph:
        """``mask`` as a plain :class:`DiGraph` over every node of the graph.

        It equals the residual the graph's structural copy leaves after the
        complementary edges are removed, node and edge orders included.
        """
        return DiGraph.from_edges(self.edges_of(mask), nodes=self.nodes, name=self.graph.name)

    @staticmethod
    def sum_over(mask: int, charges: list[float]) -> float:
        """``charges[i]`` summed over the bits of ``mask``, lowest bit first.

        The sum runs sequentially in edge order, as a loop over a residual
        graph's ``edges()`` does, so both give the same float.
        """
        total = 0.0
        while mask:
            low = mask & -mask
            total += charges[low.bit_length() - 1]
            mask ^= low
        return total


@dataclass(frozen=True)
class CorePosition:
    """Physical position (centre) of a core on the die, in millimetres."""

    x: float
    y: float

    def manhattan_distance(self, other: "CorePosition") -> float:
        """L1 distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)


class ApplicationGraph(DiGraph):
    """Application Characterization Graph (ACG).

    Each vertex is a core; each directed edge carries the communication
    volume ``v(e_ij)`` (bits) and the required bandwidth ``b(e_ij)``.  Cores
    optionally carry a :class:`CorePosition` so that link lengths — and
    therefore link energies — can be derived from the floorplan, exactly as
    assumed in Section 4 of the paper.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name)
        self._positions: dict[Node, CorePosition] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_traffic(
        cls,
        traffic: Mapping[Edge, float] | Iterable[tuple[Node, Node, float]],
        name: str = "",
        bandwidth_fraction: float = 0.0,
    ) -> "ApplicationGraph":
        """Build an ACG from a ``{(src, dst): volume}`` mapping or triples.

        ``bandwidth_fraction`` sets ``b(e) = bandwidth_fraction * v(e)`` which
        is a convenient default when only volumes are known.
        """
        graph = cls(name=name)
        if isinstance(traffic, Mapping):
            items = [(src, dst, vol) for (src, dst), vol in traffic.items()]
        else:
            items = list(traffic)
        for source, target, volume in items:
            graph.add_communication(
                source, target, volume=volume, bandwidth=bandwidth_fraction * volume
            )
        return graph

    def add_communication(
        self,
        source: Node,
        target: Node,
        volume: float = 1.0,
        bandwidth: float = 0.0,
        accumulate: bool = True,
    ) -> None:
        """Add (or accumulate onto) the communication edge ``source -> target``."""
        if not (0 <= volume < math.inf and 0 <= bandwidth < math.inf):
            raise GraphError("volume and bandwidth must be finite and non-negative")
        if self.has_edge(source, target) and accumulate:
            data = self.edge_attributes(source, target)
            data["volume"] = data.get("volume", 0.0) + volume
            data["bandwidth"] = data.get("bandwidth", 0.0) + bandwidth
            return
        self.add_edge(source, target, exist_ok=True, volume=volume, bandwidth=bandwidth)

    # -- attribute accessors ---------------------------------------------
    def volume(self, source: Node, target: Node) -> float:
        """Communication volume ``v(e_ij)`` in bits."""
        return float(self.edge_attributes(source, target).get("volume", 0.0))

    def bandwidth(self, source: Node, target: Node) -> float:
        """Bandwidth requirement ``b(e_ij)``."""
        return float(self.edge_attributes(source, target).get("bandwidth", 0.0))

    def total_volume(self) -> float:
        """Sum of all edge volumes (bits)."""
        return sum(self.volume(s, t) for s, t in self.edges())

    def set_position(self, node: Node, x: float, y: float) -> None:
        """Pin ``node`` to floorplan coordinates (mm)."""
        if not self.has_node(node):
            raise NodeNotFoundError(node)
        self._positions[node] = CorePosition(float(x), float(y))

    def position(self, node: Node) -> CorePosition:
        """The floorplan position of ``node`` (raises if unset)."""
        if node not in self._positions:
            raise NodeNotFoundError(node)
        return self._positions[node]

    def has_position(self, node: Node) -> bool:
        """True when ``node`` has a floorplan position."""
        return node in self._positions

    def positions(self) -> dict[Node, CorePosition]:
        """All pinned floorplan positions by node."""
        return dict(self._positions)

    def link_length(self, source: Node, target: Node) -> float:
        """Manhattan distance between two cores, from the floorplan."""
        return self.position(source).manhattan_distance(self.position(target))

    def apply_floorplan(self, placements: Mapping[Node, tuple[float, float]]) -> None:
        """Attach core coordinates produced by :mod:`repro.floorplan`."""
        for node, (x, y) in placements.items():
            if self.has_node(node):
                self.set_position(node, x, y)

    # -- copies must preserve positions ----------------------------------
    def copy(self) -> "ApplicationGraph":
        """Deep copy including positions and attributes."""
        clone = super().copy()
        assert isinstance(clone, ApplicationGraph)
        clone._positions = dict(self._positions)
        return clone

    def structural_copy(self) -> DiGraph:
        """Return a plain :class:`DiGraph` with the same nodes and edges."""
        return DiGraph.from_edges(self.edges(), nodes=self.nodes(), name=self.name)


@dataclass
class GraphStatistics:
    """Summary statistics of a directed graph, used in reports and tests."""

    num_nodes: int
    num_edges: int
    max_out_degree: int
    max_in_degree: int
    density: float
    is_connected: bool
    num_components: int
    total_volume: float = 0.0

    @classmethod
    def of(cls, graph: DiGraph) -> "GraphStatistics":
        """Compute the statistics of ``graph`` in one pass."""
        nodes = graph.nodes()
        num_nodes = len(nodes)
        num_edges = graph.num_edges
        max_possible = num_nodes * (num_nodes - 1)
        total_volume = 0.0
        if isinstance(graph, ApplicationGraph):
            total_volume = graph.total_volume()
        return cls(
            num_nodes=num_nodes,
            num_edges=num_edges,
            max_out_degree=max((graph.out_degree(n) for n in nodes), default=0),
            max_in_degree=max((graph.in_degree(n) for n in nodes), default=0),
            density=(num_edges / max_possible) if max_possible else 0.0,
            is_connected=graph.is_weakly_connected(),
            num_components=len(graph.weakly_connected_components()),
            total_volume=total_volume,
        )

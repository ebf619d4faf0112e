"""Routing-policy registry: deterministic policies over topology families.

Every policy compiles down to the flat :class:`~repro.routing.table.RoutingTable`
next-hop form the event engine already consumes (``(current, destination) ->
next hop``), so the simulator never knows which policy produced its table.
Policies are *deterministic and memoryless by construction*: the next hop is
a pure function of the current router and the destination, never of the
packet's history, which is what makes the channel-dependency-graph (CDG)
deadlock analysis of :mod:`repro.routing.deadlock` exact.

Built-in policies
-----------------
``xy`` / ``yx``
    Dimension-ordered routing for grid fabrics (columns first / rows
    first).  Deadlock-free by construction (acyclic turn set).
``west_first`` / ``odd_even``
    Deterministic minimal variants of the classic turn models: each uses
    only turns its model permits (west-first forbids turns into west;
    odd-even forbids EN/ES turns at even columns and NW/SW turns at odd
    columns), so both are deadlock-free by construction while exercising
    different link sets than XY/YX.
``dateline``
    Shortest-direction routing around wraparound fabrics (torus, ring,
    spidergon rings).  Minimal on the torus/ring, but the wrap cycles
    make its CDG cyclic without virtual channels — the deadlock gate
    records ``vc_channels_needed`` instead of pretending otherwise.
``up_down``
    Generic up*/down* routing for arbitrary (irregular) fabrics: a BFS
    spanning tree orients every channel, packets climb zero or more
    "up" channels then descend "down" channels only.  Deadlock-free by
    construction on any connected bidirectional fabric.
``shortest_path``
    Destination-rooted BFS trees: hop-minimal on every fabric, but with
    no deadlock guarantee — the canonical "let the CDG gate decide"
    policy.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass

from repro.arch.families import RingTopology, TorusTopology
from repro.arch.mesh import MeshTopology
from repro.arch.topology import Topology
from repro.exceptions import RoutingError
from repro.plugins.registry import Registry
from repro.routing.table import RoutingTable

NodeId = Hashable
NextHopFunction = Callable[[Topology, NodeId, NodeId], NodeId]


# ----------------------------------------------------------------------
# grid policies (dimension-ordered and turn-model variants)
# ----------------------------------------------------------------------
def _require_grid(topology: Topology) -> MeshTopology:
    if not isinstance(topology, MeshTopology):
        raise RoutingError(
            f"topology {topology.name!r} has no grid coordinates; "
            "dimension-ordered policies need a mesh-family fabric"
        )
    return topology


def _vertical_step(mesh: MeshTopology, current, destination) -> NodeId:
    coords = mesh.coordinates(current)
    step = 1 if mesh.coordinates(destination).row > coords.row else -1
    return mesh.node_at(coords.row + step, coords.column)


def _horizontal_step(mesh: MeshTopology, current, destination) -> NodeId:
    coords = mesh.coordinates(current)
    step = 1 if mesh.coordinates(destination).column > coords.column else -1
    return mesh.node_at(coords.row, coords.column + step)


def _xy_next(topology: Topology, current: NodeId, destination: NodeId) -> NodeId:
    mesh = _require_grid(topology)
    if mesh.column_of(current) != mesh.column_of(destination):
        return _horizontal_step(mesh, current, destination)
    return _vertical_step(mesh, current, destination)


def _yx_next(topology: Topology, current: NodeId, destination: NodeId) -> NodeId:
    mesh = _require_grid(topology)
    if mesh.row_of(current) != mesh.row_of(destination):
        return _vertical_step(mesh, current, destination)
    return _horizontal_step(mesh, current, destination)


def _west_first_next(topology: Topology, current: NodeId, destination: NodeId) -> NodeId:
    """Deterministic west-first: westbound packets go column-first (all west
    hops up front, as the turn model demands), east/aligned packets go
    row-first then east — no turn into west is ever taken."""
    mesh = _require_grid(topology)
    current_coords = mesh.coordinates(current)
    destination_coords = mesh.coordinates(destination)
    if destination_coords.column < current_coords.column:
        return _horizontal_step(mesh, current, destination)  # west, then rows
    if current_coords.row != destination_coords.row:
        return _vertical_step(mesh, current, destination)  # rows, then east
    return _horizontal_step(mesh, current, destination)


def _odd_even_next(topology: Topology, current: NodeId, destination: NodeId) -> NodeId:
    """Deterministic odd-even: eastbound packets flush their row offset at
    odd columns only (EN/ES turns are forbidden at even columns), westbound
    packets go column-first (NW/SW turns never occur)."""
    mesh = _require_grid(topology)
    current_coords = mesh.coordinates(current)
    destination_coords = mesh.coordinates(destination)
    if current_coords.column == destination_coords.column:
        return _vertical_step(mesh, current, destination)
    if destination_coords.column < current_coords.column:
        return _horizontal_step(mesh, current, destination)
    if current_coords.row == destination_coords.row:
        return _horizontal_step(mesh, current, destination)
    if current_coords.column % 2 == 1:
        return _vertical_step(mesh, current, destination)
    return _horizontal_step(mesh, current, destination)


# ----------------------------------------------------------------------
# dateline (wraparound) policy
# ----------------------------------------------------------------------
def _wrap_step(position: int, target: int, size: int) -> int:
    """Direction (+1/-1) of the shorter way around a size-``size`` cycle."""
    forward = (target - position) % size
    return 1 if forward <= size - forward else -1


def _dateline_next(topology: Topology, current: NodeId, destination: NodeId) -> NodeId:
    if isinstance(topology, TorusTopology):
        current_coords = topology.coordinates(current)
        destination_coords = topology.coordinates(destination)
        if current_coords.column != destination_coords.column:
            step = _wrap_step(
                current_coords.column, destination_coords.column, topology.columns
            )
            return topology.node_at(
                current_coords.row, (current_coords.column + step) % topology.columns
            )
        step = _wrap_step(current_coords.row, destination_coords.row, topology.rows)
        return topology.node_at(
            (current_coords.row + step) % topology.rows, current_coords.column
        )
    if isinstance(topology, RingTopology):
        index = topology.index_of(current)
        step = _wrap_step(index, topology.index_of(destination), topology.ring_size)
        return topology.node_at_index((index + step) % topology.ring_size)
    raise RoutingError(
        f"topology {topology.name!r} has no wraparound dimension; "
        "dateline routing needs a torus- or ring-family fabric"
    )


# ----------------------------------------------------------------------
# generic policies for irregular fabrics
# ----------------------------------------------------------------------
def _bfs_labels(topology: Topology) -> dict[NodeId, tuple[int, int]]:
    """``node -> (level, discovery index)`` of a deterministic BFS tree.

    The root is the first router in insertion order; neighbor expansion
    follows channel insertion order, so labels — and therefore the whole
    up*/down* orientation — are reproducible across runs.
    """
    routers = topology.routers()
    root = routers[0]
    labels: dict[NodeId, tuple[int, int]] = {root: (0, 0)}
    queue: deque[NodeId] = deque([root])
    index = 1
    while queue:
        node = queue.popleft()
        level = labels[node][0]
        for neighbor in topology.neighbors_out(node):
            if neighbor not in labels:
                labels[neighbor] = (level + 1, index)
                index += 1
                queue.append(neighbor)
    if len(labels) != topology.num_routers:
        missing = [node for node in routers if node not in labels]
        raise RoutingError(
            f"topology {topology.name!r} is not connected from {root!r}: "
            f"unreachable routers {missing[:4]!r}"
        )
    return labels


def _up_down_destination_tree(
    topology: Topology,
    destination: NodeId,
    labels: dict[NodeId, tuple[int, int]],
) -> dict[NodeId, NodeId]:
    """Next hops towards one destination under the up*/down* discipline.

    A channel ``a -> b`` is a *down* channel when ``b``'s (level, index)
    label is larger than ``a``'s.  Routers that can reach the destination
    over down channels alone follow the shortest such chain (computed by a
    reverse BFS from the destination); every other router climbs its
    lowest-label up neighbor, which strictly decreases the label and
    terminates at a down-capable router (the root can always descend the
    BFS tree).  Because a packet that ever takes a down channel stays on a
    pure-down chain, no route takes an up channel after a down one — the
    classic acyclicity argument, so the policy is deadlock-free.
    """
    next_hop: dict[NodeId, NodeId] = {}
    down_reachable = {destination}
    queue: deque[NodeId] = deque([destination])
    while queue:
        node = queue.popleft()
        for upstream in topology.neighbors_in(node):
            if upstream in down_reachable or labels[upstream] >= labels[node]:
                continue  # already routed, or the hop would not be "down"
            down_reachable.add(upstream)
            next_hop[upstream] = node
            queue.append(upstream)
    for node in topology.routers():
        if node == destination or node in down_reachable:
            continue
        up_neighbors = [
            neighbor
            for neighbor in topology.neighbors_out(node)
            if labels[neighbor] < labels[node]
        ]
        if not up_neighbors:
            raise RoutingError(
                f"router {node!r} has no up channel towards the root; "
                f"up*/down* routing needs bidirectional tree links in "
                f"{topology.name!r}"
            )
        # prefer an up neighbor that can already descend; else climb fastest
        candidates = sorted(
            up_neighbors,
            key=lambda neighbor: (neighbor not in down_reachable, labels[neighbor]),
        )
        next_hop[node] = candidates[0]
    return next_hop


def _pairs_by_destination(
    topology: Topology, pairs: Iterable[tuple[NodeId, NodeId]] | None
) -> dict[NodeId, set[NodeId] | None]:
    """``destination -> wanted sources`` (``None`` meaning every router)."""
    if pairs is None:
        return {destination: None for destination in topology.routers()}
    grouped: dict[NodeId, set[NodeId] | None] = {}
    for source, destination in pairs:
        if source != destination:
            grouped.setdefault(destination, set()).add(source)  # type: ignore[union-attr]
    return grouped


def _install_destination_tree(
    table: RoutingTable,
    destination: NodeId,
    tree: dict[NodeId, NodeId],
    sources: set[NodeId] | None,
) -> None:
    """Install one destination tree, restricted to the wanted sources' routes.

    Each wanted source's next-hop chain is walked once (stopping early at
    routers already collected), so the restriction costs the routed paths'
    total length rather than rescanning the whole tree per router.
    """
    if sources is None:
        for router, hop in tree.items():
            table.set_next_hop(router, destination, hop)
        return
    on_route: set[NodeId] = set()
    for source in sources:
        current = source
        while current in tree and current not in on_route:
            on_route.add(current)
            current = tree[current]
    for router in on_route:
        table.set_next_hop(router, destination, tree[router])


def _build_up_down_table(
    topology: Topology, pairs: Iterable[tuple[NodeId, NodeId]] | None
) -> RoutingTable:
    labels = _bfs_labels(topology)
    table = RoutingTable(topology)
    for destination, sources in _pairs_by_destination(topology, pairs).items():
        tree = _up_down_destination_tree(topology, destination, labels)
        _install_destination_tree(table, destination, tree, sources)
    return table


def _bfs_destination_tree(topology: Topology, destination: NodeId) -> dict[NodeId, NodeId]:
    """Hop-minimal next hops towards one destination (reverse BFS).

    Rooting the BFS at the destination makes the table *consistent*: every
    router stores exactly one next hop per destination, so paths from
    different sources through a shared router agree (per-pair forward BFS
    would not guarantee that).
    """
    next_hop: dict[NodeId, NodeId] = {}
    seen = {destination}
    queue: deque[NodeId] = deque([destination])
    while queue:
        node = queue.popleft()
        for upstream in topology.neighbors_in(node):
            if upstream in seen:
                continue
            seen.add(upstream)
            next_hop[upstream] = node
            queue.append(upstream)
    return next_hop


def _build_shortest_path_table(
    topology: Topology, pairs: Iterable[tuple[NodeId, NodeId]] | None
) -> RoutingTable:
    table = RoutingTable(topology)
    for destination, sources in _pairs_by_destination(topology, pairs).items():
        tree = _bfs_destination_tree(topology, destination)
        if sources is not None:
            unreachable = [source for source in sources if source not in tree]
            if unreachable:
                raise RoutingError(
                    f"no route from {unreachable[0]!r} to {destination!r} "
                    f"in {topology.name!r}"
                )
        _install_destination_tree(table, destination, tree, sources)
    return table


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicySpec:
    """One named routing policy: table construction + applicability."""

    name: str
    description: str
    deadlock_free_by_construction: bool
    """True when the policy's turn/orientation discipline guarantees an
    acyclic CDG on every fabric it supports (the property suite asserts
    exactly this)."""
    builder: Callable[[Topology, Iterable[tuple[NodeId, NodeId]] | None], RoutingTable]
    supports: Callable[[Topology], bool]
    minimal_families: tuple[str, ...] = ()
    """Family names on which the policy is hop-minimal (matches BFS)."""

    def build(
        self,
        topology: Topology,
        pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
    ) -> RoutingTable:
        """Compile the policy into a flat next-hop table for ``topology``."""
        if not self.supports(topology):
            raise RoutingError(
                f"routing policy {self.name!r} does not support "
                f"topology {topology.name!r}"
            )
        return self.builder(topology, pairs)


#: the routing-policy registry: one :class:`repro.plugins.Registry` cell
#: of the plugin fabric (third-party policies register here, directly or
#: through the ``repro.plugins`` entry-point group)
POLICIES: Registry[PolicySpec] = Registry("routing policy")


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Register (or replace) a routing policy under its name."""
    return POLICIES.register(spec.name, spec)


def policy_names() -> list[str]:
    """All registered policy names, sorted (after plugin discovery)."""
    return POLICIES.names()


def get_policy(name: str) -> PolicySpec:
    """Look a policy up by name.

    Raises :class:`~repro.exceptions.UnknownPluginError` (a
    :class:`~repro.exceptions.ConfigurationError`) listing the available
    policies and the nearest match when the name is unknown.
    """
    return POLICIES.get(name)


def build_policy_table(
    policy: str,
    topology: Topology,
    pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
) -> RoutingTable:
    """Compile the named policy into a routing table over ``topology``."""
    return get_policy(policy).build(topology, pairs)


def supported_policies(topology: Topology) -> list[str]:
    """Names of every registered policy applicable to ``topology``."""
    return [name for name in policy_names() if POLICIES.get(name).supports(topology)]


def _next_hop_builder(next_hop: NextHopFunction):
    """Lift a memoryless next-hop function into a table builder."""

    def build(
        topology: Topology, pairs: Iterable[tuple[NodeId, NodeId]] | None
    ) -> RoutingTable:
        table = RoutingTable(topology)
        if pairs is None:
            routers = topology.routers()
            pairs = [(s, d) for s in routers for d in routers if s != d]
        max_hops = 4 * max(topology.num_routers, 1)
        for source, destination in pairs:
            if source == destination:
                continue
            path = [source]
            while path[-1] != destination:
                path.append(next_hop(topology, path[-1], destination))
                if len(path) > max_hops:
                    raise RoutingError(
                        f"policy next-hop function loops going from "
                        f"{source!r} to {destination!r}: {path[:8]}..."
                    )
            table.install_path(path)
        return table

    return build


def _is_grid(topology: Topology) -> bool:
    return isinstance(topology, MeshTopology)


def _is_wraparound(topology: Topology) -> bool:
    return isinstance(topology, (TorusTopology, RingTopology))


def _any_topology(topology: Topology) -> bool:
    return True


register_policy(
    PolicySpec(
        name="xy",
        description="dimension-ordered: columns first, then rows",
        deadlock_free_by_construction=True,
        builder=_next_hop_builder(_xy_next),
        supports=_is_grid,
        minimal_families=("mesh",),
    )
)

register_policy(
    PolicySpec(
        name="yx",
        description="dimension-ordered: rows first, then columns",
        deadlock_free_by_construction=True,
        builder=_next_hop_builder(_yx_next),
        supports=_is_grid,
        minimal_families=("mesh",),
    )
)

register_policy(
    PolicySpec(
        name="west_first",
        description="west-first turn model, deterministic minimal variant",
        deadlock_free_by_construction=True,
        builder=_next_hop_builder(_west_first_next),
        supports=_is_grid,
        minimal_families=("mesh",),
    )
)

register_policy(
    PolicySpec(
        name="odd_even",
        description="odd-even turn model, deterministic minimal variant",
        deadlock_free_by_construction=True,
        builder=_next_hop_builder(_odd_even_next),
        supports=_is_grid,
        minimal_families=("mesh",),
    )
)

register_policy(
    PolicySpec(
        name="dateline",
        description="shortest way around wraparound fabrics (needs VCs)",
        deadlock_free_by_construction=False,
        builder=_next_hop_builder(_dateline_next),
        supports=_is_wraparound,
        minimal_families=("torus", "ring"),
    )
)

register_policy(
    PolicySpec(
        name="up_down",
        description="up*/down* over a BFS spanning tree (any fabric)",
        deadlock_free_by_construction=True,
        builder=_build_up_down_table,
        supports=_any_topology,
        minimal_families=("fat_tree",),
    )
)

register_policy(
    PolicySpec(
        name="shortest_path",
        description="destination-rooted BFS, hop-minimal, no deadlock guarantee",
        deadlock_free_by_construction=False,
        builder=_build_shortest_path_table,
        supports=_any_topology,
        minimal_families=(
            "mesh",
            "torus",
            "ring",
            "spidergon",
            "fat_tree",
            "long_range_mesh",
        ),
    )
)

"""Subgraph-isomorphism engine (VF2-style) used by the decomposition algorithm.

The paper's branch-and-bound decomposition repeatedly asks: *does the current
application graph contain a subgraph isomorphic to one of the representation
graphs in the communication library?* (Definition 4).  The original tool used
the C++ VF2 implementation of Cordella et al.; here we implement the same
state-space search directly in Python.

The matcher finds monomorphisms: every *pattern* edge must map to an edge
of the target between the mapped endpoints, and extra target edges between
mapped vertices are allowed.  This is the semantics of Definition 3/4: a
subgraph ``S`` of the target (any edge subset) must be isomorphic to the
pattern, and only the matched edges are subtracted.

The matcher supports

* enumeration of one / all / up to *k* matchings,
* de-duplication of matchings that cover the same edge set (important for
  symmetric primitives such as gossip graphs, whose automorphism group
  would otherwise multiply the search space of the decomposition),
* an optional wall-clock timeout, as suggested in Section 5.1 of the paper
  ("the search for the isomorphism can be terminated after a time-out
  period rather than trying all permutations").  The decomposition treats
  it as an abort: a timed-out query raises there, it never clips a list.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.core.graph import DiGraph, Edge, EdgeIndex, Node


@dataclass(frozen=True)
class IsomorphismMapping:
    """An injective mapping from pattern vertices to target vertices.

    A mapping found by :class:`VF2Matcher` also carries ``edge_mask``, the
    target edges it covers as bits over ``target.edges()`` (bit ``i`` is
    edge ``i``); it is 0 for a mapping built by hand and takes no part in
    equality.
    """

    mapping: tuple[tuple[Node, Node], ...]
    edge_mask: int = field(default=0, compare=False)

    @classmethod
    def from_dict(cls, mapping: dict[Node, Node]) -> "IsomorphismMapping":
        """Canonicalize a plain mapping dict into a hashable mapping."""
        return cls(tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0]))))

    def as_dict(self) -> dict[Node, Node]:
        """Plain-dict view of the node mapping."""
        return dict(self.mapping)

    def covered_edges(self, pattern: DiGraph) -> frozenset[Edge]:
        """The target edges that are images of pattern edges."""
        as_dict = self.as_dict()
        return frozenset(
            (as_dict[source], as_dict[target]) for source, target in pattern.edges()
        )

    def __len__(self) -> int:
        return len(self.mapping)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{p!r}->{t!r}" for p, t in self.mapping)
        return f"IsomorphismMapping({pairs})"


class SearchTimeout(Exception):
    """Internal signal: the wall-clock budget for this search is exhausted."""


class PatternPlan:
    """The half of a VF2 search that only the pattern decides.

    Built once per pattern and reused by every matcher over it (a library
    entry keeps one, :attr:`repro.core.library.LibraryEntry.pattern_plan`);
    a matcher binds it to its target's masks.  The pattern must not change
    while a plan of it is in use.

    ``order`` is the search order: most-constrained first (highest total
    degree, ties by ``repr``), which keeps the search shallow for the dense
    gossip patterns.  Per depth, ``degrees`` is the ``(out, in)`` degree
    its host must have, ``required`` the ``(earlier depth, outgoing)``
    pairs its image must be a successor (``outgoing``) or predecessor of.
    ``edges`` are the pattern edges as depth pairs, and
    ``assignment_order`` lists the depths in the order
    :meth:`IsomorphismMapping.from_dict` sorts their nodes.
    """

    __slots__ = ("order", "degrees", "required", "edges", "assignment_order")

    def __init__(self, pattern: DiGraph) -> None:
        order = self.order = tuple(
            sorted(pattern.nodes(), key=lambda n: (-pattern.degree(n), repr(n)))
        )
        self.degrees = tuple(
            (pattern.out_degree(node), pattern.in_degree(node)) for node in order
        )
        required: list[tuple[tuple[int, bool], ...]] = []
        for depth, node in enumerate(order):
            linked: list[tuple[int, bool]] = []
            for earlier, mapped in enumerate(order[:depth]):
                if pattern.has_edge(mapped, node):
                    linked.append((earlier, True))
                if pattern.has_edge(node, mapped):
                    linked.append((earlier, False))
            required.append(tuple(linked))
        self.required = tuple(required)
        depth_of = {node: depth for depth, node in enumerate(order)}
        self.edges = tuple((depth_of[source], depth_of[sink]) for source, sink in pattern.edges())
        self.assignment_order = tuple(sorted(range(len(order)), key=lambda k: repr(order[k])))


class VF2Matcher:
    """VF2-style state-space search for directed (sub)graph isomorphism.

    Parameters
    ----------
    pattern:
        The library representation graph (the smaller graph).
    target:
        The application graph (or the remaining graph during decomposition),
        or an :class:`~repro.core.graph.EdgeIndex` of it: matchers on one
        target then share its node and edge masks.
    timeout_seconds:
        Wall-clock budget of one enumeration; ``None`` (the default) runs
        it to completion.
    plan:
        The pattern's :class:`PatternPlan`, when the caller keeps one;
        built here otherwise.

    Target nodes are bit positions in the target's node order, so every
    candidate set is one ``int``: the pattern node placed at a depth may go
    to the target nodes that host its degrees, minus the used ones, within
    the successor / predecessor masks of its already-mapped neighbours.  An
    explicit stack takes each set's lowest bit first, so mappings come out
    in lexicographic target order.
    """

    def __init__(
        self,
        pattern: DiGraph,
        target: DiGraph | EdgeIndex,
        timeout_seconds: float | None = None,
        plan: PatternPlan | None = None,
    ) -> None:
        index = target if isinstance(target, EdgeIndex) else EdgeIndex(target)
        self.pattern = pattern
        self.target = index.graph
        self.timeout_seconds = timeout_seconds
        plan = plan or PatternPlan(pattern)
        self._pattern_order = plan.order
        self._target_order = index.nodes
        # source position -> target position -> the edge's mask
        self._edge_masks = index.edge_masks
        # indexed by ``outgoing``: an image must be a predecessor (False) or
        # a successor (True) of the earlier depth's image
        tables = (index.predecessor_masks, index.successor_masks)
        # Per depth: the target nodes with the degrees to host the pattern
        # node (a monomorphism gives every pattern edge a distinct target
        # edge), then the (earlier depth, mask table) pairs its image must
        # lie in.
        self._hosts = [index.hosts(wanted) for wanted in plan.degrees]
        self._required = [
            [(earlier, tables[outgoing]) for earlier, outgoing in row] for row in plan.required
        ]
        self._pattern_edges = plan.edges
        self._assignment_order = plan.assignment_order
        self._deadline: float | None = None
        self._timed_out = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def find_one(self) -> IsomorphismMapping | None:
        """Return one matching or ``None`` (also ``None`` on timeout)."""
        for match in self.iter_matches(limit=1):
            return match
        return None

    def find_all(self, limit: int | None = None) -> list[IsomorphismMapping]:
        """Return all (de-duplicated) matchings, optionally capped at ``limit``."""
        return list(self.iter_matches(limit=limit))

    def exists(self) -> bool:
        """True when at least one subgraph isomorphism exists."""
        return self.find_one() is not None

    @property
    def timed_out(self) -> bool:
        """True when the last enumeration was cut short by the timeout."""
        return self._timed_out

    def iter_matches(self, limit: int | None = None) -> Iterator[IsomorphismMapping]:
        """Yield matchings lazily.

        Matchings whose covered target-edge set has already been produced are
        suppressed, because they would lead to identical branches in the
        decomposition tree.
        """
        if self.pattern.num_nodes == 0:
            return
        if self.pattern.num_nodes > self.target.num_nodes:
            return
        if self.pattern.num_edges > self.target.num_edges:
            return

        self._timed_out = False
        if self.timeout_seconds is not None:
            self._deadline = time.monotonic() + self.timeout_seconds
        else:
            self._deadline = None

        seen_edge_sets: set[int] = set()
        order = self._pattern_order
        targets = self._target_order
        edge_masks = self._edge_masks
        pattern_edges = self._pattern_edges
        assignment_order = self._assignment_order
        produced = 0
        try:
            for images in self._images():
                covered = 0
                for source, target_node in pattern_edges:
                    covered |= edge_masks[images[source]][images[target_node]]
                if covered in seen_edge_sets:
                    continue
                seen_edge_sets.add(covered)
                yield IsomorphismMapping(
                    tuple((order[k], targets[images[k]]) for k in assignment_order), covered
                )
                produced += 1
                if limit is not None and produced >= limit:
                    return
        except SearchTimeout:
            self._timed_out = True
            return

    # ------------------------------------------------------------------
    # VF2 search
    # ------------------------------------------------------------------
    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SearchTimeout()

    def _images(self) -> Iterator[list[int]]:
        """Complete mappings as the target position of each depth's node.

        The yielded list is the search's own stack: read it before the
        next step.  Depth-first with an explicit stack of candidate masks.
        """
        hosts = self._hosts
        required = self._required
        last = len(hosts) - 1
        images = [0] * len(hosts)
        candidates = [0] * len(hosts)
        candidates[0] = hosts[0]
        used = 0
        depth = 0
        self._check_deadline()
        while True:
            pool = candidates[depth]
            if not pool:
                if depth == 0:
                    return
                depth -= 1
                used ^= 1 << images[depth]
                continue
            low = pool & -pool
            candidates[depth] = pool ^ low
            images[depth] = low.bit_length() - 1
            if self._deadline is not None:
                self._check_deadline()
            if depth == last:
                yield images
                continue
            used |= low
            depth += 1
            pool = hosts[depth] & ~used
            for earlier, table in required[depth]:
                pool &= table[images[earlier]]
            candidates[depth] = pool

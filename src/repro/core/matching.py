"""Matchings: a library primitive instantiated on application-graph vertices.

Definition 4 of the paper calls a subgraph isomorphism from the input graph
to one of the library graphs a *matching* and assigns a cost to it.  A
matching binds the primitive's local vertex labels (1..n) to concrete cores
of the Application Characterization Graph, which immediately yields

* the set of ACG edges the matching *covers* (and that are subtracted from
  the graph before the decomposition recurses),
* the physical links of the primitive's implementation graph expressed in
  core identifiers (what the synthesized topology will contain), and
* the route every covered ACG edge takes over those links (what the cost
  model charges energy for, and what the routing table records).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.core.graph import DiGraph, Edge, Node
from repro.core.isomorphism import IsomorphismMapping
from repro.core.primitives import CommunicationPrimitive
from repro.exceptions import DecompositionError


@dataclass(frozen=True)
class Matching:
    """One instantiation of a library primitive inside an application graph."""

    primitive: CommunicationPrimitive
    assignment: tuple[tuple[Node, Node], ...]
    """Sorted ``(primitive_node, core)`` pairs."""

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(
        cls, primitive: CommunicationPrimitive, mapping: IsomorphismMapping
    ) -> "Matching":
        """Build a matching from a VF2 isomorphism mapping."""
        return cls.from_dict(primitive, mapping.as_dict())

    @classmethod
    def from_dict(
        cls, primitive: CommunicationPrimitive, mapping: Mapping[Node, Node]
    ) -> "Matching":
        """Build a matching from a primitive-node -> core dict (validated)."""
        expected = set(primitive.representation.nodes())
        provided = set(mapping)
        if expected != provided:
            raise DecompositionError(
                f"matching for {primitive.name!r} must bind exactly the primitive "
                f"nodes {sorted(expected)}, got {sorted(provided, key=repr)}"
            )
        cores = list(mapping.values())
        if len(set(cores)) != len(cores):
            raise DecompositionError(
                f"matching for {primitive.name!r} maps two primitive nodes to the same core"
            )
        ordered = tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0])))
        return cls(primitive=primitive, assignment=ordered)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[Node, Node]:
        """Plain-dict view of the primitive-node -> core binding."""
        return dict(self.assignment)

    @cached_property
    def _binding_table(self) -> dict[Node, Node]:
        # cached_property writes straight into the instance __dict__, which
        # sidesteps the frozen dataclass' __setattr__.
        return dict(self.assignment)

    def cores(self) -> list[Node]:
        """All cores used by this matching."""
        return [core for _, core in self.assignment]

    @cached_property
    def _covered_edges(self) -> frozenset[Edge]:
        binding = self._binding_table
        return frozenset(
            (binding[source], binding[target])
            for source, target in self.primitive.representation.edges()
        )

    def covered_edges(self) -> frozenset[Edge]:
        """ACG edges that are images of the primitive's requirement edges.

        The set is immutable, so it is computed once per matching and
        cached.
        """
        return self._covered_edges

    def implementation_links(self) -> list[Edge]:
        """Physical (directed) links of the implementation graph, in core IDs."""
        binding = self.as_dict()
        return [
            (binding[source], binding[target])
            for source, target in self.primitive.implementation.edges()
        ]

    def physical_links(self) -> set[frozenset[Node]]:
        """Undirected physical channels (two opposite edges share one link)."""
        return {frozenset(edge) for edge in self.implementation_links()}

    def routes_in_cores(self) -> dict[Edge, tuple[Node, ...]]:
        """All covered ACG edges with their routes expressed in core IDs."""
        binding = self.as_dict()
        routes: dict[Edge, tuple[Node, ...]] = {}
        for (source, target), route in self.primitive.internal_routes.items():
            key = (binding[source], binding[target])
            routes[key] = tuple(binding[node] for node in route)
        return routes

    # ------------------------------------------------------------------
    # graph operations
    # ------------------------------------------------------------------
    def verify_against(self, graph: DiGraph) -> None:
        """Raise if the matching's covered edges are not all present in ``graph``."""
        for source, target in self.covered_edges():
            if not graph.has_edge(source, target):
                raise DecompositionError(
                    f"matching {self.describe()} covers edge ({source!r} -> {target!r}) "
                    "which is not present in the graph"
                )

    def subtract_from(self, graph: DiGraph) -> DiGraph:
        """Definition 2: remove the covered edges, keep all vertices."""
        self.verify_against(graph)
        residual = graph.copy()
        for source, target in self.covered_edges():
            residual.remove_edge(source, target)
        return residual

    def sort_key(self) -> tuple:
        """Canonical ordering key used for symmetry breaking in the search.

        Two matchings commute inside a decomposition (subtracting A then B
        leaves the same residual graph as B then A), so the branch-and-bound
        only explores matchings in non-decreasing canonical order along a
        branch; this removes the factorial blow-up of permuted but otherwise
        identical decompositions.
        """
        return self._sort_key

    @cached_property
    def _sort_key(self) -> tuple:
        return (
            self.primitive.primitive_id or 0,
            self.primitive.name,
            tuple(sorted(repr(core) for _, core in self.assignment)),
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line description in the paper's output format.

        The listings in Section 5 look like
        ``1: MGG4,  Mapping: (1 1), (2 5), (3 9), (4 13)``.
        """
        mapping_text = ", ".join(f"({node} {core})" for node, core in self.assignment)
        identifier = self.primitive.primitive_id
        prefix = f"{identifier}: " if identifier is not None else ""
        return f"{prefix}{self.primitive.name},  Mapping: {mapping_text}"

    def __repr__(self) -> str:
        return f"<Matching {self.describe()}>"


"""Cost assignment for matchings, remainders and whole decompositions.

Section 4.3 of the paper assigns to every matching ``M`` the energy it
implies (Equation 5):

    C(M) = sum over implementation edges e_ij of  E_bit(l_ij) * v(e_ij)

i.e. every covered application edge is routed over the primitive's
implementation graph, and the bits it carries are charged the Equation-1 bit
energy of that route, with the link lengths ``l_ij`` taken from the initial
floorplan.  The remainder graph (unmatched edges) is charged the cost of the
dedicated point-to-point links that implement it.  The decomposition cost is
the sum of the matching costs plus the remainder cost (Equation 3).

Two interchangeable cost models are provided:

:class:`UnitCostModel`
    Abstract volume-times-hops cost used when no floorplan or technology data
    is available (and in the small illustrative examples such as Figure 2,
    where costs are small integers).

:class:`EnergyCostModel`
    The full Equation-5 cost: per-bit switch and link energies from a
    :class:`~repro.energy.technology.Technology`, link lengths from the
    floorplan positions attached to the ACG.

Each also prices a single edge (``edge_cover_cost`` /
``edge_remainder_cost``); :mod:`repro.core.bounds` sums those charges into
the admissible lower bound the branch-and-bound prunes with ("current cost
+ minimum remaining cost >= best cost so far" in Figure 3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.graph import ApplicationGraph, DiGraph, Edge, Node
from repro.core.matching import Matching
from repro.energy.bit_energy import BitEnergyModel
from repro.energy.technology import DEFAULT_TECHNOLOGY, Technology
from repro.exceptions import DecompositionError


class CostModel(ABC):
    """Interface shared by all decomposition cost models."""

    #: multiplier applied to remainder (point-to-point) edges; values above 1
    #: model the extra dedicated wiring such ad-hoc links require and steer
    #: the search towards covering traffic with library primitives.
    remainder_penalty: float = 1.0

    # ------------------------------------------------------------------
    # per-piece costs
    # ------------------------------------------------------------------
    @abstractmethod
    def route_cost(self, acg: ApplicationGraph, edge: Edge, route: tuple[Node, ...]) -> float:
        """Cost of carrying the volume of ``edge`` over ``route`` (core IDs)."""

    def matching_cost(self, matching: Matching, acg: ApplicationGraph) -> float:
        """Equation 5: total cost of one matching."""
        total = 0.0
        for edge, route in matching.routes_in_cores().items():
            if not acg.has_edge(*edge):
                raise DecompositionError(
                    f"matching {matching.describe()} refers to missing ACG edge {edge}"
                )
            total += self.route_cost(acg, edge, route)
        return total

    def remainder_cost(self, remainder: DiGraph, acg: ApplicationGraph) -> float:
        """Cost of implementing the unmatched edges as direct links."""
        total = 0.0
        for source, target in remainder.edges():
            total += self.remainder_penalty * self.route_cost(
                acg, (source, target), (source, target)
            )
        return total

    def decomposition_cost(
        self,
        matchings: list[Matching],
        remainder: DiGraph,
        acg: ApplicationGraph,
    ) -> float:
        """Equation 3: sum of matching costs plus the remainder cost."""
        return sum(self.matching_cost(m, acg) for m in matchings) + self.remainder_cost(
            remainder, acg
        )

    # ------------------------------------------------------------------
    # bounding (per-edge charges summed by repro.core.bounds)
    # ------------------------------------------------------------------
    def edge_cover_cost(self, acg: ApplicationGraph, edge: Edge, hops: int) -> float:
        """Admissible charge for covering ``edge`` at a position with ``hops``
        internal hops.

        The default ignores ``hops`` and charges the direct single-hop route
        — never more than any realizable implementation of the edge (for the
        energy model because the direct Manhattan wire is the shortest
        possible, for hop-count models because every route has at least one
        hop).  Models whose route cost is exactly linear in the hop count
        override this to exploit ``hops``.
        """
        del hops
        return self.route_cost(acg, edge, edge)

    def edge_remainder_cost(self, acg: ApplicationGraph, edge: Edge) -> float:
        """Exact cost contribution of leaving ``edge`` in the remainder."""
        return self.remainder_penalty * self.route_cost(acg, edge, edge)

    def flat_matching_cost(self, primitive) -> float | None:
        """Binding-independent total matching cost, or ``None``.

        Flat models (e.g. link count) charge a matching the same amount
        wherever it lands, which lets the bound subsystem precompute exact
        per-edge shares once per (library, cost-model) pair.  Additive
        models return ``None``.
        """
        del primitive
        return None


@dataclass
class UnitCostModel(CostModel):
    """Volume-weighted hop-count cost.

    ``cost(edge over route) = volume(edge) * hops(route)`` with a configurable
    penalty for remainder edges.  With unit volumes this reduces to counting
    edges, which reproduces the small integer costs of the paper's Figure 2
    walk-through.
    """

    remainder_penalty: float = 1.0

    def route_cost(self, acg: ApplicationGraph, edge: Edge, route: tuple[Node, ...]) -> float:
        """Volume-weighted hop count of one routed ACG edge."""
        return self.edge_cover_cost(acg, edge, len(route) - 1)

    def edge_cover_cost(self, acg: ApplicationGraph, edge: Edge, hops: int) -> float:
        """Exact ``volume * hops`` charge of covering ``edge`` at a position."""
        volume = acg.volume(*edge) if acg.has_edge(*edge) else 1.0
        return volume * max(hops, 1)


@dataclass
class LinkCountCostModel(CostModel):
    """Wiring-resource cost: physical links instantiated by the decomposition.

    Each matching is charged the number of *physical* links of its
    implementation graph (a full-duplex channel pair counts once) and every
    remainder edge is charged one dedicated link.  This accounting reproduces
    the integer costs printed in the paper's decomposition listings — e.g.
    the AES decomposition of Section 5.2 (four MGG-4 columns at 4 links each,
    two L4 rows at 4 links each, and a 4-edge remainder) totals
    ``4*4 + 2*4 + 4 = 28``, the paper's ``COST: 28``.

    Because an MGG-4 covers 12 requirement edges with only 4 links, the model
    strongly rewards recognising gossip patterns instead of covering them
    with loops/paths, which is exactly the behaviour the paper reports.
    """

    remainder_penalty: float = 1.0

    def route_cost(self, acg: ApplicationGraph, edge: Edge, route: tuple[Node, ...]) -> float:
        # Per-edge route cost is unused by this model; see matching_cost.
        """Constant 1.0: this model charges links, not routes."""
        del acg, edge, route
        return 1.0

    def matching_cost(self, matching: Matching, acg: ApplicationGraph) -> float:
        """Physical links instantiated by the matching's implementation graph."""
        del acg
        return float(matching.primitive.num_physical_links)

    def remainder_cost(self, remainder: DiGraph, acg: ApplicationGraph) -> float:
        """One dedicated link per remainder edge (times the penalty)."""
        del acg
        return self.remainder_penalty * remainder.num_edges

    def flat_matching_cost(self, primitive) -> float:
        """Physical link count: the same wherever the matching lands."""
        return float(primitive.num_physical_links)


@dataclass
class EnergyCostModel(CostModel):
    """Equation-5 energy cost with floorplan-derived link lengths.

    ``fallback_link_length_mm`` is used for core pairs that have no floorplan
    position (e.g. before placement); set it to the average tile pitch of the
    design for sensible estimates.
    """

    technology: Technology = DEFAULT_TECHNOLOGY
    remainder_penalty: float = 1.0
    fallback_link_length_mm: float = 2.0

    def __post_init__(self) -> None:
        self._bit_energy = BitEnergyModel(self.technology)

    def _segment_length(self, acg: ApplicationGraph, source: Node, target: Node) -> float:
        if acg.has_position(source) and acg.has_position(target):
            return acg.link_length(source, target)
        return self.fallback_link_length_mm

    def route_cost(self, acg: ApplicationGraph, edge: Edge, route: tuple[Node, ...]) -> float:
        """Volume x wire-length of one routed ACG edge (energy-proportional)."""
        if len(route) < 2:
            route = edge
        lengths = [
            self._segment_length(acg, hop_source, hop_target)
            for hop_source, hop_target in zip(route, route[1:])
        ]
        volume = acg.volume(*edge) if acg.has_edge(*edge) else 1.0
        return self._bit_energy.transfer_energy_pj(volume, lengths)


def default_cost_model(acg: ApplicationGraph, technology: Technology | None = None) -> CostModel:
    """Pick a cost model automatically.

    If the ACG carries floorplan positions for every core, the full energy
    model is used; otherwise the abstract unit-cost model is returned.
    """
    if acg.num_nodes and all(acg.has_position(node) for node in acg.nodes()):
        return EnergyCostModel(technology=technology or DEFAULT_TECHNOLOGY)
    return UnitCostModel()

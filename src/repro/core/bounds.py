"""Admissible lower bounds on the cost of decomposing a residual graph.

The branch-and-bound of Figure 3 prunes a branch as soon as its accumulated
cost plus a lower bound on the residual's coverage cost reaches the best
complete decomposition found so far.  Pruning is *exact* — the incumbent
trajectory (final cost and final cover) is bit-identical under any admissible
bound — so every bit of extra tightness here converts directly into fewer
nodes expanded without changing the answer.

This module provides the admissible residual bounds selected via
``DecompositionConfig.lower_bound``:

``"cost_model"``
    The legacy coarse bound: delegate to :meth:`CostModel.lower_bound`
    (one direct-link charge per residual edge; 1/3 link for bidirectional
    traffic under the link-count model).

``"cheapest_edge"`` (the default)
    Per-edge cheapest-cover bound.  For every residual edge, the minimum
    cost contribution over the remainder charge and all library *cover
    offers* — positions of primitive representation edges — whose pairing
    and endpoint-degree requirements the edge can still satisfy.  Offers
    are precomputed once per (library, cost-model) pair; degree
    requirements are monotone under edge removal, so an offer infeasible
    now stays infeasible in every sub-residual and the bound is admissible
    for the whole subtree.

All bounds memoize their values in a per-search bound cache keyed by the
residual's exact edge set (``structural_fingerprint``), alongside the
transposition table: sibling branches and transposed interleavings hit the
same residuals over and over.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.graph import ApplicationGraph, DiGraph, Edge, Node
from repro.exceptions import DecompositionError

#: valid values for ``DecompositionConfig.lower_bound``
BOUND_NAMES = ("cost_model", "cheapest_edge")


def check_bound_name(name: str) -> None:
    """Raise :class:`DecompositionError` unless ``name`` is in ``BOUND_NAMES``."""
    if name not in BOUND_NAMES:
        raise DecompositionError(
            f"unknown lower bound {name!r}; expected one of {', '.join(BOUND_NAMES)}"
        )


# ----------------------------------------------------------------------
# cover offers: how library primitives can absorb residual edges
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoverOffer:
    """One way a library primitive can absorb a single residual edge.

    An offer is a position ``(u, v)`` of a primitive's representation edge
    set, abstracted to what it requires of a residual edge ``(a, b)`` it
    could cover: whether the reverse edge must also be present (``paired``
    positions cover both directions of a full-duplex exchange at once) and
    the minimum out/in/bidirectional degrees of the two endpoints (a
    monomorphism maps rep degrees into residual degrees).  Degrees only
    shrink as the search subtracts matchings, so infeasibility is permanent
    down the subtree — the property that makes offer-gated bounds
    admissible.
    """

    primitive_name: str
    paired: bool
    source_out: int
    source_in: int
    source_bi: int
    target_out: int
    target_in: int
    target_bi: int
    hops: int
    """Internal route length of this position (for additive cost models)."""
    flat_share: float | None
    """Per-edge share of a binding-independent matching cost (flat cost
    models); ``None`` when the model prices edges individually."""

    def feasible(
        self,
        is_bidirectional: bool,
        source_degrees: tuple[int, int, int],
        target_degrees: tuple[int, int, int],
    ) -> bool:
        """Can this offer still cover an edge with these endpoint degrees?"""
        if self.paired and not is_bidirectional:
            return False
        out_degree, in_degree, bi_degree = source_degrees
        if out_degree < self.source_out or in_degree < self.source_in:
            return False
        if bi_degree < self.source_bi:
            return False
        out_degree, in_degree, bi_degree = target_degrees
        if out_degree < self.target_out or in_degree < self.target_in:
            return False
        return bi_degree >= self.target_bi


@dataclass(frozen=True)
class BoundTables:
    """Per-(library, cost-model) cover offers of the ``cheapest_edge`` bound."""

    offers: tuple[CoverOffer, ...]


def _paired_degree(graph: DiGraph, node: Node) -> int:
    """Number of full-duplex partners of ``node`` (mutual edge pairs)."""
    return sum(1 for other in graph.successors(node) if graph.has_edge(other, node))


def _build_tables(library, cost_model) -> BoundTables:
    """Compute the cover offers for one pairing."""
    offers: set[CoverOffer] = set()
    flat_matching_cost = getattr(cost_model, "flat_matching_cost", lambda primitive: None)
    for entry in library.entries():
        primitive = entry.primitive
        representation = primitive.representation
        flat_cost = flat_matching_cost(primitive)
        num_edges = primitive.num_requirement_edges
        paired_by_node = {
            node: _paired_degree(representation, node) for node in representation.nodes()
        }
        for source, target in representation.edges():
            route = primitive.route_for(source, target)
            offers.add(
                CoverOffer(
                    primitive_name=primitive.name,
                    paired=representation.has_edge(target, source),
                    source_out=representation.out_degree(source),
                    source_in=representation.in_degree(source),
                    source_bi=paired_by_node[source],
                    target_out=representation.out_degree(target),
                    target_in=representation.in_degree(target),
                    target_bi=paired_by_node[target],
                    hops=max(len(route) - 1, 1),
                    flat_share=None if flat_cost is None else flat_cost / num_edges,
                )
            )
    ordered = sorted(
        offers,
        key=lambda offer: (
            offer.flat_share if offer.flat_share is not None else offer.hops,
            offer.primitive_name,
        ),
    )
    return BoundTables(offers=tuple(ordered))


#: library -> {cost-model identity -> BoundTables}; the offers depend only
#: on the (library, cost-model) pair, so they are computed once and shared
#: by every decomposition over that pair
_TABLES_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def bound_tables(library, cost_model) -> BoundTables:
    """The (memoized) offer table for one (library, cost-model) pair."""
    per_library = _TABLES_CACHE.setdefault(library, {})
    key = (type(cost_model).__module__, type(cost_model).__qualname__, repr(cost_model))
    tables = per_library.get(key)
    if tables is None:
        tables = _build_tables(library, cost_model)
        per_library[key] = tables
    return tables


# ----------------------------------------------------------------------
# the bound family
# ----------------------------------------------------------------------
class ResidualBound:
    """Interface shared by all residual lower bounds.

    ``value`` is memoized per residual edge set in a per-search bound
    cache; ``prune_reason`` is the branch-and-bound entry point: it returns
    the name of the bound that proves ``cost(residual) >= target`` (so the
    branch cannot beat the incumbent), or ``None`` when no prune is proven.
    """

    name: str = "bound"

    def __init__(self, statistics=None) -> None:
        self._cache: dict[frozenset[Edge], float] = {}
        self._statistics = statistics

    def value(self, residual: DiGraph) -> float:
        """Memoized admissible lower bound on the residual's coverage cost."""
        key = residual.structural_fingerprint()
        cached = self._cache.get(key)
        if cached is not None:
            if self._statistics is not None:
                self._statistics.bound_cache_hits += 1
            return cached
        if self._statistics is not None:
            self._statistics.bound_cache_misses += 1
        computed = self._compute(residual)
        self._cache[key] = computed
        return computed

    def prune_reason(self, residual: DiGraph, target: float) -> str | None:
        """Name of the bound proving ``cost >= target``, or ``None``."""
        if target == float("inf"):
            return None
        if self.value(residual) >= target:
            return self.name
        return None

    def _compute(self, residual: DiGraph) -> float:
        raise NotImplementedError


class CostModelBound(ResidualBound):
    """The legacy coarse bound: delegate to :meth:`CostModel.lower_bound`."""

    name = "cost_model"

    def __init__(self, cost_model, acg: ApplicationGraph, statistics=None) -> None:
        super().__init__(statistics)
        self._cost_model = cost_model
        self._acg = acg

    def _compute(self, residual: DiGraph) -> float:
        return self._cost_model.lower_bound(residual, self._acg)


class CheapestEdgeBound(ResidualBound):
    """Per-edge cheapest-cover bound over the library's offer table.

    Every residual edge is charged the minimum over (a) its remainder
    charge and (b) the charge of every cover offer that is still feasible
    for it (pairing + endpoint degrees).  Distinct edges are covered by
    distinct positions, flat matching costs distribute exactly over their
    requirement edges, and additive models charge each covered edge its own
    route — so the per-edge minima sum to an admissible bound.
    """

    name = "cheapest_edge"

    def __init__(self, tables: BoundTables, cost_model, acg, statistics=None) -> None:
        super().__init__(statistics)
        self._tables = tables
        self._cost_model = cost_model
        self._acg = acg
        # (paired, source degrees, target degrees) -> the offers feasible for
        # an edge with that signature, in table order; residuals share few
        # signatures, so each offer scan runs once per search
        self._feasible_offers: dict[
            tuple[bool, tuple[int, int, int], tuple[int, int, int]], tuple[CoverOffer, ...]
        ] = {}

    def _compute(self, residual: DiGraph) -> float:
        cost_model = self._cost_model
        acg = self._acg
        offers = self._tables.offers
        feasible_offers = self._feasible_offers
        degrees: dict[Node, tuple[int, int, int]] = {}

        def degrees_of(node: Node) -> tuple[int, int, int]:
            cached = degrees.get(node)
            if cached is None:
                cached = (
                    residual.out_degree(node),
                    residual.in_degree(node),
                    _paired_degree(residual, node),
                )
                degrees[node] = cached
            return cached

        total = 0.0
        for source, target in residual.edges():
            edge = (source, target)
            is_bidirectional = residual.has_edge(target, source)
            source_degrees = degrees_of(source)
            target_degrees = degrees_of(target)
            signature = (is_bidirectional, source_degrees, target_degrees)
            feasible = feasible_offers.get(signature)
            if feasible is None:
                feasible = tuple(
                    offer
                    for offer in offers
                    if offer.feasible(is_bidirectional, source_degrees, target_degrees)
                )
                feasible_offers[signature] = feasible
            cheapest = cost_model.edge_remainder_cost(acg, edge)
            for offer in feasible:
                if offer.flat_share is not None:
                    charge = offer.flat_share
                else:
                    charge = cost_model.edge_cover_cost(acg, edge, offer.hops)
                if charge < cheapest:
                    cheapest = charge
            total += cheapest
        return total


class StackedBound(ResidualBound):
    """Pointwise maximum of several bounds, evaluated lazily cheap-first.

    Not selectable by a ``lower_bound`` name: callers compose the parts
    explicitly, and ``prune_reason`` reports which part fired.
    """

    name = "stacked"

    def __init__(self, parts: list[ResidualBound]) -> None:
        super().__init__(statistics=None)
        self.parts = parts

    def value(self, residual: DiGraph) -> float:
        """Maximum of the part bounds (each part memoizes its own values)."""
        return max(part.value(residual) for part in self.parts)

    def prune_reason(self, residual: DiGraph, target: float) -> str | None:
        """First part (cheapest first) whose bound reaches ``target``."""
        if target == float("inf"):
            return None
        for part in self.parts:
            if part.value(residual) >= target:
                return part.name
        return None


def build_lower_bound(
    name: str,
    library,
    cost_model,
    acg: ApplicationGraph,
    statistics=None,
) -> ResidualBound:
    """Construct the residual bound selected by ``name``.

    ``statistics`` (a :class:`SearchStatistics`) receives the bound-cache
    hit/miss counters.  Raises :class:`DecompositionError` for unknown names.
    """
    check_bound_name(name)
    if name == "cost_model":
        return CostModelBound(cost_model, acg, statistics)
    return CheapestEdgeBound(bound_tables(library, cost_model), cost_model, acg, statistics)

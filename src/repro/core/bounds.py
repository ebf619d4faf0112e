"""The admissible lower bound on the cost of decomposing a residual graph.

The branch-and-bound of Figure 3 prunes a branch as soon as its accumulated
cost plus a lower bound on the residual's coverage cost reaches the best
complete decomposition found so far.  Pruning is *exact* — the incumbent
trajectory (final cost and final cover) is bit-identical under any admissible
bound — so every bit of extra tightness here converts directly into fewer
nodes expanded without changing the answer.

The search prunes with one bound, ``cheapest_edge``: for every residual
edge, the minimum cost contribution over the remainder charge and all
library *cover offers* — positions of primitive representation edges —
whose pairing and endpoint-degree requirements the edge can still satisfy.
Offers are precomputed once per (library, cost-model) pair; degree
requirements are monotone under edge removal, so an offer infeasible now
stays infeasible in every sub-residual and the bound is admissible for the
whole subtree.

A residual is an edge mask over the ACG's :class:`~repro.core.graph.EdgeIndex`
(bit ``i`` is edge ``i`` of ``acg.edges()``).  Bounds memoize their values
in a per-search bound cache keyed by that mask, alongside the
transposition table: sibling branches and transposed interleavings hit the
same residuals over and over.  Every value is a sequential sum of per-edge
charges in edge order, the float a loop over the residual graph's
``edges()`` gives.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.graph import DiGraph, EdgeIndex, Node


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

    ``value`` is memoized per residual edge mask in a per-search bound
    cache; ``prune_reason`` is the branch-and-bound entry point: it returns
    the name of the bound that proves ``cost(residual) >= target`` (so the
    branch cannot beat the incumbent), or ``None`` when no prune is proven.
    A miss sums the bound's ``charges``, which are a pure function of the
    residual: every search of one ACG may share them, while the bound cache
    and its counters stay with the search.
    """

    name: str = "bound"

    def __init__(self, statistics=None, charges=None) -> None:
        self._cache: dict[int, float] = {}
        self._statistics = statistics
        self.charges = charges

    def value(self, residual: int) -> float:
        """Memoized admissible lower bound on the residual's coverage cost."""
        cached = self._cache.get(residual)
        if cached is not None:
            if self._statistics is not None:
                self._statistics.bound_cache_hits += 1
            return cached
        if self._statistics is not None:
            self._statistics.bound_cache_misses += 1
        computed = self.charges.total(residual)
        self._cache[residual] = computed
        return computed

    def prune_reason(self, residual: int, target: float) -> str | None:
        """Name of the bound proving ``cost >= target``, or ``None``."""
        if target == float("inf"):
            return None
        if self.value(residual) >= target:
            return self.name
        return None


class EdgeCharges:
    """The ``cheapest_edge`` bound's per-edge charges over one :class:`EdgeIndex`.

    An edge's charge depends only on the residual's edges at its two
    endpoints, so it is memoized per (edge, residual restricted to those
    edges); a miss reads the endpoint degree triples off popcounts of the
    nodes' out / in masks and their full-duplex pair masks, and the charge
    is memoized per (edge, signature) as well.
    """

    def __init__(self, tables: BoundTables, cost_model, index: EdgeIndex) -> None:
        self.tables = tables
        self._cost_model = cost_model
        self._acg = index.graph
        self.index = index
        incident = self._incident = [
            out | into for out, into in zip(index.out_masks, index.in_masks)
        ]
        # per edge: every edge at either endpoint (its charge's whole input)
        self._local = [
            incident[source] | incident[target]
            for source, target in zip(index.sources, index.targets)
        ]
        self._charge_by_local: list[dict[int, float]] = [{} for _ in index.edges]
        # per node: its residual edges -> its degree triple
        self._degrees_by_local: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in index.nodes
        ]
        self._charge_by_signature: dict[tuple[int, tuple], float] = {}
        # (paired, source degrees, target degrees) -> the offers feasible for
        # an edge with that signature, in table order; residuals share few
        # signatures, so each offer scan runs once per ACG
        self._feasible_offers: dict[
            tuple[bool, tuple[int, int, int], tuple[int, int, int]], tuple[CoverOffer, ...]
        ] = {}

    def total(self, residual: int) -> float:
        """The bound's value on the residual edge mask ``residual``."""
        local = self._local
        charge_by_local = self._charge_by_local
        total = 0.0
        mask = residual
        while mask:
            low = mask & -mask
            edge = low.bit_length() - 1
            mask ^= low
            charge = charge_by_local[edge].get(residual & local[edge])
            if charge is None:
                charge = self._charge(edge, residual)
            total += charge
        return total

    def _degrees(self, node: int, residual: int) -> tuple[int, int, int]:
        """(out, in, full-duplex partner) degrees of a node in ``residual``
        (memoized per node and its residual edges)."""
        local = residual & self._incident[node]
        degrees = self._degrees_by_local[node].get(local)
        if degrees is None:
            index = self.index
            degrees = self._degrees_by_local[node][local] = (
                (local & index.out_masks[node]).bit_count(),
                (local & index.in_masks[node]).bit_count(),
                sum(1 for pair in index.pair_masks[node] if local & pair == pair),
            )
        return degrees

    def _charge(self, edge: int, residual: int) -> float:
        """The cheapest feasible charge of one residual edge (memoized)."""
        index = self.index
        is_bidirectional = residual & index.reverse[edge] != 0
        source_degrees = self._degrees(index.sources[edge], residual)
        target_degrees = self._degrees(index.targets[edge], residual)
        signature = (is_bidirectional, source_degrees, target_degrees)
        cheapest = self._charge_by_signature.get((edge, signature))
        if cheapest is None:
            feasible = self._feasible_offers.get(signature)
            if feasible is None:
                feasible = tuple(
                    offer
                    for offer in self.tables.offers
                    if offer.feasible(is_bidirectional, source_degrees, target_degrees)
                )
                self._feasible_offers[signature] = feasible
            cost_model = self._cost_model
            acg = self._acg
            endpoints = index.edges[edge]
            cheapest = cost_model.edge_remainder_cost(acg, endpoints)
            for offer in feasible:
                if offer.flat_share is not None:
                    charge = offer.flat_share
                else:
                    charge = cost_model.edge_cover_cost(acg, endpoints, offer.hops)
                if charge < cheapest:
                    cheapest = charge
            self._charge_by_signature[edge, signature] = cheapest
        self._charge_by_local[edge][residual & self._local[edge]] = cheapest
        return cheapest


class CheapestEdgeBound(ResidualBound):
    """Per-edge cheapest-cover bound over the library's offer table.

    Every residual edge is charged the minimum over (a) its remainder
    charge and (b) the charge of every cover offer that is still feasible
    for it (pairing + endpoint degrees).  Distinct edges are covered by
    distinct positions, flat matching costs distribute exactly over their
    requirement edges, and additive models charge each covered edge its own
    route — so the per-edge minima sum to an admissible bound.  The
    charges are memoized in ``charges``, an :class:`EdgeCharges` that every
    search over one ACG may share.
    """

    name = "cheapest_edge"

    def __init__(self, charges: EdgeCharges, statistics=None) -> None:
        super().__init__(statistics, charges)


class StackedBound(ResidualBound):
    """Pointwise maximum of several bounds, evaluated lazily cheap-first.

    The search never builds one: callers compose the parts explicitly, and
    ``prune_reason`` reports which part fired.
    """

    name = "stacked"

    def __init__(self, parts: list[ResidualBound]) -> None:
        super().__init__(statistics=None)
        self.parts = parts

    def value(self, residual: int) -> float:
        """Maximum of the part bounds (each part memoizes its own values)."""
        return max(part.value(residual) for part in self.parts)

    def prune_reason(self, residual: int, target: float) -> str | None:
        """First part (cheapest first) whose bound reaches ``target``."""
        if target == float("inf"):
            return None
        for part in self.parts:
            if part.value(residual) >= target:
                return part.name
        return None

"""Admissible lower bounds on the cost of decomposing a residual graph.

The branch-and-bound of Figure 3 prunes a branch as soon as its accumulated
cost plus a lower bound on the residual's coverage cost reaches the best
complete decomposition found so far.  Pruning is *exact* — the incumbent
trajectory (final cost and final cover) is bit-identical under any admissible
bound — so every bit of extra tightness here converts directly into fewer
nodes expanded without changing the answer.

This module provides a family of composable, provably-admissible residual
bounds, selected via ``DecompositionConfig.lower_bound``:

``"cost_model"``
    The legacy coarse bound: delegate to :meth:`CostModel.lower_bound`
    (one direct-link charge per residual edge; 1/3 link for bidirectional
    traffic under the link-count model).

``"cheapest_edge"``
    Per-edge cheapest-cover bound.  For every residual edge, the minimum
    cost contribution over the remainder charge and all library *cover
    offers* — positions of primitive representation edges — whose pairing
    and endpoint-degree requirements the edge can still satisfy.  Offers
    are precomputed once per (library, cost-model) pair; degree
    requirements are monotone under edge removal, so an offer infeasible
    now stays infeasible in every sub-residual and the bound is admissible
    for the whole subtree.

``"packing"``
    Degree/capability packing bound (flat cost models only, e.g. link
    count).  A node whose in- or out-degree exceeds what any single
    primitive provides forces a minimum primitive count.  Formally: per
    node-side, each primitive instance (and each remainder link) offers a
    limited number of paired-only and flexible edge slots at its full
    cost; dual prices per edge class feasible against every offer give,
    by LP weak duality, ``n_bi * y_bi + n_uni * y_uni`` as a lower bound
    on the total completion cost.  The price candidates (vertices of the
    dual polytope) are precomputed once per (library, cost-model) pair.

``"exact_small"``
    Solves residuals at or below ``exact_small_max_edges`` edges outright
    with a memoized mini branch-and-bound over *all* matchings (no
    enumeration clipping, no timeout) and returns the true optimum — the
    tightest admissible bound possible.  Solutions are memoized by the
    residual's :meth:`DiGraph.structural_fingerprint` and shared across
    the whole search (and across sub-solves).  Above the threshold it
    abstains (returns 0), so it is meant to be stacked.

``"stacked"`` (the default)
    The pointwise maximum of the three bounds above.  ``prune_reason``
    evaluates the parts lazily, cheapest first, and reports *which* part
    fired so :class:`SearchStatistics.branches_pruned_by` can attribute
    every prune.

All bounds memoize their values in a per-search bound cache keyed by the
residual's exact edge set (``structural_fingerprint``), alongside the
transposition table: sibling branches and transposed interleavings hit the
same residuals over and over.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.graph import ApplicationGraph, DiGraph, Edge, Node
from repro.core.isomorphism import MatcherOptions, VF2Matcher
from repro.core.matching import Matching
from repro.exceptions import DecompositionError

#: valid values for ``DecompositionConfig.lower_bound``
BOUND_NAMES = ("cost_model", "cheapest_edge", "packing", "exact_small", "stacked")

#: the parts the ``"stacked"`` bound combines, in lazy evaluation order
#: (cheapest to compute first; ``exact_small`` only when the others missed)
STACKED_PARTS = ("cheapest_edge", "packing", "exact_small")

_EPSILON = 1e-9


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
class _SlotOffer:
    """Edge-slot supply of one primitive rep node side (packing bound).

    A single instance placed so that rep node ``u`` lands on residual node
    ``v`` supplies at most ``bi_slots`` paired-only and ``flex_slots``
    unrestricted edge slots on one side of ``v``, at full cost ``cost``.
    """

    bi_slots: int
    flex_slots: int
    cost: float


@dataclass(frozen=True)
class BoundTables:
    """Per-(library, cost-model) precomputation shared by all bound kinds."""

    offers: tuple[CoverOffer, ...]
    out_prices: tuple[tuple[float, float], ...]
    """Candidate ``(y_bi, y_uni)`` dual price pairs for out-sides."""
    in_prices: tuple[tuple[float, float], ...]
    """Candidate ``(y_bi, y_uni)`` dual price pairs for in-sides."""
    flat: bool
    """True when every primitive has a binding-independent matching cost
    (and the remainder a flat per-edge cost) — the packing prerequisite."""


def _paired_degree(graph: DiGraph, node: Node) -> int:
    """Number of full-duplex partners of ``node`` (mutual edge pairs)."""
    return sum(1 for other in graph.successors(node) if graph.has_edge(other, node))


def _dual_price_candidates(
    slot_offers: list[_SlotOffer],
) -> tuple[tuple[float, float], ...]:
    """Vertices of the dual price polytope for one node side.

    Feasibility for prices ``(y_bi, y_uni) >= 0``: every offer ``(b, f, c)``
    must satisfy ``b*y_bi + f*max(y_bi, y_uni) <= c`` — an instance collects
    at most ``b`` paired-class plus ``f`` any-class edge prices at one node
    side, and its collection must not exceed its cost (weak duality).  The
    maximum of a linear objective over this region is attained at one of:

    * ``(R, R)`` with ``R = min c/(b+f)`` — the best uniform price;
    * ``(0, U)`` with ``U = min c/f over f > 0`` — pricing only
      unidirectional edges;
    * intersections of two offer constraints in the ``y_uni >= y_bi``
      regime, validated against every offer.
    """
    offers = [offer for offer in slot_offers if offer.bi_slots + offer.flex_slots > 0]
    if not offers:
        return ()

    def feasible(y_bi: float, y_uni: float) -> bool:
        if y_bi < -_EPSILON or y_uni < -_EPSILON:
            return False
        top = max(y_bi, y_uni)
        return all(
            offer.bi_slots * y_bi + offer.flex_slots * top <= offer.cost + _EPSILON
            for offer in offers
        )

    candidates: list[tuple[float, float]] = []
    uniform = min(offer.cost / (offer.bi_slots + offer.flex_slots) for offer in offers)
    if feasible(uniform, uniform):
        candidates.append((uniform, uniform))
    flex_only = [offer for offer in offers if offer.flex_slots > 0]
    if flex_only:
        uni_price = min(offer.cost / offer.flex_slots for offer in flex_only)
        if feasible(0.0, uni_price):
            candidates.append((0.0, uni_price))
    # pairwise constraint intersections in the y_uni >= y_bi regime
    for i, first in enumerate(offers):
        for second in offers[i + 1 :]:
            determinant = (
                first.bi_slots * second.flex_slots - second.bi_slots * first.flex_slots
            )
            if abs(determinant) < _EPSILON:
                continue
            y_bi = (first.cost * second.flex_slots - second.cost * first.flex_slots) / determinant
            y_uni = (first.bi_slots * second.cost - second.bi_slots * first.cost) / determinant
            if y_uni >= y_bi - _EPSILON and feasible(y_bi, y_uni):
                candidates.append((max(y_bi, 0.0), max(y_uni, 0.0)))
    # deduplicate (the same vertex often arises from several pairs)
    unique = {(round(y_bi, 12), round(y_uni, 12)) for y_bi, y_uni in candidates}
    return tuple(sorted(unique))


def _flat_matching_cost(cost_model, primitive) -> float | None:
    """Binding-independent total matching cost, when the model has one."""
    flat = getattr(cost_model, "flat_matching_cost", None)
    if flat is None:
        return None
    return flat(primitive)


def _build_tables(library, cost_model) -> BoundTables:
    """Compute the cover offers and packing prices for one pairing."""
    offers: set[CoverOffer] = set()
    out_slots: list[_SlotOffer] = []
    in_slots: list[_SlotOffer] = []
    flat = True
    flat_remainder = getattr(cost_model, "flat_remainder_edge_cost", lambda: None)()
    if flat_remainder is None:
        flat = False
    for entry in library.entries():
        primitive = entry.primitive
        representation = primitive.representation
        flat_cost = _flat_matching_cost(cost_model, primitive)
        if flat_cost is None:
            flat = False
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
        if flat_cost is not None:
            for node in representation.nodes():
                paired = paired_by_node[node]
                out_degree = representation.out_degree(node)
                in_degree = representation.in_degree(node)
                if out_degree:
                    out_slots.append(_SlotOffer(paired, out_degree - paired, flat_cost))
                if in_degree:
                    in_slots.append(_SlotOffer(paired, in_degree - paired, flat_cost))
    if flat:
        remainder_slot = _SlotOffer(0, 1, flat_remainder)
        out_slots.append(remainder_slot)
        in_slots.append(remainder_slot)
        out_prices = _dual_price_candidates(out_slots)
        in_prices = _dual_price_candidates(in_slots)
    else:
        out_prices = ()
        in_prices = ()
    ordered = sorted(
        offers,
        key=lambda offer: (
            offer.flat_share if offer.flat_share is not None else offer.hops,
            offer.primitive_name,
        ),
    )
    return BoundTables(
        offers=tuple(ordered), out_prices=out_prices, in_prices=in_prices, flat=flat
    )


#: library -> {cost-model identity -> BoundTables}; the offers and packing
#: prices depend only on the (library, cost-model) pair, so they are computed
#: once and shared by every decomposition over that pair
_TABLES_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def bound_tables(library, cost_model) -> BoundTables:
    """The (memoized) offer/price tables for one (library, cost-model) pair."""
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


class PackingBound(ResidualBound):
    """Degree/capability packing bound via per-node-side dual prices.

    For flat cost models only: each primitive instance supplies a bounded
    number of paired-only and flexible edge slots at any one node side, at
    its full (binding-independent) cost; a remainder link supplies one
    flexible slot at the flat remainder charge.  Any dual price pair
    feasible against every such offer prices a node side's residual demand
    ``n_bi * y_bi + n_uni * y_uni`` below the total completion cost (LP
    weak duality), so the bound is the best candidate price applied to the
    most demanding node side.  Hub nodes — broadcast centres, gossip
    columns — are exactly where this beats per-edge accounting.

    Abstains (bound 0) when the cost model is not flat.
    """

    name = "packing"

    def __init__(self, tables: BoundTables, statistics=None) -> None:
        super().__init__(statistics)
        self._tables = tables

    def _compute(self, residual: DiGraph) -> float:
        if not self._tables.flat:
            return 0.0
        out_prices = self._tables.out_prices
        in_prices = self._tables.in_prices
        best = 0.0
        for node in residual.nodes():
            out_degree = residual.out_degree(node)
            in_degree = residual.in_degree(node)
            if not out_degree and not in_degree:
                continue
            paired = _paired_degree(residual, node)
            if out_degree:
                bi, uni = paired, out_degree - paired
                for y_bi, y_uni in out_prices:
                    demand = bi * y_bi + uni * y_uni
                    if demand > best:
                        best = demand
            if in_degree:
                bi, uni = paired, in_degree - paired
                for y_bi, y_uni in in_prices:
                    demand = bi * y_bi + uni * y_uni
                    if demand > best:
                        best = demand
        return best


class ExactSmallBound(ResidualBound):
    """Exact optimum of small residuals via a memoized mini branch-and-bound.

    Residuals at or below ``max_edges`` edges are solved outright: the
    solver enumerates *every* matching of every primitive (no enumeration
    clipping, no timeout — unlike the outer search) and recurses on the
    sub-residual, memoizing each solved edge set by its structural
    fingerprint.  The memo doubles as a dynamic program: permuted matching
    orders collapse onto the same sub-residual entry, and entries are
    shared across the whole outer search.  The returned value is the true
    minimum completion cost, which bounds the outer search's (enumeration-
    limited) completions from below.  Above the threshold the bound
    abstains (returns 0), so it is meant to be stacked with the cheap
    bounds.
    """

    name = "exact_small"

    def __init__(
        self,
        library,
        cost_model,
        acg: ApplicationGraph,
        max_edges: int,
        statistics=None,
        floor: ResidualBound | None = None,
    ) -> None:
        super().__init__(statistics)
        self._library = library
        self._cost_model = cost_model
        self._acg = acg
        self.max_edges = max_edges
        self._floor = floor
        # additive models price the same covered edge set differently per
        # binding, so exactness requires enumerating every distinct mapping
        self._deduplicate = all(
            _flat_matching_cost(cost_model, entry.primitive) is not None
            for entry in library.entries()
        )

    def _compute(self, residual: DiGraph) -> float:
        if residual.num_edges == 0:
            return 0.0
        if residual.num_edges > self.max_edges:
            return 0.0
        if self._statistics is not None:
            self._statistics.exact_residuals_solved += 1
        cost_model = self._cost_model
        acg = self._acg
        best = cost_model.remainder_cost(residual, acg)
        for entry in self._library.sorted_for_search():
            primitive = entry.primitive
            if primitive.num_requirement_edges > residual.num_edges:
                continue
            if primitive.size > residual.num_nodes:
                continue
            matcher = VF2Matcher(
                primitive.representation,
                residual,
                MatcherOptions(
                    induced=False,
                    timeout_seconds=None,
                    deduplicate_by_edges=self._deduplicate,
                ),
            )
            for mapping in matcher.find_all(limit=None):
                matching = Matching.from_mapping(primitive, mapping)
                cost = cost_model.matching_cost(matching, acg)
                if cost >= best:
                    continue
                sub_residual = matching.subtract_from(residual)
                if self._floor is not None:
                    floor = self._floor.value(sub_residual)
                    if cost + floor >= best:
                        continue
                total = cost + self.value(sub_residual)
                if total < best:
                    best = total
        return best


class StackedBound(ResidualBound):
    """Pointwise maximum of several bounds, evaluated lazily cheap-first."""

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
    exact_small_max_edges: int = 10,
    statistics=None,
) -> ResidualBound:
    """Construct the residual bound selected by ``name``.

    ``statistics`` (a :class:`SearchStatistics`) receives the bound-cache
    hit/miss counters and the number of residuals the exact solver handled.
    Raises :class:`DecompositionError` for unknown names.
    """
    if name not in BOUND_NAMES:
        raise DecompositionError(
            f"unknown lower bound {name!r}; expected one of {', '.join(BOUND_NAMES)}"
        )
    if name == "cost_model":
        return CostModelBound(cost_model, acg, statistics)
    tables = bound_tables(library, cost_model)
    if name == "cheapest_edge":
        return CheapestEdgeBound(tables, cost_model, acg, statistics)
    if name == "packing":
        return PackingBound(tables, statistics)
    cheapest = CheapestEdgeBound(tables, cost_model, acg, statistics)
    if name == "exact_small":
        return ExactSmallBound(
            library, cost_model, acg, exact_small_max_edges, statistics, floor=cheapest
        )
    exact = ExactSmallBound(
        library, cost_model, acg, exact_small_max_edges, statistics, floor=cheapest
    )
    return StackedBound([cheapest, PackingBound(tables, statistics), exact])

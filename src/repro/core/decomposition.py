"""The graph decomposition engine (Section 4 of the paper).

Given an Application Characterization Graph and a communication library, the
decomposition covers the ACG with instances of the library primitives plus a
remainder graph that no primitive matches (Equation 2), minimising the total
cost (Equation 3) subject to the design constraints.

Two engines are provided:

:class:`BranchAndBoundDecomposer`
    The depth-first branch-and-bound of Figure 3.  It enumerates each
    primitive's (edge-set-distinct) subgraph isomorphisms into the ACG once;
    at every level it branches on those still in the residual graph,
    subtracts the matched edges, and recurses.  A branch is abandoned as
    soon as its accumulated cost plus an admissible lower bound on the
    residual exceeds the best complete decomposition found so far.

:class:`GreedyDecomposer`
    A first-fit baseline (largest primitive first, first matching found, no
    backtracking).  It is used by the ablation benchmark to quantify what the
    branch-and-bound search buys.

Both return a :class:`DecompositionResult` that carries the chosen matchings,
the remainder graph, the cost breakdown, search statistics and a
``describe()`` method that prints the same listing format as the paper's
Section 5 output (primitive ID, name and vertex mapping per line).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from repro.core.bounds import CheapestEdgeBound, EdgeCharges, bound_tables
from repro.core.cost import CostModel, LinkCountCostModel, default_cost_model
from repro.core.graph import ApplicationGraph, DiGraph, EdgeIndex
from repro.core.isomorphism import IsomorphismMapping, VF2Matcher
from repro.core.library import CommunicationLibrary, LibraryEntry
from repro.core.matching import Matching
from repro.exceptions import DecompositionError


class SearchStrategy(Enum):
    """How the decomposition space is explored."""

    BRANCH_AND_BOUND = "branch_and_bound"
    GREEDY = "greedy"


@dataclass
class DecompositionConfig:
    """Tuning knobs for the decomposition search.

    Attributes
    ----------
    strategy:
        Branch-and-bound (paper) or greedy first-fit (ablation baseline).
    max_matchings_per_primitive:
        How many matchings of each primitive are branched on at each search
        node.  The search enumerates every matching once, at the root, and
        each node takes the first ``limit`` of a primitive's matchings that
        pass the symmetry filter, in canonical (:meth:`Matching.sort_key`)
        order, so the cap keeps its width at every depth.  ``None``
        branches on all of them.
    isomorphism_timeout_seconds:
        Optional abort for one VF2 query (Section 5.1 suggests ending the
        subgraph search after a time-out).  A query that runs past it
        raises :class:`DecompositionError`; it never clips a candidate list.
    total_timeout_seconds:
        Optional abort for the whole search: running past it raises
        :class:`DecompositionError` instead of returning a cover.
    max_leaves:
        Stop after this many complete decompositions have been evaluated.

    Only the counter budgets (``max_leaves``, ``max_nodes_expanded``) may
    cut a search short, so a cover never depends on host speed.  The two
    clocks default to ``None`` and can only abort.  Counters must be
    ``int`` (not ``bool``) and at least 1, abort times positive ``int`` or
    ``float``; ``None`` lifts a limit.  The two ``use_*`` switches must be
    ``bool``.  A bad value raises :class:`DecompositionError` at
    construction.
    """

    strategy: SearchStrategy = SearchStrategy.BRANCH_AND_BOUND
    max_matchings_per_primitive: int | None = 4
    isomorphism_timeout_seconds: float | None = None
    total_timeout_seconds: float | None = None
    max_leaves: int | None = 20000
    max_nodes_expanded: int | None = None
    """Optional cap on the number of search-tree nodes expanded; bounds the
    total work on large graphs whose decomposition tree is too big to search
    exhaustively (the best decomposition found so far is returned)."""
    use_lower_bound: bool = True
    """Prune with the ``cheapest_edge`` residual bound
    (:mod:`repro.core.bounds`).  Pruning is exact, so switching it off
    changes the nodes expanded, never the cover: the unbounded search is
    the reference the bound is checked against."""
    use_transposition_table: bool = True
    """Prune residual states that were already searched under a dominating
    (cheaper partial cost, no-stricter symmetry key) visit.  Identical
    residual edge sets are reachable through different interleavings of
    overlapping matchings that the symmetry filter cannot collapse."""

    def __post_init__(self) -> None:
        if not isinstance(self.strategy, SearchStrategy):
            valid = ", ".join(repr(strategy.value) for strategy in SearchStrategy)
            raise DecompositionError(
                f"strategy must be a SearchStrategy ({valid}), got {self.strategy!r}"
            )
        for name in ("use_lower_bound", "use_transposition_table"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise DecompositionError(f"{name} must be a bool, got {value!r}")
        for name in ("max_matchings_per_primitive", "max_leaves", "max_nodes_expanded"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise DecompositionError(f"{name} must be an int or None, got {value!r}")
            if value < 1:
                raise DecompositionError(f"{name} must be at least 1 or None, got {value!r}")
        for name in ("isomorphism_timeout_seconds", "total_timeout_seconds"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DecompositionError(f"{name} must be a number or None, got {value!r}")
            if value <= 0:
                raise DecompositionError(f"{name} must be positive or None, got {value!r}")


@dataclass
class SearchStatistics:
    """Diagnostics gathered during one decomposition run."""

    nodes_expanded: int = 0
    matchings_tried: int = 0
    """Per fresh VF2 enumeration, the matchings within the branching cap
    (``min(max_matchings_per_primitive, found)``)."""
    matchings_enumerated: int = 0
    """Every matching yielded by a fresh VF2 enumeration: the true measure
    of VF2 enumeration work."""
    leaves_evaluated: int = 0
    branches_pruned: int = 0
    """Branches abandoned because an admissible bound proved they cannot
    beat the incumbent.  Transposition skips are *not* counted here (see
    ``transposition_hits``); ``branches_pruned_by`` attributes every pruned
    subtree — bound prunes *and* transposition skips — to its source."""
    branches_pruned_by: dict[str, int] = field(default_factory=dict)
    """Pruned-subtree provenance: ``"cheapest_edge"`` for bound prunes or
    ``"transposition"`` for dominance skips, mapped to how many subtrees
    each removed."""
    bound_cache_hits: int = 0
    """Residual bound values served from the fingerprint-keyed bound cache."""
    bound_cache_misses: int = 0
    """Residual bound values that had to be computed."""
    matching_cache_hits: int = 0
    """Primitive matching lists inherited from the parent residual (every
    list below the root of a branch-and-bound search)."""
    matching_cache_misses: int = 0
    """Primitive matching lists that required a fresh VF2 enumeration (one
    per primitive at the root of a branch-and-bound search)."""
    transposition_hits: int = 0
    """Search nodes skipped because a dominating visit already searched the
    same residual edge set."""
    elapsed_seconds: float = 0.0
    truncated: bool = False
    truncated_by: str | None = None
    """Which counter budget cut the search short, ``"leaves"`` or
    ``"nodes"``, or ``None`` when the search completed.  Both are
    deterministic, so a truncated result reproduces on any host."""

    def as_dict(self) -> dict[str, float | int | bool | str | dict[str, int] | None]:
        """Plain-dict view of all counters (what evaluation records store)."""
        return {
            "nodes_expanded": self.nodes_expanded,
            "matchings_tried": self.matchings_tried,
            "matchings_enumerated": self.matchings_enumerated,
            "leaves_evaluated": self.leaves_evaluated,
            "branches_pruned": self.branches_pruned,
            "branches_pruned_by": dict(sorted(self.branches_pruned_by.items())),
            "bound_cache_hits": self.bound_cache_hits,
            "bound_cache_misses": self.bound_cache_misses,
            "matching_cache_hits": self.matching_cache_hits,
            "matching_cache_misses": self.matching_cache_misses,
            "transposition_hits": self.transposition_hits,
            "elapsed_seconds": self.elapsed_seconds,
            "truncated": self.truncated,
            "truncated_by": self.truncated_by,
        }


@dataclass
class DecompositionResult:
    """A complete decomposition: matchings + remainder + cost breakdown."""

    acg: ApplicationGraph
    matchings: list[Matching]
    remainder: DiGraph
    """The ACG edges no primitive absorbed, the remainder graph ``R`` of
    Equation 2; they are implemented as point-to-point links."""
    total_cost: float
    matching_costs: list[float]
    remainder_cost: float
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_matchings(self) -> int:
        """How many primitive instances the decomposition uses."""
        return len(self.matchings)

    def primitives_used(self) -> dict[str, int]:
        """How many instances of each primitive the decomposition uses."""
        counts: dict[str, int] = {}
        for matching in self.matchings:
            counts[matching.primitive.name] = counts.get(matching.primitive.name, 0) + 1
        return counts

    def covered_edge_fraction(self) -> float:
        """Fraction of ACG edges absorbed by primitives (1.0 = full cover)."""
        total = self.acg.num_edges
        if total == 0:
            return 1.0
        return 1.0 - self.remainder.num_edges / total

    def validate_cover(self) -> None:
        """Check that matchings + remainder partition the ACG edge set."""
        covered: set = set()
        for matching in self.matchings:
            edges = matching.covered_edges()
            overlap = covered & edges
            if overlap:
                raise DecompositionError(f"matchings overlap on edges {sorted(overlap)}")
            covered |= edges
        remainder_edges = set(self.remainder.edges())
        if covered & remainder_edges:
            raise DecompositionError("remainder overlaps a matching")
        all_edges = set(self.acg.edges())
        if covered | remainder_edges != all_edges:
            missing = all_edges - (covered | remainder_edges)
            raise DecompositionError(f"decomposition does not cover edges {sorted(missing)}")

    # ------------------------------------------------------------------
    # reporting (paper's Section-5 listing format)
    # ------------------------------------------------------------------
    def describe(self, include_cost: bool = True) -> str:
        """Multi-line listing in the paper's Section-5 output format."""
        lines: list[str] = []
        if include_cost:
            lines.append(f"COST: {self.total_cost:g}")
        for depth, matching in enumerate(self.matchings):
            lines.append(" " * depth + matching.describe())
        edge_text = ", ".join(f"({source} {target})" for source, target in self.remainder.edges())
        lines.append(" " * len(self.matchings) + f"0: Remaining Graph: {edge_text or '(empty)'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<DecompositionResult matchings={self.num_matchings} "
            f"remainder_edges={self.remainder.num_edges} cost={self.total_cost:g}>"
        )


def replay_cover(
    acg: ApplicationGraph,
    matchings: list[Matching],
    cost_model: CostModel,
    statistics: SearchStatistics,
) -> DecompositionResult:
    """The validated result of a cover, its remainder rebuilt by replaying
    ``matchings`` on the ACG.

    Every engine builds its result here, and so does the stage-artifact
    loader (:func:`repro.dse.cache.rebuild_decomposition`).  A matching
    whose edges are not all in the residual, or a cover that is not an
    edge partition of ``acg``, raises :class:`DecompositionError`.
    """
    residual: DiGraph = acg.structural_copy()
    for matching in matchings:
        residual = matching.subtract_from(residual)
    remainder = residual.without_isolated_nodes()
    matching_costs = [cost_model.matching_cost(m, acg) for m in matchings]
    remainder_cost = cost_model.remainder_cost(remainder, acg)
    result = DecompositionResult(
        acg=acg,
        matchings=list(matchings),
        remainder=remainder,
        total_cost=sum(matching_costs) + remainder_cost,
        matching_costs=matching_costs,
        remainder_cost=remainder_cost,
        statistics=statistics,
    )
    result.validate_cover()
    return result


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
class _Budget:
    """Counter budgets and the optional abort clock for one decomposition run."""

    def __init__(self, config: DecompositionConfig) -> None:
        self.config = config
        self.start = time.monotonic()
        self.leaves = 0
        self.exhausted_by: str | None = None

    def elapsed(self) -> float:
        """Seconds since the search started."""
        return time.monotonic() - self.start

    def exhausted(self, nodes_expanded: int) -> bool:
        """True (and latched) once a counter budget is spent.

        The first budget to trip names the truncation.  Running past
        ``total_timeout_seconds`` raises instead: a clock never shapes a cover.
        """
        if self.exhausted_by is not None:
            return True
        limit = self.config.total_timeout_seconds
        if limit is not None and self.elapsed() > limit:
            raise DecompositionError(
                f"decomposition search exceeded total_timeout_seconds={limit:g}"
            )
        if self.config.max_leaves is not None and self.leaves >= self.config.max_leaves:
            self.exhausted_by = "leaves"
        elif (
            self.config.max_nodes_expanded is not None
            and nodes_expanded >= self.config.max_nodes_expanded
        ):
            self.exhausted_by = "nodes"
        return self.exhausted_by is not None


class Decomposer:
    """Common machinery shared by the branch-and-bound and greedy engines."""

    def __init__(
        self,
        library: CommunicationLibrary,
        cost_model: CostModel | None = None,
        config: DecompositionConfig | None = None,
    ) -> None:
        self.library = library
        self.cost_model = cost_model
        self.config = config or DecompositionConfig()

    # -- helpers ---------------------------------------------------------
    def _resolve_cost_model(self, acg: ApplicationGraph) -> CostModel:
        if self.cost_model is not None:
            return self.cost_model
        return default_cost_model(acg)

    def _enumerate_matchings(
        self, entry: LibraryEntry, residual: DiGraph, limit: int | None
    ) -> list[Matching]:
        """Distinct matchings of one primitive in ``residual``, in VF2 order.

        At most ``limit`` are returned (``None``: all of them).  A query that
        runs past ``isomorphism_timeout_seconds`` raises
        :class:`DecompositionError`.
        """
        return [
            Matching.from_mapping(entry.primitive, mapping)
            for mapping in self._enumerate_mappings(entry, residual, limit)
        ]

    def _enumerate_mappings(
        self, entry: LibraryEntry, target: DiGraph | EdgeIndex, limit: int | None
    ) -> list[IsomorphismMapping]:
        """The VF2 mappings behind :meth:`_enumerate_matchings`; ``target``
        may be an :class:`EdgeIndex` that several queries share."""
        primitive = entry.primitive
        residual = target.graph if isinstance(target, EdgeIndex) else target
        if primitive.size > residual.num_nodes:
            return []
        if primitive.num_requirement_edges > residual.num_edges:
            return []
        matcher = VF2Matcher(
            primitive.representation,
            target,
            timeout_seconds=self.config.isomorphism_timeout_seconds,
            plan=entry.pattern_plan,
        )
        mappings = matcher.find_all(limit=limit)
        if matcher.timed_out:
            raise DecompositionError(
                f"VF2 query for {primitive.name} exceeded isomorphism_timeout_seconds="
                f"{self.config.isomorphism_timeout_seconds:g}"
            )
        return mappings

    def greedy_cover(
        self, acg: ApplicationGraph, cost_model: CostModel, statistics: SearchStatistics
    ) -> list[Matching]:
        """First-fit cover of ``acg``, counted into ``statistics``: the
        cheapest matching of the largest primitive that still matches,
        until none does (one leaf, no backtracking)."""
        residual: DiGraph = acg.structural_copy()
        matchings: list[Matching] = []
        progress = True
        while progress and residual.num_edges > 0:
            progress = False
            for entry in self.library.sorted_for_search():
                found = self._enumerate_matchings(
                    entry, residual, self.config.max_matchings_per_primitive
                )
                statistics.matchings_tried += len(found)
                statistics.matchings_enumerated += len(found)
                if not found:
                    continue
                best = min(found, key=lambda m: cost_model.matching_cost(m, acg))
                matchings.append(best)
                residual = best.subtract_from(residual)
                statistics.nodes_expanded += 1
                progress = True
                break
        statistics.leaves_evaluated += 1
        return matchings

    def decompose(
        self, acg: ApplicationGraph, memo: dict | None = None
    ) -> DecompositionResult:  # pragma: no cover
        """Cover ``acg`` with library primitives (engine-specific).

        ``memo`` is a dict the caller owns, in which searches may share
        work that does not depend on their budgets (:class:`SearchBasis`).
        """
        raise NotImplementedError


class GreedyDecomposer(Decomposer):
    """First-fit decomposition: largest primitive first, no backtracking."""

    def decompose(self, acg: ApplicationGraph, memo: dict | None = None) -> DecompositionResult:
        """Cover ``acg`` greedily: largest primitive first, no backtracking
        (``memo`` is unused: every step queries a new residual)."""
        cost_model = self._resolve_cost_model(acg)
        statistics = SearchStatistics()
        start = time.monotonic()
        matchings = self.greedy_cover(acg, cost_model, statistics)
        statistics.elapsed_seconds = time.monotonic() - start
        return replay_cover(acg, matchings, cost_model, statistics)


class Candidate(NamedTuple):
    """One root matching as the branch-and-bound handles it.

    ``order`` is the matching's place among all the search's matchings in
    :meth:`Matching.sort_key` order (ties in VF2 order), ``key`` the dense
    rank of its sort key, ``mask`` its covered edges over the search's
    :class:`~repro.core.graph.EdgeIndex` and ``cost`` its matching cost.
    """

    order: int
    key: int
    mask: int
    cost: float
    matching: Matching


def inherit_lists(
    lists: dict[int, list[Candidate]], removed: int
) -> dict[int, list[Candidate]]:
    """A child residual's candidate lists: its parent's, minus ``removed``.

    A matching is a monomorphism, so the child's matchings of a primitive
    are exactly the parent's whose covered edges all survived the
    subtraction of the edge mask ``removed``.  Complete lists in
    :meth:`Matching.sort_key` order therefore stay complete and in order;
    a primitive left without a matching is dropped.
    """
    child: dict[int, list[Candidate]] = {}
    for primitive_id, found in lists.items():
        surviving = [candidate for candidate in found if not candidate.mask & removed]
        if surviving:
            child[primitive_id] = surviving
    return child


_KEY = attrgetter("key")


def capped_survivors(
    lists: dict[int, list[Candidate]], min_key: int, limit: int | None
) -> list[Candidate]:
    """The candidates a search node branches on, in canonical order.

    Symmetry breaking: matchings commute, so a branch explores them in
    non-decreasing :meth:`Matching.sort_key` order only, and a node keeps
    the candidates whose key rank is at or above its ``min_key``.  Each
    list is in that order, so those are a suffix of it; the cap takes the
    suffix's first ``limit`` (all of it for ``None``), so a node never runs
    short while a primitive still has matchings it may take.
    """
    survivors: list[Candidate] = []
    for found in lists.values():
        start = bisect_left(found, min_key, key=_KEY)
        survivors.extend(found[start : None if limit is None else start + limit])
    survivors.sort()
    return survivors


def remainder_pricer(
    cost_model: CostModel, acg: ApplicationGraph, index: EdgeIndex
) -> Callable[[int], float]:
    """``mask -> cost_model.remainder_cost`` of that residual, over ``index``.

    The base remainder cost (every built-in model but link count) is a
    sequential sum of per-edge charges in edge order and link count's is
    its penalty times the edge count; other models get the residual graph.
    """
    method = type(cost_model).remainder_cost
    if method is CostModel.remainder_cost:
        charges = [
            cost_model.remainder_penalty * cost_model.route_cost(acg, edge, edge)
            for edge in index.edges
        ]
        return lambda mask: EdgeIndex.sum_over(mask, charges)
    if method is LinkCountCostModel.remainder_cost:
        penalty = cost_model.remainder_penalty
        return lambda mask: penalty * mask.bit_count()
    return lambda mask: cost_model.remainder_cost(index.graph_of(mask), acg)


def _cost_model_key(cost_model: CostModel) -> tuple:
    """A cost model as a dict key: its type and its field values.

    Cost models are unhashable dataclasses, so the fields are keyed by
    their ``repr``, which tells ``2`` from ``2.0``; any other model is
    keyed by its id (the basis keeps it alive).
    """
    if is_dataclass(cost_model):
        return type(cost_model), tuple(
            repr(getattr(cost_model, spec.name)) for spec in fields(cost_model)
        )
    return type(cost_model), id(cost_model)


@dataclass(frozen=True, eq=False)
class SearchBasis:
    """What every branch-and-bound search of one ACG shares, whatever its budgets.

    A search's root work depends only on (ACG, library, cost model, whether
    it bounds, VF2 timeout) (:meth:`BranchAndBoundDecomposer.search_basis`):
    searches that differ only in ``max_matchings_per_primitive``,
    ``max_nodes_expanded`` or ``max_leaves`` build it once through a memo
    and each replay its enumeration counters.  Every part is read-only or
    a memo of a pure function, so a search over a shared basis expands,
    prunes and counts exactly as a fresh one; the transposition table and
    the bound's residual cache stay with each search.  The basis holds the
    ACG (``index.graph``), library and cost model, so no other object can
    take over their ids while a memo keeps it.
    """

    library: CommunicationLibrary
    cost_model: CostModel
    index: EdgeIndex
    lists: dict[int, list[Candidate]]
    """The complete root candidate lists (:meth:`BranchAndBoundDecomposer.matching_lists`);
    a primitive's list length is its VF2 result count."""
    charges: EdgeCharges | None
    """The bound's per-edge charges, ``None`` for a search without a bound."""


class BranchAndBoundDecomposer(Decomposer):
    """The depth-first branch-and-bound NetDecomp algorithm of Figure 3.

    VF2 runs once per primitive per :class:`SearchBasis` (one per search
    unless a memo shares it), at the root and with no limit
    (:meth:`matching_lists`); every node below filters its parent's lists
    (:func:`inherit_lists`), so each node sees all the matchings of its
    residual.  A node branches on the first ``max_matchings_per_primitive``
    matchings of each primitive at or above its symmetry key, in
    :meth:`Matching.sort_key` order, so the cap keeps its width at every
    depth.

    The search indexes the ACG's edges once (:class:`EdgeIndex`): a
    residual and each matching's covered edges are ``int`` masks, and a
    child's residual is ``residual & ~mask``.  A **transposition table**
    keyed by the residual mask prunes the rest: the same residual state is
    reachable through different interleavings of overlapping matchings,
    and a revisit that is dominated by an earlier visit (higher partial
    cost, no-looser symmetry key) cannot improve on the subtree already
    searched.  Only the chosen cover's remainder is built as a graph, by
    replaying its matchings.
    """

    def matching_lists(
        self, index: EdgeIndex, cost_model: CostModel
    ) -> dict[int, list[Candidate]]:
        """Every matching of every primitive in ``index.graph``, by primitive id.

        Each list is complete and in :meth:`Matching.sort_key` order (ties
        in VF2 order); primitives without a matching are left out.  One VF2
        query runs per library entry, with no limit.
        """
        acg = index.graph
        # (primitive id, matching, covered-edge mask): VF2 masks the edges
        # of its target, the index itself
        found: list[tuple[int, Matching, int]] = []
        for entry in self.library.sorted_for_search():
            found.extend(
                (entry.primitive_id, Matching.from_mapping(entry.primitive, m), m.edge_mask)
                for m in self._enumerate_mappings(entry, index, None)
            )
        found.sort(key=lambda item: item[1].sort_key())
        ranks = {key: rank for rank, key in enumerate(sorted({m.sort_key() for _, m, _ in found}))}
        lists: dict[int, list[Candidate]] = {}
        for order, (primitive_id, matching, mask) in enumerate(found):
            lists.setdefault(primitive_id, []).append(
                Candidate(
                    order,
                    ranks[matching.sort_key()],
                    mask,
                    cost_model.matching_cost(matching, acg),
                    matching,
                )
            )
        return lists

    def search_basis(
        self, acg: ApplicationGraph, cost_model: CostModel, memo: dict | None = None
    ) -> SearchBasis:
        """This search's :class:`SearchBasis`, from ``memo`` when it holds one.

        A basis built here is stored in ``memo`` (when given) under
        (ACG, library, cost model, whether it bounds, VF2 timeout); the ACG
        and the library are keyed by id, as the basis keeps them alive.
        """
        config = self.config
        key = (
            id(acg),
            id(self.library),
            _cost_model_key(cost_model),
            config.use_lower_bound,
            config.isomorphism_timeout_seconds,
        )
        basis = memo.get(key) if memo is not None else None
        if basis is None:
            index = EdgeIndex(acg)
            basis = SearchBasis(
                self.library,
                cost_model,
                index,
                self.matching_lists(index, cost_model),
                EdgeCharges(bound_tables(self.library, cost_model), cost_model, index)
                if config.use_lower_bound
                else None,
            )
            if memo is not None:
                memo[key] = basis
        return basis

    def count_enumeration(self, basis: SearchBasis, statistics: SearchStatistics) -> None:
        """Count the basis's root enumeration into this search's ``statistics``.

        One VF2 query per library entry; ``matchings_tried`` takes each
        primitive's result count at this search's cap.
        """
        limit = self.config.max_matchings_per_primitive
        statistics.matching_cache_misses += len(self.library)
        for found in basis.lists.values():
            statistics.matchings_enumerated += len(found)
            statistics.matchings_tried += len(found) if limit is None else min(limit, len(found))

    def decompose(self, acg: ApplicationGraph, memo: dict | None = None) -> DecompositionResult:
        """Search for the minimum-cost cover of ``acg`` (Figure 3).

        The search's :class:`SearchBasis` comes from ``memo`` when an
        earlier search stored it there (see :meth:`search_basis`).
        """
        cost_model = self._resolve_cost_model(acg)
        statistics = SearchStatistics()
        budget = _Budget(self.config)
        basis = self.search_basis(acg, cost_model, memo)
        self.count_enumeration(basis, statistics)
        index = basis.index
        remainder_cost = remainder_pricer(cost_model, acg, index)

        best_cost = float("inf")
        best_matchings: list[Matching] | None = None
        limit = self.config.max_matchings_per_primitive
        use_table = self.config.use_transposition_table
        bound = None if basis.charges is None else CheapestEdgeBound(basis.charges, statistics)
        # residual edge mask -> [(partial_cost, min_key), ...]: the
        # Pareto-incomparable visits of that residual state
        transposition: dict[int, list[tuple[float, int]]] = {}

        def dominated_or_recorded(residual: int, partial_cost: float, min_key: int) -> bool:
            """True when an earlier visit of this residual dominates this one.

            A visit with partial cost ``c`` and symmetry key ``k`` dominates a
            revisit with cost >= c and key >= k: both see every matching of
            the residual, so every branch the revisit may take was reachable
            from the earlier visit at no higher cost.  When not dominated,
            the visit is recorded (evicting entries it dominates in turn).
            """
            entries = transposition.setdefault(residual, [])
            for stored_cost, stored_key in entries:
                if partial_cost >= stored_cost - 1e-9 and min_key >= stored_key:
                    statistics.transposition_hits += 1
                    statistics.branches_pruned_by["transposition"] = (
                        statistics.branches_pruned_by.get("transposition", 0) + 1
                    )
                    return True
            entries[:] = [
                (cost, key)
                for cost, key in entries
                if not (cost >= partial_cost - 1e-9 and key >= min_key)
            ]
            entries.append((partial_cost, min_key))
            return False

        def recurse(
            residual: int,
            chosen: list[Matching],
            partial_cost: float,
            min_key: int,
            lists: dict[int, list[Candidate]],
        ) -> None:
            """Expand one search node: branch on every surviving candidate."""
            nonlocal best_cost, best_matchings
            if budget.exhausted(statistics.nodes_expanded):
                return
            statistics.nodes_expanded += 1

            survivors = capped_survivors(lists, min_key, limit)

            # A node without survivors is only scored as a leaf below, so it
            # is neither looked up nor recorded.
            if survivors and use_table and dominated_or_recorded(residual, partial_cost, min_key):
                return

            for candidate in survivors:
                next_residual = residual & ~candidate.mask
                next_cost = partial_cost + candidate.cost
                if bound is not None:
                    # prune when next_cost + bound(residual) >= incumbent;
                    # the reason names the bound that proved it
                    fired = bound.prune_reason(next_residual, best_cost - next_cost)
                    if fired is not None:
                        statistics.branches_pruned += 1
                        statistics.branches_pruned_by[fired] = (
                            statistics.branches_pruned_by.get(fired, 0) + 1
                        )
                        continue
                statistics.matching_cache_hits += len(lists)
                chosen.append(candidate.matching)
                recurse(
                    next_residual,
                    chosen,
                    next_cost,
                    candidate.key,
                    inherit_lists(lists, candidate.mask),
                )
                chosen.pop()
                if budget.exhausted(statistics.nodes_expanded):
                    return

            # Score stopping at this node, whether it is a natural leaf
            # (nothing in the library matches), a node whose candidates were
            # all symmetry-filtered or bound-pruned, or an interior node —
            # the optimum may cover less than the library allows.  Scoring
            # after the children keeps ties resolved in favour of the deeper
            # (more covering) decomposition found first.  Natural leaves
            # always count against the leaf budget; the others only when
            # they improve the incumbent, so they cannot exhaust
            # ``max_leaves`` on subtrees the bound has written off.
            total = partial_cost + remainder_cost(residual)
            improved = total < best_cost
            if improved or not lists:
                budget.leaves += 1
                statistics.leaves_evaluated += 1
            if improved:
                best_cost = total
                best_matchings = list(chosen)

        try:
            # the root's symmetry key -1 sits below every key rank
            recurse(index.full, [], 0.0, -1, basis.lists)
        finally:
            del recurse  # the closure refers to itself: free it without the cyclic GC
        if best_matchings is None:
            # The search budget ran out before reaching any leaf; fall back to
            # a greedy pass so the caller always receives a valid cover.
            best_matchings = self.greedy_cover(acg, cost_model, statistics)
        statistics.elapsed_seconds = budget.elapsed()
        statistics.truncated = budget.exhausted_by is not None
        statistics.truncated_by = budget.exhausted_by
        return replay_cover(acg, best_matchings, cost_model, statistics)


def decompose(
    acg: ApplicationGraph,
    library: CommunicationLibrary,
    cost_model: CostModel | None = None,
    config: DecompositionConfig | None = None,
    memo: dict | None = None,
) -> DecompositionResult:
    """Decompose ``acg`` into ``library`` primitives (module-level convenience).

    The engine is picked from ``config.strategy``; the default is the paper's
    branch-and-bound search with a unit or energy cost model chosen
    automatically from the ACG (energy if floorplan positions are present).
    ``memo`` is a dict the caller owns: branch-and-bound searches of one
    ACG that differ only in their budgets share one :class:`SearchBasis`
    through it (its VF2 enumeration, edge index and bound tables), with
    results identical to fresh searches.  It lives as long as the caller
    keeps it.
    """
    # imported lazily so the observability layer stays optional at the
    # module level (repro.core must import standalone in minimal embeddings)
    from repro.obs.session import get_tracer

    config = config or DecompositionConfig()
    if config.strategy is SearchStrategy.GREEDY:
        engine: Decomposer = GreedyDecomposer(library, cost_model, config)
    else:
        engine = BranchAndBoundDecomposer(library, cost_model, config)
    tracer = get_tracer()
    with tracer.span("search.decompose", strategy=config.strategy.value) as span:
        result = engine.decompose(acg, memo)
        if tracer.enabled:
            statistics = result.statistics
            span.annotate(
                nodes_expanded=statistics.nodes_expanded,
                leaves_evaluated=statistics.leaves_evaluated,
                vf2_fresh_matchings=statistics.matching_cache_misses,
                vf2_cached_matchings=statistics.matching_cache_hits,
                transposition_hits=statistics.transposition_hits,
                branches_pruned=statistics.branches_pruned,
                branches_pruned_by=dict(sorted(statistics.branches_pruned_by.items())),
                bound_cache_hits=statistics.bound_cache_hits,
                bound_cache_misses=statistics.bound_cache_misses,
                truncated=statistics.truncated,
                truncated_by=statistics.truncated_by,
            )
    return result

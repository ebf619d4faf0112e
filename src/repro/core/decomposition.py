"""The graph decomposition engine (Section 4 of the paper).

Given an Application Characterization Graph and a communication library, the
decomposition covers the ACG with instances of the library primitives plus a
remainder graph that no primitive matches (Equation 2), minimising the total
cost (Equation 3) subject to the design constraints.

Two engines are provided:

:class:`BranchAndBoundDecomposer`
    The depth-first branch-and-bound of Figure 3.  At every level it tries
    each library primitive, enumerates the (edge-set-distinct) subgraph
    isomorphisms into the current residual graph, subtracts the matched
    edges, and recurses; a branch is abandoned as soon as its accumulated
    cost plus an admissible lower bound on the residual exceeds the best
    complete decomposition found so far.

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
from dataclasses import dataclass, field
from enum import Enum

from repro.core.bounds import ResidualBound, build_lower_bound, check_bound_name
from repro.core.cost import CostModel, default_cost_model
from repro.core.graph import ApplicationGraph, DiGraph, Edge
from repro.core.isomorphism import MatcherOptions, VF2Matcher
from repro.core.library import CommunicationLibrary, LibraryEntry
from repro.core.matching import Matching, RemainderGraph
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
        How many distinct matchings of each primitive are branched on at each
        level.  ``None`` explores all of them; small values keep the search
        tractable for large random graphs while preserving the best-first
        behaviour because matchings are deduplicated by covered edge set.
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
    clocks default to ``None`` and can only abort.  Counters must be at
    least 1 and abort times positive; ``None`` lifts a limit.
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
    lower_bound: str = "cheapest_edge"
    """Which admissible residual bound prunes branches (see
    :mod:`repro.core.bounds`): ``"cheapest_edge"`` (per-edge cheapest
    feasible cover offer, the default) or ``"cost_model"`` (the legacy
    coarse per-edge charge).  Ignored when ``use_lower_bound`` is False.
    Pruning is exact under every admissible choice — the knob trades bound
    computation against nodes expanded, never solution quality.  An
    unknown name raises :class:`DecompositionError` at construction."""
    use_matching_cache: bool = True
    """Inherit a parent residual's matchings into its children instead of
    re-running VF2: a child residual differs from its parent only by the
    subtracted edges, so the child's matchings of a primitive are exactly the
    parent's matchings whose covered edges survived the subtraction.  The
    inheritance is only applied when the parent's enumeration was provably
    complete (not clipped by ``max_matchings_per_primitive``); otherwise
    the child falls back to a fresh VF2 query."""
    use_transposition_table: bool = True
    """Prune residual states that were already searched under a dominating
    (cheaper partial cost, no-stricter symmetry key) visit.  Identical
    residual edge sets are reachable through different interleavings of
    overlapping matchings that the symmetry filter cannot collapse."""
    cache_overscan: int = 4
    """When the matching cache is on, fresh VF2 queries enumerate up to
    ``cache_overscan * max_matchings_per_primitive`` matchings so that
    completeness (and therefore inheritability) can be proven for primitives
    whose matching count is moderate.  Branching still uses only the first
    ``max_matchings_per_primitive`` candidates; the extra matchings only feed
    the candidate-inheritance cache."""

    def __post_init__(self) -> None:
        check_bound_name(self.lower_bound)
        for name in ("max_matchings_per_primitive", "max_leaves", "max_nodes_expanded"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DecompositionError(f"{name} must be at least 1 or None, got {value!r}")
        if self.cache_overscan < 1:
            raise DecompositionError(
                f"cache_overscan must be at least 1, got {self.cache_overscan!r}"
            )
        for name in ("isomorphism_timeout_seconds", "total_timeout_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise DecompositionError(f"{name} must be positive or None, got {value!r}")


@dataclass
class SearchStatistics:
    """Diagnostics gathered during one decomposition run."""

    nodes_expanded: int = 0
    matchings_tried: int = 0
    """Branch candidates considered from fresh VF2 enumerations (clipped to
    ``max_matchings_per_primitive``; cache-served candidate lists are
    filtered, not re-enumerated, and therefore not counted here)."""
    matchings_enumerated: int = 0
    """Every matching yielded by a fresh VF2 enumeration, including the
    overscan beyond the branching limit that only feeds the matching cache.
    This is the true measure of VF2 enumeration work."""
    leaves_evaluated: int = 0
    branches_pruned: int = 0
    """Branches abandoned because an admissible bound proved they cannot
    beat the incumbent.  Transposition skips are *not* counted here (see
    ``transposition_hits``); ``branches_pruned_by`` attributes every pruned
    subtree — bound prunes *and* transposition skips — to its source."""
    branches_pruned_by: dict[str, int] = field(default_factory=dict)
    """Pruned-subtree provenance: which bound fired (``"cheapest_edge"`` or
    ``"cost_model"``) or ``"transposition"`` for dominance skips, mapped to
    how many subtrees it removed."""
    bound_cache_hits: int = 0
    """Residual bound values served from the fingerprint-keyed bound cache."""
    bound_cache_misses: int = 0
    """Residual bound values that had to be computed."""
    matching_cache_hits: int = 0
    """Primitive candidate lists inherited from the parent residual."""
    matching_cache_misses: int = 0
    """Primitive candidate lists that required a fresh VF2 enumeration."""
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

    def cache_hit_rate(self) -> float:
        """Fraction of per-primitive candidate lists served from the cache."""
        total = self.matching_cache_hits + self.matching_cache_misses
        if total == 0:
            return 0.0
        return self.matching_cache_hits / total


@dataclass
class DecompositionResult:
    """A complete decomposition: matchings + remainder + cost breakdown."""

    acg: ApplicationGraph
    matchings: list[Matching]
    remainder: RemainderGraph
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

    @property
    def is_complete_cover(self) -> bool:
        """True when no application edge was left in the remainder."""
        return self.remainder.is_empty

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
        lines.append(" " * len(self.matchings) + self.remainder.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<DecompositionResult matchings={self.num_matchings} "
            f"remainder_edges={self.remainder.num_edges} cost={self.total_cost:g}>"
        )


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
        self, entry: LibraryEntry, residual: DiGraph, overscan: bool = False
    ) -> tuple[list[Matching], bool]:
        """Distinct matchings of one primitive in the residual graph.

        Returns ``(matchings, complete)`` where ``complete`` is True only
        when the enumeration provably produced *every* edge-set-distinct
        matching, i.e. was not clipped by the enumeration limit.  A query
        that runs past ``isomorphism_timeout_seconds`` raises
        :class:`DecompositionError`.  Completeness is what licenses the
        candidate-inheritance cache of the branch-and-bound search; only that
        search passes ``overscan=True`` to enumerate past the branching limit
        (the greedy engine has no cache and would pay the extra VF2 work for
        nothing).
        """
        primitive = entry.primitive
        if primitive.size > residual.num_nodes:
            return [], True
        if primitive.num_requirement_edges > residual.num_edges:
            return [], True
        matcher = VF2Matcher(
            primitive.representation,
            residual,
            MatcherOptions(
                induced=False,
                timeout_seconds=self.config.isomorphism_timeout_seconds,
                deduplicate_by_edges=True,
            ),
        )
        limit = self.config.max_matchings_per_primitive
        scan_limit = limit
        if limit is not None and overscan and self.config.cache_overscan > 1:
            scan_limit = limit * self.config.cache_overscan
        mappings = matcher.find_all(limit=scan_limit)
        if matcher.timed_out:
            raise DecompositionError(
                f"VF2 query for {primitive.name} exceeded isomorphism_timeout_seconds="
                f"{self.config.isomorphism_timeout_seconds:g}"
            )
        complete = scan_limit is None or len(mappings) < scan_limit
        return [Matching.from_mapping(primitive, mapping) for mapping in mappings], complete

    def _branch_candidates(self, found: list[Matching]) -> list[Matching]:
        """The candidates actually branched on: the first ``limit`` of a list.

        Enumeration may overscan past the per-primitive limit to prove
        completeness for the matching cache; the branching width of the
        search stays at ``max_matchings_per_primitive`` regardless.
        """
        limit = self.config.max_matchings_per_primitive
        if limit is None:
            return found
        return found[:limit]

    def _build_result(
        self,
        acg: ApplicationGraph,
        matchings: list[Matching],
        residual: DiGraph,
        cost_model: CostModel,
        statistics: SearchStatistics,
    ) -> DecompositionResult:
        remainder = RemainderGraph(residual.without_isolated_nodes())
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

    def decompose(self, acg: ApplicationGraph) -> DecompositionResult:  # pragma: no cover
        """Cover ``acg`` with library primitives (engine-specific)."""
        raise NotImplementedError


class GreedyDecomposer(Decomposer):
    """First-fit decomposition: largest primitive first, no backtracking."""

    def decompose(self, acg: ApplicationGraph) -> DecompositionResult:
        """Cover ``acg`` greedily: largest primitive first, no backtracking."""
        cost_model = self._resolve_cost_model(acg)
        statistics = SearchStatistics()
        start = time.monotonic()
        residual: DiGraph = acg.structural_copy()
        matchings: list[Matching] = []
        progress = True
        while progress and residual.num_edges > 0:
            progress = False
            for entry in self.library.sorted_for_search():
                found, _complete = self._enumerate_matchings(entry, residual)
                candidates = self._branch_candidates(found)
                statistics.matchings_tried += len(candidates)
                statistics.matchings_enumerated += len(found)
                if not candidates:
                    continue
                best = min(candidates, key=lambda m: cost_model.matching_cost(m, acg))
                matchings.append(best)
                residual = best.subtract_from(residual)
                statistics.nodes_expanded += 1
                progress = True
                break
        statistics.leaves_evaluated = 1
        statistics.elapsed_seconds = time.monotonic() - start
        return self._build_result(acg, matchings, residual, cost_model, statistics)


class BranchAndBoundDecomposer(Decomposer):
    """The depth-first branch-and-bound NetDecomp algorithm of Figure 3.

    Two structural accelerations keep the VF2 subgraph-isomorphism engine off
    the hot path:

    * a **candidate-inheritance matching cache** — a child residual differs
      from its parent only by the subtracted edge set, so the child's
      matchings of a primitive are exactly the parent's matchings whose
      covered edges survived the subtraction.  When the parent's enumeration
      was provably complete the child filters the parent's list instead of
      re-running VF2;
    * a **transposition table** keyed by the residual's exact edge set
      (:meth:`~repro.core.graph.DiGraph.structural_fingerprint`) — the same
      residual state is reachable through different interleavings of
      overlapping matchings, and a revisit that is dominated by an earlier
      visit (higher partial cost, no-looser symmetry key) cannot improve on
      the subtree already searched.
    """

    def decompose(self, acg: ApplicationGraph) -> DecompositionResult:
        """Search for the minimum-cost cover of ``acg`` (Figure 3)."""
        cost_model = self._resolve_cost_model(acg)
        statistics = SearchStatistics()
        budget = _Budget(self.config)
        residual = acg.structural_copy()

        best: dict[str, object] = {"cost": float("inf"), "matchings": None, "residual": None}
        use_cache = self.config.use_matching_cache
        use_table = self.config.use_transposition_table
        bound: ResidualBound | None = None
        if self.config.use_lower_bound:
            bound = build_lower_bound(
                self.config.lower_bound,
                self.library,
                cost_model,
                acg,
                statistics=statistics,
            )
        search_order = self.library.sorted_for_search()
        # exact residual edge set -> [(partial_cost, min_key), ...]: the
        # Pareto-incomparable visits of that residual state
        transposition: dict[frozenset[Edge], list[tuple[float, tuple]]] = {}

        def evaluate_leaf(
            current: DiGraph,
            chosen: list[Matching],
            partial_cost: float,
            always_count: bool,
        ) -> None:
            """Score stopping at ``current`` (remaining edges go to the remainder).

            Natural leaves (no candidate matches at all) always count against
            the leaf budget, as in the original search.  Stop-early leaves at
            interior nodes are scored too — the optimum may leave coverable
            traffic in the remainder — but charged to the budget only when
            they improve the incumbent, so the extra evaluations cannot
            exhaust ``max_leaves`` on subtrees the bound has written off.
            """
            total = partial_cost + cost_model.remainder_cost(current, acg)
            improved = total < best["cost"]
            if always_count or improved:
                budget.leaves += 1
                statistics.leaves_evaluated += 1
            if improved:
                best["cost"] = total
                best["matchings"] = list(chosen)
                best["residual"] = current.copy()

        def enumerate_candidates(
            current: DiGraph,
            inherited: dict[int, tuple[list[Matching], bool]] | None,
            dead: frozenset[int],
        ) -> tuple[dict[int, tuple[list[Matching], bool]], list[Matching], frozenset[int]]:
            """Candidate matchings of ``current``, per primitive and flattened.

            ``inherited`` carries the parent's candidate lists already
            filtered down to matchings that survived the subtraction, each
            tagged with whether it is provably the complete candidate set;
            primitives missing from it (the root, or a clipped parent list
            that no longer fills the branching quota) fall back to a fresh
            VF2 query.  ``dead`` holds primitives proven matchless in an
            ancestor residual — a matching is a monomorphism, so a primitive
            absent from some graph is absent from all of its subgraphs and is
            skipped for the whole subtree (this also keeps the
            ``use_matching_cache=False`` baseline from re-querying them).
            """
            lists: dict[int, tuple[list[Matching], bool]] = {}
            candidates: list[Matching] = []
            newly_dead: set[int] = set()
            for entry in search_order:
                primitive_id = entry.primitive_id
                if primitive_id in dead:
                    continue
                cached = inherited.get(primitive_id) if inherited is not None else None
                if cached is not None:
                    statistics.matching_cache_hits += 1
                    found, complete = cached
                else:
                    statistics.matching_cache_misses += 1
                    found, complete = self._enumerate_matchings(
                        entry, current, overscan=use_cache
                    )
                    statistics.matchings_tried += len(self._branch_candidates(found))
                    statistics.matchings_enumerated += len(found)
                if complete and not found:
                    newly_dead.add(primitive_id)
                    continue
                lists[primitive_id] = (found, complete)
                candidates.extend(self._branch_candidates(found))
            return lists, candidates, dead | frozenset(newly_dead)

        def inherit_lists(
            lists: dict[int, tuple[list[Matching], bool]], removed: frozenset[Edge]
        ) -> dict[int, tuple[list[Matching], bool]]:
            """Filter this node's candidate lists for the child residual.

            A matching survives the subtraction exactly when none of its
            covered edges was removed.  Complete lists stay complete (every
            child matching is a parent matching).  A clipped list is still
            reused when the survivors fill the per-primitive branching quota
            — a fresh VF2 query would also return ``limit`` candidates, just
            possibly different ones — and stays tagged incomplete.
            """
            limit = self.config.max_matchings_per_primitive
            child: dict[int, tuple[list[Matching], bool]] = {}
            for primitive_id, (found, complete) in lists.items():
                surviving = [m for m in found if not (m.covered_edges() & removed)]
                if complete:
                    child[primitive_id] = (surviving, True)
                elif limit is not None and len(surviving) >= limit:
                    child[primitive_id] = (surviving, False)
            return child

        def dominated_or_recorded(
            current: DiGraph, partial_cost: float, min_key: tuple
        ) -> bool:
            """True when an earlier visit of this residual dominates this one.

            A visit with partial cost ``c`` and symmetry key ``k`` dominates a
            revisit with cost >= c and key >= k: every branch the revisit may
            take was reachable from the earlier visit at no higher cost.  When
            not dominated, the visit is recorded (evicting entries it
            dominates in turn).

            Only nodes whose candidate lists are all provably complete are
            recorded or pruned: a complete candidate set is a function of the
            residual alone, so two such visits see identical branches.  With
            clipped lists the two visits may branch on *different* truncated
            candidate subsets, and pruning would drop branches neither visit
            explored.
            """
            entries = transposition.setdefault(current.structural_fingerprint(), [])
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
            current: DiGraph,
            chosen: list[Matching],
            partial_cost: float,
            min_key: tuple,
            inherited: dict[int, tuple[list[Matching], bool]] | None,
            dead: frozenset[int],
        ) -> None:
            """Expand one search node: branch on every surviving candidate."""
            if budget.exhausted(statistics.nodes_expanded):
                return
            statistics.nodes_expanded += 1

            lists, candidates, child_dead = enumerate_candidates(current, inherited, dead)
            # Symmetry breaking: matchings commute, so explore them in
            # non-decreasing canonical order only (see Matching.sort_key),
            # branching in canonical order so no combination is lost.
            survivors = [m for m in candidates if m.sort_key() >= min_key]
            survivors.sort(key=Matching.sort_key)

            # The transposition check sits after candidate enumeration because
            # its soundness gate needs the lists' completeness flags, which
            # only exist once the lists do; on a revisited node the
            # enumeration is almost always served by the inheritance cache,
            # so the work a hit discards is list filtering, not VF2.
            all_complete = all(complete for _, complete in lists.values())
            if (
                survivors
                and use_table
                and all_complete
                and dominated_or_recorded(current, partial_cost, min_key)
            ):
                return

            for matching in survivors:
                match_cost = cost_model.matching_cost(matching, acg)
                next_residual = matching.subtract_from(current)
                next_cost = partial_cost + match_cost
                if bound is not None:
                    # prune when next_cost + bound(residual) >= incumbent;
                    # the reason names the (sub-)bound that proved it
                    fired = bound.prune_reason(next_residual, best["cost"] - next_cost)
                    if fired is not None:
                        statistics.branches_pruned += 1
                        statistics.branches_pruned_by[fired] = (
                            statistics.branches_pruned_by.get(fired, 0) + 1
                        )
                        continue
                child_inherited: dict[int, tuple[list[Matching], bool]] | None = None
                if use_cache:
                    child_inherited = inherit_lists(lists, matching.covered_edges())
                chosen.append(matching)
                recurse(
                    next_residual,
                    chosen,
                    next_cost,
                    matching.sort_key(),
                    child_inherited,
                    child_dead,
                )
                chosen.pop()
                if budget.exhausted(statistics.nodes_expanded):
                    return

            # Score stopping at this node, whether it is a natural leaf
            # (nothing in the library matches), a node whose candidates were
            # all symmetry-filtered or bound-pruned, or an interior node —
            # the optimum may cover less than the library allows.  Scoring
            # after the children keeps ties resolved in favour of the deeper
            # (more covering) decomposition found first.
            evaluate_leaf(current, chosen, partial_cost, always_count=not candidates)

        try:
            recurse(residual, [], 0.0, (), None, frozenset())
        finally:
            del recurse  # the closure refers to itself: free it without the cyclic GC
        statistics.elapsed_seconds = budget.elapsed()
        statistics.truncated = budget.exhausted_by is not None
        statistics.truncated_by = budget.exhausted_by

        if best["matchings"] is None:
            # The search budget ran out before reaching any leaf; fall back to
            # a greedy pass so the caller always receives a valid cover.
            fallback = GreedyDecomposer(self.library, cost_model, self.config).decompose(acg)
            fallback.statistics.truncated = True
            fallback.statistics.truncated_by = budget.exhausted_by
            fallback.statistics.nodes_expanded += statistics.nodes_expanded
            fallback.statistics.matchings_tried += statistics.matchings_tried
            fallback.statistics.matchings_enumerated += statistics.matchings_enumerated
            fallback.statistics.branches_pruned += statistics.branches_pruned
            fallback.statistics.branches_pruned_by = dict(statistics.branches_pruned_by)
            fallback.statistics.bound_cache_hits += statistics.bound_cache_hits
            fallback.statistics.bound_cache_misses += statistics.bound_cache_misses
            fallback.statistics.matching_cache_hits += statistics.matching_cache_hits
            fallback.statistics.matching_cache_misses += statistics.matching_cache_misses
            fallback.statistics.transposition_hits += statistics.transposition_hits
            return fallback

        return self._build_result(
            acg,
            list(best["matchings"]),  # type: ignore[arg-type]
            best["residual"],  # type: ignore[arg-type]
            cost_model,
            statistics,
        )


def decompose(
    acg: ApplicationGraph,
    library: CommunicationLibrary,
    cost_model: CostModel | None = None,
    config: DecompositionConfig | None = None,
) -> DecompositionResult:
    """Decompose ``acg`` into ``library`` primitives (module-level convenience).

    The engine is picked from ``config.strategy``; the default is the paper's
    branch-and-bound search with a unit or energy cost model chosen
    automatically from the ACG (energy if floorplan positions are present).
    """
    # imported lazily so the observability layer stays optional at the
    # module level (repro.core must import standalone in minimal embeddings)
    from repro.obs import get_tracer

    config = config or DecompositionConfig()
    if config.strategy is SearchStrategy.GREEDY:
        engine: Decomposer = GreedyDecomposer(library, cost_model, config)
    else:
        engine = BranchAndBoundDecomposer(library, cost_model, config)
    tracer = get_tracer()
    with tracer.span("search.decompose", strategy=config.strategy.value) as span:
        result = engine.decompose(acg)
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

"""Decomposition run-time sweeps (Figure 4 of the paper).

Figure 4a plots the run time of the decomposition algorithm over TGFF-style
task graphs (largest: an 18-node automotive benchmark, 0.3 s in the authors'
Matlab/C++ setup); Figure 4b plots the average run time over more than sixty
Pajek-generated random graphs of 10-40 nodes (under 3 minutes at 40 nodes).

Absolute run times obviously depend on the host and on the pure-Python VF2
implementation, so the reproduction criterion is the *shape*: run time grows
superlinearly with graph size, small task graphs finish in fractions of a
second, and the largest random graphs remain tractable (seconds to minutes).

Sweeps run one graph at a time: the figure plots wall time per graph, and
graphs decomposed side by side would time their contention for the cores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import mean
from collections.abc import Iterable, Sequence

from repro.core.cost import CostModel, LinkCountCostModel
from repro.core.decomposition import DecompositionConfig, decompose
from repro.core.graph import ApplicationGraph
from repro.core.library import CommunicationLibrary, default_library
from repro.experiments.reporting import format_table
from repro.workloads.pajek import pajek_benchmark_suite
from repro.workloads.tgff import tgff_benchmark_suite


@dataclass(frozen=True)
class RuntimePoint:
    """One decomposition run: graph size vs. wall-clock time."""

    name: str
    num_nodes: int
    num_edges: int
    runtime_seconds: float
    total_cost: float
    num_matchings: int
    remainder_edges: int
    covered_fraction: float
    search_statistics: dict = field(default_factory=dict)
    """The decomposition's :class:`SearchStatistics` as a plain dict, so the
    benchmarks can report cache-hit and transposition counters per sweep."""

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "runtime_s": self.runtime_seconds,
            "cost": self.total_cost,
            "matchings": self.num_matchings,
            "remainder_edges": self.remainder_edges,
            "covered_fraction": self.covered_fraction,
        }


@dataclass
class RuntimeSweepResult:
    """All runs of one sweep plus aggregation helpers."""

    points: list[RuntimePoint] = field(default_factory=list)

    def by_size(self) -> dict[int, list[RuntimePoint]]:
        grouped: dict[int, list[RuntimePoint]] = {}
        for point in self.points:
            grouped.setdefault(point.num_nodes, []).append(point)
        return grouped

    def average_runtime_by_size(self) -> list[tuple[int, float]]:
        """The Figure-4 series: (graph size, average run time)."""
        return [
            (size, mean(point.runtime_seconds for point in points))
            for size, points in sorted(self.by_size().items())
        ]

    def max_runtime(self) -> float:
        return max((point.runtime_seconds for point in self.points), default=0.0)

    def total_statistic(self, key: str) -> int:
        """Sum one :class:`SearchStatistics` counter over all points."""
        return int(sum(point.search_statistics.get(key, 0) for point in self.points))

    def cache_summary(self) -> dict[str, int]:
        """Aggregate cache/transposition counters for the whole sweep."""
        return {
            "matchings_tried": self.total_statistic("matchings_tried"),
            "matchings_enumerated": self.total_statistic("matchings_enumerated"),
            "matching_cache_hits": self.total_statistic("matching_cache_hits"),
            "matching_cache_misses": self.total_statistic("matching_cache_misses"),
            "transposition_hits": self.total_statistic("transposition_hits"),
        }

    def to_rows(self) -> list[dict[str, object]]:
        return [point.as_dict() for point in self.points]

    def describe(self, title: str) -> str:
        rows = [
            {"nodes": size, "avg_runtime_s": runtime, "instances": len(self.by_size()[size])}
            for size, runtime in self.average_runtime_by_size()
        ]
        return format_table(rows, title=title)


def _run_point(
    name: str,
    acg: ApplicationGraph,
    library: CommunicationLibrary,
    cost_model: CostModel,
    config: DecompositionConfig,
) -> RuntimePoint:
    """Decompose one graph and package the measurement."""
    start = time.perf_counter()
    decomposition = decompose(acg, library, cost_model=cost_model, config=config)
    runtime = time.perf_counter() - start
    return RuntimePoint(
        name=name,
        num_nodes=acg.num_nodes,
        num_edges=acg.num_edges,
        runtime_seconds=runtime,
        total_cost=decomposition.total_cost,
        num_matchings=decomposition.num_matchings,
        remainder_edges=decomposition.remainder.num_edges,
        covered_fraction=decomposition.covered_edge_fraction(),
        search_statistics=decomposition.statistics.as_dict(),
    )


def run_sweep(
    named_graphs: Iterable[tuple[str, ApplicationGraph]],
    library: CommunicationLibrary | None = None,
    cost_model: CostModel | None = None,
    config: DecompositionConfig | None = None,
) -> RuntimeSweepResult:
    """Decompose every graph, in order, and collect one :class:`RuntimePoint` each."""
    library = library or default_library()
    cost_model = cost_model or LinkCountCostModel()
    config = config or default_sweep_config()
    return RuntimeSweepResult(
        points=[_run_point(name, acg, library, cost_model, config) for name, acg in named_graphs]
    )


def default_sweep_config() -> DecompositionConfig:
    """Search configuration used by the runtime sweeps.

    Counter budgets bound the work per graph: the node cap bounds the
    branch-and-bound on large unstructured graphs while keeping the per-node
    cost (and therefore the size-dependent growth of the curve) intact.
    Graphs that exhaust a budget still return their best-found decomposition
    and are flagged as truncated in the statistics, identically on any host.
    """
    return DecompositionConfig(
        max_matchings_per_primitive=3,
        max_leaves=2000,
        max_nodes_expanded=400,
    )


def run_tgff_runtime_sweep(
    sizes: Sequence[int] = (5, 8, 10, 12, 15, 18),
    library: CommunicationLibrary | None = None,
    config: DecompositionConfig | None = None,
    seed: int = 7,
) -> RuntimeSweepResult:
    """Figure 4a: run time over TGFF-style task graphs up to the 18-node case."""
    named = [
        (task_graph.name, task_graph.to_acg())
        for task_graph in tgff_benchmark_suite(sizes=sizes, seed=seed)
    ]
    return run_sweep(
        named,
        library=library,
        cost_model=LinkCountCostModel(),
        config=config,
    )


def run_pajek_runtime_sweep(
    sizes: Sequence[int] = (10, 15, 20, 25, 30, 35, 40),
    instances_per_size: int = 3,
    edge_density: float = 0.12,
    library: CommunicationLibrary | None = None,
    config: DecompositionConfig | None = None,
    seed: int = 11,
) -> RuntimeSweepResult:
    """Figure 4b: average run time over Pajek-style random graphs (10-40 nodes)."""
    named = [
        (acg.name, acg)
        for acg in pajek_benchmark_suite(
            sizes=sizes,
            instances_per_size=instances_per_size,
            edge_density=edge_density,
            seed=seed,
        )
    ]
    return run_sweep(
        named,
        library=library,
        cost_model=LinkCountCostModel(),
        config=config,
    )

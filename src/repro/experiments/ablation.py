"""Ablation studies for the design choices listed in docs/paper-mapping.md.

Two questions the paper leaves implicit are answered quantitatively here:

1. **What does the branch-and-bound search buy over a greedy first-fit
   cover?**  (Section 4.4 motivates the bound; the ablation measures the
   cost gap and the run-time price on a set of ACGs.)
2. **How sensitive is the result to the library content?**  (Section 3
   argues for small primitives with efficient 2-D implementations; the
   ablation decomposes the same ACGs with a minimal, the default and an
   extended library.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.cost import CostModel, LinkCountCostModel
from repro.core.decomposition import (
    DecompositionConfig,
    SearchStrategy,
    decompose,
)
from repro.core.graph import ApplicationGraph
from repro.core.library import (
    CommunicationLibrary,
    default_library,
    extended_library,
    minimal_library,
)
from repro.experiments.reporting import format_table
from repro.aes.acg import build_aes_acg
from repro.workloads.random_acg import figure5_example_acg, random_decomposable_acg


#: node budget of every ablation search: a counter, so the ablation
#: reproduces on any host (AES-16 with ``minimal_library()`` reaches
#: cost 52 at 2,000 nodes, as a search of ~38.7k nodes does)
ABLATION_NODE_BUDGET = 2_000

#: explicit seed for the random ablation ACG — threaded (never defaulted) so
#: the ablation inputs are bit-identical across processes and sessions
STANDARD_ABLATION_SEED = 3


def standard_ablation_acgs(seed: int = STANDARD_ABLATION_SEED) -> list[ApplicationGraph]:
    """The ACGs every ablation runs on: AES, the Figure-5 example, one random."""
    return [
        build_aes_acg(),
        figure5_example_acg(),
        random_decomposable_acg(num_nodes=10, seed=seed),
    ]


@dataclass(frozen=True)
class AblationRow:
    """One (ACG, configuration) measurement."""

    acg_name: str
    configuration: str
    total_cost: float
    num_matchings: int
    remainder_edges: int
    covered_fraction: float
    runtime_seconds: float

    def as_dict(self) -> dict[str, object]:
        return {
            "acg": self.acg_name,
            "configuration": self.configuration,
            "cost": self.total_cost,
            "matchings": self.num_matchings,
            "remainder_edges": self.remainder_edges,
            "covered_fraction": self.covered_fraction,
            "runtime_s": self.runtime_seconds,
        }


@dataclass
class AblationResult:
    rows: list[AblationRow] = field(default_factory=list)

    def to_rows(self) -> list[dict[str, object]]:
        return [row.as_dict() for row in self.rows]

    def describe(self, title: str) -> str:
        return format_table(self.to_rows(), title=title)

    def cost_of(self, acg_name: str, configuration: str) -> float:
        for row in self.rows:
            if row.acg_name == acg_name and row.configuration == configuration:
                return row.total_cost
        raise KeyError(f"no ablation row for ({acg_name!r}, {configuration!r})")


def _measure(
    acg: ApplicationGraph,
    library: CommunicationLibrary,
    configuration: str,
    strategy: SearchStrategy,
    cost_model: CostModel,
) -> AblationRow:
    config = DecompositionConfig(
        strategy=strategy,
        max_matchings_per_primitive=4,
        max_nodes_expanded=ABLATION_NODE_BUDGET,
    )
    start = time.perf_counter()
    result = decompose(acg, library, cost_model=cost_model, config=config)
    runtime = time.perf_counter() - start
    return AblationRow(
        acg_name=acg.name,
        configuration=configuration,
        total_cost=result.total_cost,
        num_matchings=result.num_matchings,
        remainder_edges=result.remainder.num_edges,
        covered_fraction=result.covered_edge_fraction(),
        runtime_seconds=runtime,
    )


def run_strategy_ablation(acgs: Sequence[ApplicationGraph] | None = None) -> AblationResult:
    """Branch-and-bound vs. greedy first-fit on the same library and cost model."""
    acgs = list(acgs) if acgs is not None else standard_ablation_acgs()
    library = default_library()
    result = AblationResult()
    for acg in acgs:
        result.rows.append(
            _measure(
                acg,
                library,
                "branch_and_bound",
                SearchStrategy.BRANCH_AND_BOUND,
                LinkCountCostModel(),
            )
        )
        result.rows.append(
            _measure(
                acg,
                library,
                "greedy",
                SearchStrategy.GREEDY,
                LinkCountCostModel(),
            )
        )
    return result


def run_library_ablation(acgs: Sequence[ApplicationGraph] | None = None) -> AblationResult:
    """Minimal vs. default vs. extended library content on the same ACGs."""
    acgs = list(acgs) if acgs is not None else standard_ablation_acgs()
    libraries = {
        "minimal_library": minimal_library(),
        "default_library": default_library(),
        "extended_library": extended_library(),
    }
    result = AblationResult()
    for acg in acgs:
        for label, library in libraries.items():
            result.rows.append(
                _measure(
                    acg,
                    library,
                    label,
                    SearchStrategy.BRANCH_AND_BOUND,
                    LinkCountCostModel(),
                )
            )
    return result

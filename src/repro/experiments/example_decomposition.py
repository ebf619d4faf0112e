"""The illustrative decomposition of Section 5.1 / Figure 5.

The paper shows a randomly generated 8-node ACG whose communication patterns
"are not easily detectable by eye inspection", which the algorithm
decomposes in under 0.1 s into

    1: MGG4
    3: G1to3   (three instances)
    2: G1to4

with no remaining graph.  The exact adjacency of the paper's instance is not
published; :func:`run_figure5_example` therefore uses the reconstruction in
:func:`repro.workloads.random_acg.figure5_example_acg`, which contains
exactly that primitive content, and checks that the decomposition engine
recovers it (one gossip-4, three one-to-three broadcasts, one one-to-four
broadcast, empty remainder).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.cost import LinkCountCostModel
from repro.core.decomposition import DecompositionConfig, DecompositionResult, decompose
from repro.core.library import CommunicationLibrary, default_library
from repro.workloads.random_acg import figure5_example_acg

#: the primitive multiset the paper's listing reports for the Figure-5 example
EXPECTED_PRIMITIVE_COUNTS = {"MGG4": 1, "G1to3": 3, "G1to4": 1}


@dataclass
class Figure5Result:
    """Outcome of the Figure-5 illustrative decomposition."""

    decomposition: DecompositionResult
    runtime_seconds: float

    @property
    def primitive_counts(self) -> dict[str, int]:
        return self.decomposition.primitives_used()

    @property
    def matches_paper_listing(self) -> bool:
        """True when the primitive multiset and the empty remainder match the paper."""
        return (
            self.primitive_counts == EXPECTED_PRIMITIVE_COUNTS
            and self.decomposition.remainder.num_edges == 0
        )

    def describe(self) -> str:
        lines = [
            "Figure 5 — illustrative decomposition of a random 8-node ACG",
            f"runtime: {self.runtime_seconds:.3f} s",
            self.decomposition.describe(),
            f"primitive counts: {self.primitive_counts}",
            f"matches paper listing (1x MGG4 + 3x G1to3 + 1x G1to4, no remainder): "
            f"{self.matches_paper_listing}",
        ]
        return "\n".join(lines)


def run_figure5_example(
    library: CommunicationLibrary | None = None,
    config: DecompositionConfig | None = None,
) -> Figure5Result:
    """Decompose the reconstructed Figure-5 ACG and time it."""
    library = library or default_library()
    config = config or DecompositionConfig(max_matchings_per_primitive=4)
    acg = figure5_example_acg()
    start = time.perf_counter()
    decomposition = decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
    runtime = time.perf_counter() - start
    return Figure5Result(decomposition=decomposition, runtime_seconds=runtime)

"""Figure 5 / Section 5.1 example — decomposition of a random 8-node ACG.

Paper: the ACG decomposes in under 0.1 s into one MGG4, three one-to-three
broadcasts and one one-to-four broadcast with no remaining graph.  The
benchmark regenerates that listing and checks the primitive multiset and the
empty remainder.
"""

from __future__ import annotations

from repro.experiments.example_decomposition import (
    EXPECTED_PRIMITIVE_COUNTS,
    run_figure5_example,
)


def test_fig5_example_decomposition(benchmark):
    result = benchmark(run_figure5_example)
    print()
    print(result.decomposition.describe())
    print(f"primitive counts: {result.primitive_counts}")

    assert result.matches_paper_listing
    assert result.primitive_counts == EXPECTED_PRIMITIVE_COUNTS
    assert result.decomposition.remainder.num_edges == 0
    # the paper reports < 0.1 s on its setup; allow a generous budget here
    assert result.runtime_seconds < 5.0

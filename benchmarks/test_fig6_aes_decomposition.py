"""Figure 6 + Section 5.2 decomposition listing — distributed AES.

Paper (COST: 28):

    1: MGG4,  Mapping: (1 1), (2 5), (3 9), (4 13)      <- column 1
    1: MGG4,  Mapping: (1 2), (2 6), (3 10), (4 14)     <- column 2
    1: MGG4,  Mapping: (1 3), (2 7), (3 11), (4 15)     <- column 3
    1: MGG4,  Mapping: (1 4), (2 8), (3 12), (4 16)     <- column 4
    2: L4     second row
    2: L4     fourth row
    0: Remaining Graph                                  <- third row

found in 0.58 s; the synthesized customized architecture is Figure 6b.
The benchmark regenerates the decomposition + synthesis and checks every
structural property of that listing.
"""

from __future__ import annotations

from repro.aes.distributed import column_nodes, row_nodes
from repro.experiments.aes_experiment import (
    PAPER_AES_COST,
    PAPER_AES_PRIMITIVES,
    run_aes_synthesis,
)


def test_fig6_aes_decomposition_and_synthesis(benchmark):
    result = benchmark.pedantic(run_aes_synthesis, rounds=1, iterations=1)
    print()
    print(result.decomposition.describe())
    print(f"decomposition runtime: {result.runtime_seconds:.3f} s (paper: 0.58 s)")

    # decomposition listing
    assert result.decomposition.total_cost == PAPER_AES_COST
    assert result.primitive_counts == PAPER_AES_PRIMITIVES
    assert result.columns_mapped_to_gossip
    assert result.shift_rows_mapped_to_loops
    assert result.decomposition.remainder.num_edges == 4
    remainder_nodes = {
        node for edge in result.decomposition.remainder.edges() for node in edge
    }
    assert remainder_nodes == set(row_nodes(2))  # the paper's "third row"
    assert result.matches_paper

    # Figure 6b: the synthesized architecture
    topology = result.architecture.topology
    assert topology.num_routers == 16
    for column in range(4):
        ring_links = {
            frozenset((a, b))
            for a in column_nodes(column)
            for b in column_nodes(column)
            if a != b and topology.has_channel(a, b)
        }
        assert len(ring_links) == 4  # each column implemented as an MGG-4 ring
    assert result.architecture.is_feasible


def test_fig6_decomposition_runtime(benchmark, aes_synthesis_session):
    """Benchmark only the decomposition search (the paper's 0.58 s figure)."""
    from repro.core.cost import LinkCountCostModel
    from repro.core.decomposition import DecompositionConfig, decompose
    from repro.core.library import aes_library

    acg = aes_synthesis_session.acg
    library = aes_library()
    config = DecompositionConfig(max_matchings_per_primitive=4)

    result = benchmark(
        lambda: decompose(acg, library, cost_model=LinkCountCostModel(), config=config)
    )
    assert result.total_cost == PAPER_AES_COST

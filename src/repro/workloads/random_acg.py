"""Curated random ACGs used by the illustrative experiments.

The Figure-5 example of the paper shows a randomly generated 8-node ACG
whose communication patterns "are not easily detectable by eye inspection"
yet decompose into one MGG-4, three one-to-three broadcasts and one
one-to-four broadcast with no remainder.  :func:`figure5_example_acg`
reconstructs an ACG with exactly that primitive content (the paper does not
publish the exact adjacency, so the instance is rebuilt from its published
decomposition).

:func:`degree_sequence_acg` and :func:`scale_free_acg` generate random ACGs
with a *controlled out-degree sequence* (cf. the scale-free degree-sequence
literature): the sequence itself is deterministic and only the wiring uses
the mandatory explicit ``seed``, so two processes given the same arguments
always produce byte-identical graphs — a requirement for the stable
content-hash cache keys of the batch design-space exploration.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.workloads.pajek import planted_primitive_acg


def figure5_example_acg(volume_bits: int = 64) -> ApplicationGraph:
    """An 8-node ACG that decomposes into 1x MGG4 + 3x G1to3 + 1x G1to4.

    The construction mirrors the decomposition listing printed in
    Section 5.1: a gossip clique over nodes {1, 2, 5, 6}, broadcast stars
    rooted at 3, 7 and 4, and a broadcast from node 8 to four receivers.
    All planted patterns overlap on shared nodes, which is what makes the
    pattern hard to spot by eye in the paper's figure.
    """
    acg = ApplicationGraph(name="figure5_example")
    for node in range(1, 9):
        acg.add_node(node, exist_ok=True)

    def add(source: int, target: int) -> None:
        if not acg.has_edge(source, target):
            acg.add_communication(source, target, volume=volume_bits)

    # 1: MGG4 over {1, 2, 5, 6}
    for source in (1, 2, 5, 6):
        for target in (1, 2, 5, 6):
            if source != target:
                add(source, target)
    # 3: G1to3 rooted at 3 -> {2, 5, 6}
    for receiver in (2, 5, 6):
        add(3, receiver)
    # 3: G1to3 rooted at 7 -> {3, 5, 6}
    for receiver in (3, 5, 6):
        add(7, receiver)
    # 2: G1to4 rooted at 8 -> {1, 3, 6, 7}
    for receiver in (1, 3, 6, 7):
        add(8, receiver)
    # 3: G1to3 rooted at 4 -> {5, 6, 7}
    for receiver in (5, 6, 7):
        add(4, receiver)
    return acg


def random_decomposable_acg(
    num_nodes: int = 12, seed: int = 0, volume_bits: int = 64
) -> ApplicationGraph:
    """A larger random ACG guaranteed to contain library primitives."""
    return planted_primitive_acg(
        num_nodes=num_nodes,
        num_gossip=1,
        num_broadcast=3,
        num_loops=1,
        noise_edges=2,
        volume_bits=volume_bits,
        seed=seed,
        name=f"decomposable_{num_nodes}_{seed}",
    )


def degree_sequence_acg(
    out_degrees: Sequence[int],
    *,
    seed: int,
    min_volume_bits: int = 32,
    max_volume_bits: int = 256,
    name: str | None = None,
) -> ApplicationGraph:
    """Random directed ACG with exactly the given out-degree sequence.

    Node ``i`` (1-based) gets ``out_degrees[i-1]`` distinct non-self targets
    chosen uniformly at random; edge volumes are uniform in the given range.
    ``seed`` is keyword-only and has **no default**: the DSE result cache
    keys runs by content, so every call site must state its seed explicitly
    instead of silently sharing a default-seeded generator.
    """
    num_nodes = len(out_degrees)
    if num_nodes < 2:
        raise WorkloadError("a degree-sequence ACG needs at least two nodes")
    if any(degree < 0 for degree in out_degrees):
        raise WorkloadError("out-degrees must be non-negative")
    if max(out_degrees) > num_nodes - 1:
        raise WorkloadError("an out-degree exceeds the number of possible targets")
    if min_volume_bits <= 0 or max_volume_bits < min_volume_bits:
        raise WorkloadError("invalid volume range")
    rng = random.Random(seed)
    acg = ApplicationGraph(name=name or f"degseq_{num_nodes}_{seed}")
    nodes = list(range(1, num_nodes + 1))
    for node in nodes:
        acg.add_node(node, exist_ok=True)
    for node, degree in zip(nodes, out_degrees):
        candidates = [target for target in nodes if target != node]
        for target in rng.sample(candidates, degree):
            acg.add_communication(
                node, target, volume=rng.randint(min_volume_bits, max_volume_bits)
            )
    return acg


def power_law_out_degrees(
    num_nodes: int, exponent: float = 2.0, max_out_degree: int | None = None
) -> list[int]:
    """A deterministic power-law-shaped out-degree sequence.

    Degrees follow the inverse-CDF of ``P(k) ~ k^-exponent`` sampled at the
    rank quantiles, which gives the few-hubs-many-leaves shape of scale-free
    communication graphs without any randomness (the randomness lives only
    in the wiring, keyed by the explicit seed of :func:`degree_sequence_acg`).
    """
    if num_nodes < 2:
        raise WorkloadError("a degree sequence needs at least two nodes")
    if exponent <= 1.0:
        raise WorkloadError("the power-law exponent must exceed 1")
    cap = max_out_degree if max_out_degree is not None else num_nodes - 1
    cap = min(cap, num_nodes - 1)
    if cap < 1:
        raise WorkloadError("max_out_degree must allow at least one edge")
    degrees = []
    for rank in range(1, num_nodes + 1):
        # rank 1 is the biggest hub; the tail flattens to degree 1
        degree = round(cap * rank ** (-1.0 / (exponent - 1.0)))
        degrees.append(max(1, min(cap, degree)))
    return degrees


def scale_free_acg(
    num_nodes: int,
    *,
    seed: int,
    exponent: float = 2.0,
    max_out_degree: int | None = None,
    min_volume_bits: int = 32,
    max_volume_bits: int = 256,
    name: str | None = None,
) -> ApplicationGraph:
    """Random ACG with a power-law (scale-free) out-degree sequence."""
    degrees = power_law_out_degrees(
        num_nodes, exponent=exponent, max_out_degree=max_out_degree
    )
    return degree_sequence_acg(
        degrees,
        seed=seed,
        min_volume_bits=min_volume_bits,
        max_volume_bits=max_volume_bits,
        name=name or f"scalefree_{num_nodes}_{seed}",
    )

"""Pajek-style random graphs.

The paper's second runtime experiment (Figure 4b) uses "more than 60 larger
graphs generated by Pajek" with up to 40 nodes.  Pajek is an interactive
network-analysis tool; what matters for the reproduction is a generator of
random directed graphs in the same size range.  The ``.net`` file format
itself is one of the interchange formats of :mod:`repro.io`.

Two generators are provided:

* :func:`erdos_renyi_acg` — classic G(n, p) directed random graphs;
* :func:`planted_primitive_acg` — random graphs assembled from randomly
  placed communication primitives (gossip cliques, broadcast stars, loops)
  plus optional noise edges.  These are representative of real applications
  (which *do* contain such patterns — that is the paper's premise) and are
  used for the Figure-5 style illustrative decompositions.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def erdos_renyi_acg(
    num_nodes: int,
    edge_probability: float,
    seed: int = 0,
    min_volume_bits: int = 32,
    max_volume_bits: int = 512,
    name: str | None = None,
) -> ApplicationGraph:
    """Directed G(n, p) random ACG with uniform random volumes."""
    if num_nodes < 2:
        raise WorkloadError("a random ACG needs at least two nodes")
    if not 0.0 <= edge_probability <= 1.0:
        raise WorkloadError("edge probability must be within [0, 1]")
    if min_volume_bits <= 0 or max_volume_bits < min_volume_bits:
        raise WorkloadError("invalid volume range")
    rng = random.Random(seed)
    acg = ApplicationGraph(name=name or f"er_{num_nodes}_{seed}")
    for node in range(1, num_nodes + 1):
        acg.add_node(node, exist_ok=True)
    for source in range(1, num_nodes + 1):
        for target in range(1, num_nodes + 1):
            if source == target:
                continue
            if rng.random() < edge_probability:
                acg.add_communication(
                    source,
                    target,
                    volume=rng.randint(min_volume_bits, max_volume_bits),
                )
    return acg


def planted_primitive_acg(
    num_nodes: int,
    num_gossip: int = 1,
    num_broadcast: int = 2,
    num_loops: int = 0,
    noise_edges: int = 0,
    gossip_size: int = 4,
    broadcast_receivers: int = 3,
    loop_size: int = 4,
    volume_bits: int = 64,
    seed: int = 0,
    name: str | None = None,
) -> ApplicationGraph:
    """Random ACG built by overlaying communication primitives on random nodes.

    Every planted primitive picks its participant nodes at random (with
    replacement across primitives, so primitives overlap the way the paper's
    Figure-5 example does) and contributes its requirement edges; optional
    uniformly random noise edges are added on top.
    """
    if num_nodes < max(gossip_size, broadcast_receivers + 1, loop_size, 2):
        raise WorkloadError("num_nodes is too small for the requested primitives")
    rng = random.Random(seed)
    acg = ApplicationGraph(name=name or f"planted_{num_nodes}_{seed}")
    nodes = list(range(1, num_nodes + 1))
    for node in nodes:
        acg.add_node(node, exist_ok=True)

    def add_edge(source: int, target: int) -> None:
        if source != target and not acg.has_edge(source, target):
            acg.add_communication(source, target, volume=volume_bits)

    for _ in range(num_gossip):
        members = rng.sample(nodes, gossip_size)
        for source in members:
            for target in members:
                add_edge(source, target)
    for _ in range(num_broadcast):
        members = rng.sample(nodes, broadcast_receivers + 1)
        root = members[0]
        for receiver in members[1:]:
            add_edge(root, receiver)
    for _ in range(num_loops):
        members = rng.sample(nodes, loop_size)
        for source, target in zip(members, members[1:] + members[:1]):
            add_edge(source, target)
    for _ in range(noise_edges):
        source, target = rng.sample(nodes, 2)
        add_edge(source, target)
    return acg


def pajek_benchmark_suite(
    sizes: Sequence[int] = (10, 15, 20, 25, 30, 35, 40),
    instances_per_size: int = 3,
    edge_density: float = 0.12,
    seed: int = 11,
    style: str = "planted",
) -> list[ApplicationGraph]:
    """A family of random graphs spanning the Figure-4b size range.

    The paper uses more than 60 instances; the default suite is smaller so
    the benchmark finishes in CI, but the per-size count is a parameter and
    the full-size sweep is a one-line change.

    ``style`` selects the generator: ``"planted"`` (default) builds graphs
    out of randomly placed communication primitives plus noise edges —
    representative of application-like traffic and of the paper's premise
    that such patterns occur in real workloads — while ``"erdos_renyi"``
    produces unstructured G(n, p) graphs, which are the worst case for the
    decomposition (Section 5.1 notes the run time degrades when the input
    contains no library patterns).
    """
    if style not in ("planted", "erdos_renyi"):
        raise WorkloadError(f"unknown Pajek suite style {style!r}")
    suite: list[ApplicationGraph] = []
    for size in sizes:
        for instance in range(instances_per_size):
            instance_seed = seed + size * 100 + instance
            if style == "erdos_renyi":
                suite.append(
                    erdos_renyi_acg(
                        size,
                        edge_probability=edge_density,
                        seed=instance_seed,
                        name=f"pajek_er_{size}_{instance}",
                    )
                )
            else:
                suite.append(
                    planted_primitive_acg(
                        num_nodes=size,
                        num_gossip=max(1, size // 10),
                        num_broadcast=max(2, size // 8),
                        num_loops=max(1, size // 12),
                        noise_edges=max(2, int(edge_density * size)),
                        seed=instance_seed,
                        name=f"pajek_{size}_{instance}",
                    )
                )
    return suite

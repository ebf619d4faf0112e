"""Workload generators: TGFF-like task graphs, Pajek-like random graphs,
published embedded-benchmark ACGs, curated example ACGs and conversion
helpers."""

from repro.workloads.acg_builder import acg_from_task_graph, attach_grid_floorplan
from repro.workloads.benchmarks import (
    embedded_benchmark_acg,
    embedded_benchmark_names,
    embedded_benchmark_suite,
)
from repro.workloads.pajek import erdos_renyi_acg, pajek_benchmark_suite, planted_primitive_acg
from repro.workloads.random_acg import (
    degree_sequence_acg,
    figure2_example_graph,
    figure5_example_acg,
    power_law_out_degrees,
    random_decomposable_acg,
    scale_free_acg,
)
from repro.workloads.tgff import (
    TaskGraph,
    TgffParameters,
    automotive_benchmark,
    generate_tgff_task_graph,
    tgff_benchmark_suite,
)

__all__ = [
    "TaskGraph",
    "TgffParameters",
    "generate_tgff_task_graph",
    "automotive_benchmark",
    "tgff_benchmark_suite",
    "erdos_renyi_acg",
    "planted_primitive_acg",
    "pajek_benchmark_suite",
    "figure5_example_acg",
    "figure2_example_graph",
    "random_decomposable_acg",
    "degree_sequence_acg",
    "power_law_out_degrees",
    "scale_free_acg",
    "embedded_benchmark_acg",
    "embedded_benchmark_names",
    "embedded_benchmark_suite",
    "acg_from_task_graph",
    "attach_grid_floorplan",
]

"""Scenario suites: named, parameterized workload collections for sweeps.

A *suite* bundles scenarios (workload + traffic mode) with the default
grid axes and base settings a sweep over them should use.  Built-in
suites cover the paper's AES case study, the published embedded
benchmarks (:mod:`repro.workloads.benchmarks`), TGFF/Pajek-style
generated graphs, degree-sequence-controlled random ACGs and a
cross-fabric baseline sweep (``fabrics``: topology families x routing
policies over the :mod:`repro.arch.families` registry).  Every
random scenario passes its seed *explicitly* and records it in
``Scenario.params`` so the content-hash cache key is stable across
processes and sessions.

Custom suites register via :func:`register_suite`; scenario factories
run lazily so listing suites stays cheap.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.aes.acg import build_aes_acg
from repro.core.graph import ApplicationGraph
from repro.dse.pipeline import TRAFFIC_AES_PHASES, EvaluationSettings, Scenario
from repro.plugins.registry import Registry
from repro.workloads.acg_builder import attach_grid_floorplan
from repro.workloads.benchmarks import embedded_benchmark_acg, embedded_benchmark_names
from repro.workloads.pajek import erdos_renyi_acg, planted_primitive_acg
from repro.workloads.random_acg import scale_free_acg
from repro.workloads.tgff import TgffParameters, generate_tgff_task_graph


# ----------------------------------------------------------------------
# scenario builders
# ----------------------------------------------------------------------
def aes_scenario(blocks: int = 1) -> Scenario:
    """The paper's Section-5.2 AES case study (dependency-aware phases).

    Pins the compact AES library and full-duplex links — the synthesis
    configuration the paper's customized architecture uses — while leaving
    simulator knobs (pipeline depth, buffering) to the grid.
    """
    return Scenario(
        name="aes",
        acg=build_aes_acg(blocks=1),
        traffic=TRAFFIC_AES_PHASES,
        aes_blocks=blocks,
        computation_cycles_per_phase=4,
        description="distributed AES-128, 16 byte-slice cores (paper Section 5.2)",
        params={"blocks": blocks},
        settings_overrides={
            "library": "aes",
            "bidirectional_links": True,
            "max_matchings_per_primitive": 4,
            "max_nodes_expanded": None,
        },
    )


def embedded_scenario(benchmark: str, repetitions: int = 1) -> Scenario:
    """One published embedded-benchmark ACG under batch traffic."""
    return Scenario(
        name=benchmark,
        acg=embedded_benchmark_acg(benchmark),
        repetitions=repetitions,
        description=f"published embedded benchmark {benchmark!r}",
        params={"benchmark": benchmark, "repetitions": repetitions},
    )


def tgff_scenario(num_tasks: int, seed: int) -> Scenario:
    """A TGFF-style task graph mapped one task per core."""
    task_graph = generate_tgff_task_graph(TgffParameters(num_tasks=num_tasks, seed=seed))
    acg = task_graph.to_acg()
    attach_grid_floorplan(acg)
    return Scenario(
        name=f"tgff_{num_tasks}_s{seed}",
        acg=acg,
        description=f"TGFF-style task graph, {num_tasks} tasks, seed {seed}",
        params={"generator": "tgff", "num_tasks": num_tasks, "seed": seed},
    )


def planted_scenario(num_nodes: int, seed: int) -> Scenario:
    """A Pajek-style random ACG assembled from planted primitives."""
    acg = planted_primitive_acg(
        num_nodes=num_nodes,
        num_gossip=max(1, num_nodes // 10),
        num_broadcast=max(2, num_nodes // 8),
        num_loops=max(1, num_nodes // 12),
        noise_edges=2,
        seed=seed,
    )
    attach_grid_floorplan(acg)
    return Scenario(
        name=f"planted_{num_nodes}_s{seed}",
        acg=acg,
        description=f"planted-primitive random ACG, {num_nodes} nodes, seed {seed}",
        params={"generator": "planted", "num_nodes": num_nodes, "seed": seed},
    )


def erdos_renyi_scenario(num_nodes: int, edge_probability: float, seed: int) -> Scenario:
    """An unstructured G(n, p) ACG — the decomposition's worst case."""
    acg = erdos_renyi_acg(num_nodes, edge_probability, seed=seed)
    attach_grid_floorplan(acg)
    return Scenario(
        name=f"er_{num_nodes}_p{edge_probability:g}_s{seed}",
        acg=acg,
        description=f"Erdos-Renyi ACG, {num_nodes} nodes, p={edge_probability:g}, seed {seed}",
        params={
            "generator": "erdos_renyi",
            "num_nodes": num_nodes,
            "edge_probability": edge_probability,
            "seed": seed,
        },
    )


def scale_free_scenario(num_nodes: int, seed: int, exponent: float = 2.0) -> Scenario:
    """A degree-sequence-controlled (power-law) random ACG."""
    acg = scale_free_acg(num_nodes, seed=seed, exponent=exponent, max_out_degree=4)
    attach_grid_floorplan(acg)
    return Scenario(
        name=f"scalefree_{num_nodes}_s{seed}",
        acg=acg,
        description=(
            f"scale-free degree-sequence ACG, {num_nodes} nodes, "
            f"exponent {exponent:g}, seed {seed}"
        ),
        params={
            "generator": "scale_free",
            "num_nodes": num_nodes,
            "exponent": exponent,
            "seed": seed,
        },
    )


# ----------------------------------------------------------------------
# suite registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteSpec:
    """A named scenario suite plus its default sweep grid."""

    name: str
    description: str
    factory: Callable[[], list[Scenario]]
    default_axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    base_settings: EvaluationSettings = field(default_factory=EvaluationSettings)

    def build(self) -> list[Scenario]:
        """Materialize the suite's scenarios (factories run lazily)."""
        return self.factory()


#: the scenario-suite registry: one :class:`repro.plugins.Registry` cell
#: of the plugin fabric (third-party suites register here, directly or
#: through the ``repro.plugins`` entry-point group)
SUITES: Registry[SuiteSpec] = Registry("scenario suite")

#: suite-name prefix that loads a workload file instead of a registered
#: suite: ``file:path/to/graph.net`` (any :mod:`repro.io` format)
FILE_SUITE_PREFIX = "file:"


def register_suite(spec: SuiteSpec) -> SuiteSpec:
    """Register (or replace) a suite under its name."""
    return SUITES.register(spec.name, spec)


def suite_names() -> list[str]:
    """All registered suite names, sorted (after plugin discovery)."""
    return SUITES.names()


def get_suite(name: str) -> SuiteSpec:
    """Look a suite up by name.

    Raises :class:`~repro.exceptions.UnknownPluginError` (a
    :class:`~repro.exceptions.ConfigurationError`) listing the available
    suites and the nearest match when the name is unknown.
    """
    return SUITES.get(name)


def resolve_suite(name: str) -> SuiteSpec:
    """A suite by registered name, or from a workload file via ``file:``.

    ``resolve_suite("smoke")`` is :func:`get_suite`;
    ``resolve_suite("file:acg.net")`` builds a one-scenario suite around
    :func:`file_scenario` — the CLI accepts both everywhere a suite name
    is taken.
    """
    if name.startswith(FILE_SUITE_PREFIX):
        return file_suite(name[len(FILE_SUITE_PREFIX) :])
    return get_suite(name)


def file_scenario(
    path: str | Path, fmt: str | None = None, name: str | None = None
) -> Scenario:
    """One scenario around an imported workload file (any supported format).

    The graph is read through :func:`repro.io.read_workload` (format
    detected from the extension unless ``fmt`` pins it); cores without
    floorplan positions get the deterministic grid floorplan every
    generated scenario uses.  Cache identity comes from the graph content
    (the structural fingerprint), never from the file path, so moving or
    renaming the file does not invalidate cached sweep cells.
    """
    from repro.io import read_workload

    path = Path(path)
    acg = read_workload(path, fmt=fmt, name=name)
    if not all(acg.has_position(node) for node in acg.nodes()):
        attach_grid_floorplan(acg)
    return Scenario(
        name=name or path.stem,
        acg=acg,
        description=f"imported workload ({path.name})",
        params={"origin": "file"},
    )


def file_suite(path: str | Path, fmt: str | None = None) -> SuiteSpec:
    """A one-scenario suite over an imported workload file.

    The default grid mirrors the ``smoke`` suite's architecture axis
    (mesh baseline vs custom synthesis) so ``python -m repro.dse run
    --suite file:acg.net`` compares both out of the box.
    """
    scenario = file_scenario(path, fmt=fmt)
    return SuiteSpec(
        name=f"{FILE_SUITE_PREFIX}{path}",
        description=f"imported workload file {path}",
        factory=lambda: [scenario],
        default_axes={"architecture": ("mesh", "custom")},
    )


def build_suite(name: str) -> list[Scenario]:
    """Build the named (or ``file:``) suite's scenario list."""
    return resolve_suite(name).build()


def describe_suites() -> list[dict[str, object]]:
    """Summary rows for ``list-scenarios`` style reporting."""
    rows = []
    for name in suite_names():
        spec = SUITES.get(name)
        scenarios = spec.build()
        rows.append(
            {
                "suite": name,
                "scenarios": len(scenarios),
                "grid_cells": _grid_size(spec) * len(scenarios),
                "description": spec.description,
            }
        )
    return rows


def _grid_size(spec: SuiteSpec) -> int:
    size = 1
    for values in spec.default_axes.values():
        size *= max(1, len(values))
    return size


def scenario_rows(scenarios: Sequence[Scenario]) -> list[dict[str, object]]:
    """Summary rows (nodes, edges, traffic) for a scenario list."""
    rows = []
    for scenario in scenarios:
        acg: ApplicationGraph = scenario.acg
        rows.append(
            {
                "scenario": scenario.name,
                "nodes": acg.num_nodes,
                "edges": acg.num_edges,
                "traffic": scenario.traffic,
                "description": scenario.description,
            }
        )
    return rows


# ----------------------------------------------------------------------
# built-in suites
# ----------------------------------------------------------------------
def _smoke_scenarios() -> list[Scenario]:
    return [
        aes_scenario(blocks=1),
        tgff_scenario(num_tasks=12, seed=7),
        planted_scenario(num_nodes=12, seed=11),
    ]


def _paper_scenarios() -> list[Scenario]:
    return [aes_scenario(blocks=2)]


def _embedded_scenarios() -> list[Scenario]:
    scenarios = [aes_scenario(blocks=1)]
    scenarios.extend(embedded_scenario(name) for name in embedded_benchmark_names())
    return scenarios


def _random_scenarios() -> list[Scenario]:
    return [
        scale_free_scenario(num_nodes=16, seed=3),
        scale_free_scenario(num_nodes=16, seed=5),
        planted_scenario(num_nodes=16, seed=11),
        erdos_renyi_scenario(num_nodes=12, edge_probability=0.12, seed=9),
    ]


def _fabric_scenarios() -> list[Scenario]:
    return [
        tgff_scenario(num_tasks=12, seed=7),
        scale_free_scenario(num_nodes=16, seed=3),
    ]


register_suite(
    SuiteSpec(
        name="smoke",
        description="tiny CI suite: AES + one TGFF + one planted random graph",
        factory=_smoke_scenarios,
        default_axes={
            "architecture": ("mesh", "custom"),
            "router_pipeline_delay_cycles": (1, 2),
        },
    )
)

register_suite(
    SuiteSpec(
        name="paper",
        description="the paper's Section-5.2 operating point (AES, mesh vs custom)",
        factory=_paper_scenarios,
        default_axes={
            "architecture": ("mesh", "custom"),
            "router_pipeline_delay_cycles": (2,),
        },
    )
)

register_suite(
    SuiteSpec(
        name="embedded",
        description="published embedded benchmarks (MPEG-4, VOPD, MWD, 263enc+mp3dec) + AES",
        factory=_embedded_scenarios,
        default_axes={
            "architecture": ("mesh", "custom"),
            "router_pipeline_delay_cycles": (2,),
        },
    )
)

register_suite(
    SuiteSpec(
        name="fabrics",
        description=(
            "standard-fabric baseline sweep: topology families x routing "
            "policies (unsupported pairs become explicit routing failures)"
        ),
        factory=_fabric_scenarios,
        default_axes={
            "architecture": ("mesh",),
            "topology": (
                "mesh",
                "torus",
                "ring",
                "spidergon",
                "fat_tree",
                "long_range_mesh",
            ),
            "routing_policy": ("xy", "up_down"),
        },
        base_settings=EvaluationSettings(architecture="mesh", max_cycles=100_000),
    )
)

register_suite(
    SuiteSpec(
        name="random",
        description="degree-sequence-controlled and unstructured random ACGs",
        factory=_random_scenarios,
        default_axes={
            "architecture": ("mesh", "custom"),
            "max_matchings_per_primitive": (2, 3),
        },
    )
)

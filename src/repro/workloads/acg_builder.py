"""Helpers that turn task graphs into floorplanned ACGs.

The decomposition algorithm expects three things (Section 4): the ACG with
volumes and bandwidths, and the core coordinates from an initial area-driven
floorplan.  These helpers bundle the conversion steps so examples and
experiments can go from a workload description to a ready-to-decompose ACG
in one call.
"""

from __future__ import annotations

from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.floorplan.core_spec import CoreSpec, uniform_cores
from repro.floorplan.placement import Floorplan, grid_floorplan
from repro.workloads.tgff import TaskGraph


def acg_from_task_graph(
    task_graph: TaskGraph,
    bandwidth_fraction: float = 0.0,
    core_size_mm: float = 2.0,
    floorplanned: bool = True,
) -> ApplicationGraph:
    """ACG from a TGFF-style task graph (identity task-to-core mapping)."""
    acg = task_graph.to_acg(bandwidth_fraction=bandwidth_fraction)
    if floorplanned:
        attach_grid_floorplan(acg, core_size_mm=core_size_mm)
    return acg


def attach_grid_floorplan(
    acg: ApplicationGraph, core_size_mm: float = 2.0, columns: int | None = None
) -> Floorplan:
    """Place the ACG's cores on an area-driven grid and record the positions."""
    if acg.num_nodes == 0:
        raise WorkloadError("cannot floorplan an empty ACG")
    cores: list[CoreSpec] = uniform_cores(acg.nodes(), size_mm=core_size_mm)
    floorplan = grid_floorplan(cores, columns=columns)
    floorplan.apply_to(acg)
    return floorplan

"""Floorplanning substrate: core footprints, geometry and placement."""

from repro.floorplan.core_spec import CoreSpec, uniform_cores
from repro.floorplan.geometry import Rectangle, bounding_box, manhattan
from repro.floorplan.placement import (
    Floorplan,
    annealed_floorplan,
    grid_floorplan,
)

__all__ = [
    "CoreSpec",
    "uniform_cores",
    "Rectangle",
    "bounding_box",
    "manhattan",
    "Floorplan",
    "grid_floorplan",
    "annealed_floorplan",
]

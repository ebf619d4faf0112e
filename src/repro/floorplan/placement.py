"""Floorplanning: from core footprints to die coordinates.

The decomposition algorithm assumes core positions are known ("we assume that
an initial floorplanning step has been performed and optimized for chip
area"), because the energy cost of a matching depends on the physical link
lengths.  This module provides

* :class:`Floorplan` — the result object: one placed rectangle per core,
  total area and utilization;
* :func:`grid_floorplan` — row-major shelf packing, area-driven (the paper's
  "optimized for chip area" assumption; exact for identical cores such as
  the 16 AES nodes).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

from repro.core.graph import ApplicationGraph
from repro.exceptions import FloorplanError
from repro.floorplan.core_spec import CoreSpec
from repro.floorplan.geometry import Rectangle, bounding_box

NodeId = Hashable


@dataclass
class Floorplan:
    """Placed cores: rectangles and their centres."""

    placements: dict[NodeId, Rectangle] = field(default_factory=dict)

    def add(self, core_id: NodeId, rectangle: Rectangle) -> None:
        if core_id in self.placements:
            raise FloorplanError(f"core {core_id!r} is already placed")
        for other_id, other in self.placements.items():
            if rectangle.overlaps(other):
                raise FloorplanError(
                    f"core {core_id!r} overlaps core {other_id!r} in the floorplan"
                )
        self.placements[core_id] = rectangle

    def center(self, core_id: NodeId) -> tuple[float, float]:
        try:
            return self.placements[core_id].center
        except KeyError as error:
            raise FloorplanError(f"core {core_id!r} is not placed") from error

    def centers(self) -> dict[NodeId, tuple[float, float]]:
        return {core_id: rect.center for core_id, rect in self.placements.items()}

    def die_area_mm2(self) -> float:
        if not self.placements:
            return 0.0
        return bounding_box(list(self.placements.values())).area

    def utilization(self) -> float:
        """Fraction of the die bounding box occupied by core area."""
        die = self.die_area_mm2()
        if die == 0:
            return 0.0
        return sum(rect.area for rect in self.placements.values()) / die

    def apply_to(self, acg: ApplicationGraph) -> None:
        """Write the core centres into the ACG as positions."""
        acg.apply_floorplan(self.centers())


# ----------------------------------------------------------------------
# placement algorithms
# ----------------------------------------------------------------------
def grid_floorplan(
    cores: Sequence[CoreSpec],
    columns: int | None = None,
    spacing_mm: float = 0.0,
) -> Floorplan:
    """Row-major shelf packing into a near-square grid.

    Cores are placed left-to-right, bottom-to-top; each row's height is the
    tallest core in it.  For identical cores this is the area-optimal square
    grid (e.g. the 4x4 arrangement of the AES prototype).
    """
    if not cores:
        raise FloorplanError("cannot floorplan an empty core list")
    if columns is None:
        columns = max(1, int(math.ceil(math.sqrt(len(cores)))))
    if columns < 1:
        raise FloorplanError("the grid needs at least one column")

    floorplan = Floorplan()
    x_cursor = 0.0
    y_cursor = 0.0
    row_height = 0.0
    for index, core in enumerate(cores):
        if index and index % columns == 0:
            x_cursor = 0.0
            y_cursor += row_height + spacing_mm
            row_height = 0.0
        rectangle = Rectangle(x_cursor, y_cursor, core.width_mm, core.height_mm)
        floorplan.add(core.core_id, rectangle)
        x_cursor += core.width_mm + spacing_mm
        row_height = max(row_height, core.height_mm)
    return floorplan

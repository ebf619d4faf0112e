"""Core (IP block) specifications consumed by the floorplanner.

The paper assumes "an initial floorplanning step has been performed and
optimized for chip area" and that "varying sizes and shapes of the cores"
are one of the reasons regular meshes waste area.  A :class:`CoreSpec`
describes one core's footprint; the placement algorithms in
:mod:`repro.floorplan.placement` turn a set of specs into coordinates.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from repro.exceptions import FloorplanError

NodeId = Hashable


@dataclass(frozen=True)
class CoreSpec:
    """Physical footprint of one core."""

    core_id: NodeId
    width_mm: float = 2.0
    height_mm: float = 2.0

    def __post_init__(self) -> None:
        if self.width_mm <= 0 or self.height_mm <= 0:
            raise FloorplanError(f"core {self.core_id!r} must have positive dimensions")


def uniform_cores(core_ids: Iterable[NodeId], size_mm: float = 2.0) -> list[CoreSpec]:
    """Identical square cores — the AES prototype's 16 identical nodes."""
    return [CoreSpec(core_id=core_id, width_mm=size_mm, height_mm=size_mm) for core_id in core_ids]

"""Planar geometry helpers for the floorplanner."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import FloorplanError


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned rectangle on the die, in millimetres."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise FloorplanError("rectangle dimensions must be positive")

    @property
    def x_max(self) -> float:
        return self.x + self.width

    @property
    def y_max(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def overlaps(self, other: "Rectangle") -> bool:
        """True when the two rectangles share interior area (touching is fine)."""
        return not (
            self.x_max <= other.x + 1e-12
            or other.x_max <= self.x + 1e-12
            or self.y_max <= other.y + 1e-12
            or other.y_max <= self.y + 1e-12
        )


def bounding_box(rectangles: list[Rectangle]) -> Rectangle:
    """Smallest rectangle enclosing all given rectangles."""
    if not rectangles:
        raise FloorplanError("bounding box of an empty set is undefined")
    x_min = min(rect.x for rect in rectangles)
    y_min = min(rect.y for rect in rectangles)
    x_max = max(rect.x_max for rect in rectangles)
    y_max = max(rect.y_max for rect in rectangles)
    return Rectangle(x_min, y_min, x_max - x_min, y_max - y_min)

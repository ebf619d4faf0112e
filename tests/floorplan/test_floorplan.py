"""Unit tests for geometry, core specs and the floorplanner."""

from __future__ import annotations

import pytest

from repro.core.graph import ApplicationGraph
from repro.exceptions import FloorplanError
from repro.floorplan.core_spec import CoreSpec, uniform_cores
from repro.floorplan.geometry import Rectangle, bounding_box
from repro.floorplan.placement import Floorplan, grid_floorplan


def sized_cores(sizes: dict) -> list[CoreSpec]:
    """Cores with individual ``(width, height)`` footprints."""
    return [CoreSpec(core, width, height) for core, (width, height) in sizes.items()]


class TestGeometry:
    def test_rectangle_properties(self):
        rect = Rectangle(1.0, 2.0, 3.0, 4.0)
        assert rect.x_max == 4.0 and rect.y_max == 6.0
        assert rect.area == 12.0
        assert rect.center == (2.5, 4.0)

    def test_rectangle_validation(self):
        with pytest.raises(FloorplanError):
            Rectangle(0, 0, 0, 1)

    def test_overlap_detection(self):
        first = Rectangle(0, 0, 2, 2)
        assert first.overlaps(Rectangle(1, 1, 2, 2))
        assert not first.overlaps(Rectangle(2, 0, 2, 2))  # touching edges
        assert not first.overlaps(Rectangle(5, 5, 1, 1))

    def test_bounding_box(self):
        box = bounding_box([Rectangle(0, 0, 1, 1), Rectangle(3, 4, 1, 1)])
        assert box.width == 4 and box.height == 5
        with pytest.raises(FloorplanError):
            bounding_box([])


class TestCoreSpec:
    def test_uniform_cores(self):
        cores = uniform_cores([1, 2, 3], size_mm=2.0)
        assert len(cores) == 3
        assert (cores[0].width_mm, cores[0].height_mm) == (2.0, 2.0)

    def test_invalid_core_dimensions(self):
        with pytest.raises(FloorplanError):
            CoreSpec(core_id=1, width_mm=0.0)


class TestFloorplan:
    def test_add_rejects_overlaps_and_duplicates(self):
        floorplan = Floorplan()
        floorplan.add(1, Rectangle(0, 0, 2, 2))
        with pytest.raises(FloorplanError):
            floorplan.add(1, Rectangle(5, 5, 1, 1))
        with pytest.raises(FloorplanError):
            floorplan.add(2, Rectangle(1, 1, 2, 2))

    def test_center_and_missing_core(self):
        floorplan = Floorplan()
        floorplan.add(1, Rectangle(0, 0, 2, 2))
        floorplan.add(2, Rectangle(2, 0, 2, 2))
        assert floorplan.center(1) == (1.0, 1.0)
        with pytest.raises(FloorplanError):
            floorplan.center(99)

    def test_die_area_and_utilization(self):
        floorplan = Floorplan()
        floorplan.add(1, Rectangle(0, 0, 2, 2))
        floorplan.add(2, Rectangle(2, 0, 2, 2))
        assert floorplan.die_area_mm2() == pytest.approx(8.0)
        assert floorplan.utilization() == pytest.approx(1.0)

    def test_apply_to(self):
        acg = ApplicationGraph.from_traffic({(1, 2): 10.0})
        floorplan = Floorplan()
        floorplan.add(1, Rectangle(0, 0, 2, 2))
        floorplan.add(2, Rectangle(4, 0, 2, 2))
        floorplan.apply_to(acg)
        assert acg.link_length(1, 2) == pytest.approx(4.0)


class TestGridFloorplan:
    def test_identical_cores_form_square_grid(self):
        cores = uniform_cores(list(range(1, 17)), size_mm=2.0)
        floorplan = grid_floorplan(cores)
        assert len(floorplan.placements) == 16
        assert floorplan.die_area_mm2() == pytest.approx(64.0)
        assert floorplan.utilization() == pytest.approx(1.0)
        # 4x4 arrangement: first row at y-center 1.0
        assert floorplan.center(1) == (1.0, 1.0)
        assert floorplan.center(16) == (7.0, 7.0)

    def test_heterogeneous_cores_do_not_overlap(self):
        cores = sized_cores({1: (3, 2), 2: (1, 1), 3: (2, 4), 4: (2, 2), 5: (1, 3)})
        floorplan = grid_floorplan(cores, columns=2)
        rectangles = list(floorplan.placements.values())
        for i, first in enumerate(rectangles):
            for second in rectangles[i + 1 :]:
                assert not first.overlaps(second)

    def test_explicit_columns_and_spacing(self):
        cores = uniform_cores([1, 2, 3, 4], size_mm=1.0)
        floorplan = grid_floorplan(cores, columns=2, spacing_mm=1.0)
        assert floorplan.center(3)[1] == pytest.approx(2.5)

    def test_empty_and_invalid(self):
        with pytest.raises(FloorplanError):
            grid_floorplan([])
        with pytest.raises(FloorplanError):
            grid_floorplan(uniform_cores([1]), columns=0)

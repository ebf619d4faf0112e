"""Unit tests for the topology-family registry (repro.arch.families)."""

from __future__ import annotations

import pytest

from repro.arch.families import (
    FatTreeTopology,
    LongRangeMeshTopology,
    RingTopology,
    SpidergonTopology,
    TorusTopology,
    build_fabric,
    family_names,
    get_family,
    infrastructure_router,
    most_square_grid,
)
from repro.arch.metrics import diameter, is_strongly_connected
from repro.exceptions import ConfigurationError, SynthesisError
from repro.routing.shortest_path import bfs_shortest_path


def _padded_ids(family: str, cores: int) -> list:
    spec = get_family(family)
    total = spec.padded_size(cores)
    return list(range(1, cores + 1)) + [f"__pad{i}" for i in range(total - cores)]


class TestRegistry:
    def test_builtin_families_registered(self):
        assert {"mesh", "torus", "ring", "spidergon", "fat_tree", "long_range_mesh"} <= set(
            family_names()
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            get_family("hypercube")

    def test_padded_sizes_are_fixed_points(self):
        """Padding an already-padded count must not grow it again."""
        for family in family_names():
            spec = get_family(family)
            for count in range(1, 30):
                padded = spec.padded_size(count)
                assert spec.padded_size(padded) == padded

    def test_build_rejects_unpadded_node_lists(self):
        with pytest.raises(SynthesisError):
            get_family("mesh").build(list(range(10)))  # 10 cores need a 3x4 grid

    def test_every_family_is_strongly_connected(self):
        for family in family_names():
            fabric = build_fabric(family, _padded_ids(family, 16))
            assert is_strongly_connected(fabric), family

    def test_builders_are_deterministic(self):
        for family in family_names():
            ids = _padded_ids(family, 13)
            first = build_fabric(family, ids)
            second = build_fabric(family, ids)
            assert [c.key for c in first.channels()] == [c.key for c in second.channels()]

    def test_infrastructure_router_convention(self):
        assert infrastructure_router("__pad0")
        assert infrastructure_router("__sw1_2")
        assert not infrastructure_router("core_3")
        assert not infrastructure_router(7)


class TestMostSquareGrid:
    def test_known_shapes(self):
        assert most_square_grid(16) == (4, 4)
        assert most_square_grid(12) == (3, 4)
        assert most_square_grid(10) == (3, 4)
        assert most_square_grid(1) == (1, 1)

    def test_rejects_empty(self):
        with pytest.raises(SynthesisError):
            most_square_grid(0)


class TestTorus:
    def test_wrap_channels_added(self):
        torus = TorusTopology(4, 4)
        assert torus.has_channel(torus.node_at(0, 3), torus.node_at(0, 0))
        assert torus.has_channel(torus.node_at(3, 1), torus.node_at(0, 1))
        # 48 mesh channels + 8 wrap pairs = 64 directed channels
        assert torus.num_channels == 64

    def test_wrap_wire_length(self):
        torus = TorusTopology(4, 4, tile_pitch_mm=2.0)
        wrap = torus.channel(torus.node_at(0, 3), torus.node_at(0, 0))
        assert wrap.length_mm == pytest.approx(6.0)  # pitch * (columns - 1)

    def test_short_dimensions_degenerate_to_mesh(self):
        torus = TorusTopology(2, 2)
        mesh_channels = 8  # 2x2 mesh: 4 links, both directions
        assert torus.num_channels == mesh_channels

    def test_torus_hops_uses_wraparound(self):
        torus = TorusTopology(4, 4)
        corner, opposite = torus.node_at(0, 0), torus.node_at(3, 3)
        assert torus.manhattan_hops(corner, opposite) == 6
        assert len(bfs_shortest_path(torus, corner, opposite)) - 1 == 2

    def test_diameter_beats_the_mesh(self):
        from repro.arch.mesh import MeshTopology

        assert diameter(TorusTopology(4, 4)) < diameter(MeshTopology(4, 4))


class TestRingAndSpidergon:
    def test_ring_structure(self):
        ring = RingTopology(list("abcdef"))
        assert ring.num_routers == 6
        assert ring.num_physical_links == 6
        assert ring.degree("a") == 2
        assert len(bfs_shortest_path(ring, "a", "d")) - 1 == 3
        assert len(bfs_shortest_path(ring, "a", "f")) - 1 == 1

    def test_ring_needs_three_routers(self):
        with pytest.raises(SynthesisError):
            RingTopology([1, 2])

    def test_spidergon_cross_links(self):
        spider = SpidergonTopology(list(range(8)))
        assert spider.has_channel(0, 4) and spider.has_channel(4, 0)
        assert spider.has_channel(3, 7)
        assert spider.degree(0) == 3
        assert diameter(spider) < diameter(RingTopology(list(range(8))))

    def test_spidergon_needs_even_count(self):
        with pytest.raises(SynthesisError):
            SpidergonTopology(list(range(7)))


class TestFatTree:
    def test_switches_above_leaves(self):
        tree = FatTreeTopology(list(range(1, 17)))
        switches = [node for node in tree.routers() if infrastructure_router(node)]
        assert len(switches) == 5  # 4 level-1 switches + 1 root
        assert tree.root == "__sw2_0"
        assert set(tree.leaves) == set(range(1, 17))

    def test_upper_links_are_fatter(self):
        tree = FatTreeTopology(list(range(1, 17)), flit_width_bits=32)
        leaf_link = tree.channel(1, "__sw1_0")
        top_link = tree.channel("__sw1_0", "__sw2_0")
        assert top_link.bandwidth_bits_per_cycle == 2 * leaf_link.bandwidth_bits_per_cycle

    def test_single_leaf_degenerates(self):
        tree = FatTreeTopology(["only"])
        assert tree.num_routers == 1
        assert tree.num_channels == 0


class TestLongRangeMesh:
    def test_long_links_are_added_and_deterministic(self):
        first = LongRangeMeshTopology(4, 4)
        second = LongRangeMeshTopology(4, 4)
        assert first.long_links == second.long_links
        assert len(first.long_links) == 2  # 16 routers // 8
        for source, target in first.long_links:
            assert first.manhattan_hops(source, target) >= 3
            assert first.has_channel(source, target)
            assert first.has_channel(target, source)

    def test_shortcuts_shrink_the_diameter(self):
        from repro.arch.mesh import MeshTopology

        assert diameter(LongRangeMeshTopology(4, 4)) < diameter(MeshTopology(4, 4))

    def test_link_count_knob(self):
        none = LongRangeMeshTopology(4, 4, long_link_count=0)
        assert none.long_links == ()
        many = LongRangeMeshTopology(4, 4, long_link_count=4)
        assert len(many.long_links) <= 4  # endpoint-disjoint greedy may stop early

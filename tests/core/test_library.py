"""Unit tests for the communication library."""

from __future__ import annotations

import pytest

from repro.core.library import (
    CommunicationLibrary,
    aes_library,
    default_library,
    extended_library,
    minimal_library,
)
from repro.core.primitives import make_gossip_primitive, make_path_primitive
from repro.exceptions import LibraryError


class TestLibraryConstruction:
    def test_add_assigns_sequential_ids(self):
        library = CommunicationLibrary()
        first = library.add(make_gossip_primitive(4))
        second = library.add(make_path_primitive(3))
        assert first.primitive_id == 1
        assert second.primitive_id == 2
        assert first.primitive.primitive_id == 1

    def test_duplicate_name_rejected(self):
        library = CommunicationLibrary()
        library.add(make_gossip_primitive(4))
        with pytest.raises(LibraryError):
            library.add(make_gossip_primitive(4))

    def test_extend(self):
        library = CommunicationLibrary()
        library.extend([make_gossip_primitive(4), make_path_primitive(3)])
        assert len(library) == 2

    def test_lookup_by_name(self):
        library = default_library()
        assert library.by_name("MGG4").name == "MGG4"
        with pytest.raises(LibraryError):
            library.by_name("does-not-exist")

    def test_contains_and_iteration(self):
        library = default_library()
        assert "MGG4" in library
        assert "XYZ" not in library
        names = [entry.name for entry in library]
        assert names[0] == "MGG4"


class TestDefaultLibraries:
    def test_default_library_matches_paper_ids(self):
        """Section 5 listings use ID 1 for MGG4, 2 for G1to4, 3 for G1to3."""
        names = {entry.primitive_id: entry.name for entry in default_library()}
        assert (names[1], names[2], names[3]) == ("MGG4", "G1to4", "G1to3")

    def test_default_library_all_primitives_valid(self):
        for entry in default_library():
            entry.primitive.validate()

    def test_aes_library_is_compact(self):
        library = aes_library()
        names = {entry.name for entry in library}
        assert {"MGG4", "G1to4", "G1to3", "L4", "P3"} == names

    def test_extended_library_has_larger_primitives(self):
        library = extended_library()
        names = {entry.name for entry in library}
        assert "MGG8" in names
        assert any(name.startswith("M1to") for name in names)

    def test_minimal_library(self):
        library = minimal_library()
        assert len(library) == 3
        assert library.max_diameter() >= 1


class TestSearchOrdering:
    def test_sorted_for_search_is_densest_first(self):
        library = default_library()
        ordered = library.sorted_for_search()
        edge_counts = [entry.primitive.num_requirement_edges for entry in ordered]
        assert edge_counts == sorted(edge_counts, reverse=True)
        assert ordered[0].name == "MGG4"

    def test_max_diameter_bounds_hops(self):
        """Section 4.3: the max hop count in any decomposition is bounded by the
        largest diameter in the library."""
        library = default_library()
        assert library.max_diameter() >= 2  # MGG4 has diameter 2
        for entry in library:
            assert entry.primitive.diameter() <= library.max_diameter()

    def test_describe_lists_every_primitive(self):
        library = default_library()
        text = library.describe()
        for entry in library:
            assert entry.name in text

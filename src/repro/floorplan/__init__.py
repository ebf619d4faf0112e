"""Floorplanning substrate: core footprints, geometry and placement."""

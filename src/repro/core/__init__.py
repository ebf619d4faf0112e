"""Core synthesis flow: graphs, library, decomposition, synthesis.

This package contains the paper's primary contribution — the decomposition-
based communication architecture synthesis — built on the substrates in the
sibling packages (:mod:`repro.energy`, :mod:`repro.arch`, :mod:`repro.routing`,
:mod:`repro.noc`, :mod:`repro.floorplan`).
"""

"""Core synthesis flow: graphs, library, decomposition, synthesis.

This package contains the paper's primary contribution — the decomposition-
based communication architecture synthesis — built on the substrates in the
sibling packages (:mod:`repro.energy`, :mod:`repro.arch`, :mod:`repro.routing`,
:mod:`repro.noc`, :mod:`repro.floorplan`).
"""

from repro.core.bounds import CheapestEdgeBound, ResidualBound, StackedBound
from repro.core.cost import (
    CostModel,
    EnergyCostModel,
    LinkCountCostModel,
    UnitCostModel,
    default_cost_model,
)
from repro.core.decomposition import (
    BranchAndBoundDecomposer,
    DecompositionConfig,
    DecompositionResult,
    GreedyDecomposer,
    SearchStrategy,
    decompose,
)
from repro.core.graph import ApplicationGraph, CorePosition, DiGraph, GraphStatistics
from repro.core.isomorphism import VF2Matcher
from repro.core.library import (
    CommunicationLibrary,
    aes_library,
    default_library,
    extended_library,
    minimal_library,
)
from repro.core.matching import Matching, RemainderGraph
from repro.core.primitives import (
    CommunicationPrimitive,
    PrimitiveKind,
    make_broadcast_primitive,
    make_gossip_primitive,
    make_loop_primitive,
    make_multicast_primitive,
    make_path_primitive,
)
from repro.core.constraints import ConstraintChecker, ConstraintReport, DesignConstraints
from repro.core.synthesis import (
    SynthesisOptions,
    SynthesizedArchitecture,
    TopologySynthesizer,
    synthesize_architecture,
)

__all__ = [
    "ApplicationGraph",
    "DiGraph",
    "CorePosition",
    "GraphStatistics",
    "VF2Matcher",
    "CommunicationPrimitive",
    "PrimitiveKind",
    "make_gossip_primitive",
    "make_broadcast_primitive",
    "make_path_primitive",
    "make_loop_primitive",
    "make_multicast_primitive",
    "CommunicationLibrary",
    "default_library",
    "aes_library",
    "extended_library",
    "minimal_library",
    "Matching",
    "RemainderGraph",
    "CostModel",
    "UnitCostModel",
    "LinkCountCostModel",
    "EnergyCostModel",
    "default_cost_model",
    "ResidualBound",
    "CheapestEdgeBound",
    "StackedBound",
    "DecompositionConfig",
    "DecompositionResult",
    "SearchStrategy",
    "BranchAndBoundDecomposer",
    "GreedyDecomposer",
    "decompose",
    "DesignConstraints",
    "ConstraintChecker",
    "ConstraintReport",
    "SynthesisOptions",
    "SynthesizedArchitecture",
    "TopologySynthesizer",
    "synthesize_architecture",
]

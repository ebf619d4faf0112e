"""Exception hierarchy for the NoC synthesis library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so a
caller can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class GraphError(ReproError):
    """Raised for structural graph problems (missing nodes, bad edges, ...)."""


class NodeNotFoundError(GraphError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r} -> {target!r}) is not in the graph")
        self.source = source
        self.target = target


class DuplicateNodeError(GraphError):
    """Raised when a node is added twice to a graph that forbids it."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} already exists in the graph")
        self.node = node


class DuplicateEdgeError(GraphError):
    """Raised when an edge is added twice to a graph that forbids it."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r} -> {target!r}) already exists")
        self.source = source
        self.target = target


class NotASubgraphError(GraphError):
    """Raised when a graph difference is requested with a non-subgraph."""


class LibraryError(ReproError):
    """Raised for malformed communication libraries or primitives."""


class ScheduleError(LibraryError):
    """Raised when a communication schedule is inconsistent with its graph."""


class DecompositionError(ReproError):
    """Raised when the decomposition engine is misconfigured or fails."""


class SynthesisError(ReproError):
    """Raised when topology synthesis cannot produce a valid architecture."""


class RoutingError(ReproError):
    """Raised for unroutable traffic or inconsistent routing tables."""


class DeadlockError(RoutingError):
    """Raised when a routing function admits a channel-dependency cycle."""

    def __init__(self, cycle: list[object] | None = None) -> None:
        description = "routing function admits a deadlock cycle"
        if cycle:
            description += f": {cycle}"
        super().__init__(description)
        self.cycle = list(cycle or [])


class SimulationError(ReproError):
    """Raised when the NoC simulator is driven into an invalid state."""


class FloorplanError(ReproError):
    """Raised when a floorplan cannot be constructed or is inconsistent."""


class WorkloadError(ReproError):
    """Raised when a workload generator receives invalid parameters."""


class EnergyModelError(ReproError):
    """Raised for invalid technology or energy-model parameters."""


class ConfigurationError(ReproError):
    """Raised when experiment or benchmark configuration is invalid."""


class PluginError(ConfigurationError):
    """Raised for plugin-registry problems (bad registrations, load failures)."""


class UnknownPluginError(PluginError):
    """Raised when a registry lookup names no registered object.

    Every registry built on :class:`repro.plugins.Registry` — topology
    families, routing policies, scenario suites, communication libraries,
    traffic modes, interchange formats — raises this one exception type,
    with the same message shape: the kind of thing looked up, the unknown
    name, the sorted available names, and (when close enough) a
    nearest-match suggestion.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        available: list[str] | None = None,
        suggestion: str | None = None,
    ) -> None:
        names = sorted(available or [])
        message = f"unknown {kind} {name!r}; available: {names or 'none'}"
        if suggestion:
            message += f" (did you mean {suggestion!r}?)"
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.available = names
        self.suggestion = suggestion

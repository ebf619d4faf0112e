"""The interchange-format registry and the helpers every format shares.

A :class:`GraphFormat` bundles the four operations a format must support
— read/write an :class:`~repro.core.graph.ApplicationGraph` workload and
read/write a :class:`~repro.arch.topology.Topology` fabric — plus the
file extensions it claims.  Formats register in :data:`FORMATS` (one
:class:`repro.plugins.Registry` cell, so third-party formats arrive via
the ``repro.plugins`` entry-point group) and callers go through the
:mod:`repro.io` facade functions, which detect the format from the file
extension when it is not pinned.

Round-trip contract (asserted format-by-format in
``tests/io/test_roundtrip.py``): ``read(write(graph))`` preserves the
workload :meth:`~repro.dse.pipeline.Scenario.structural_fingerprint` and
the topology :meth:`~repro.arch.topology.Topology.signature` exactly —
node names are stringified, float attributes survive via ``repr`` (which
round-trips IEEE doubles), and isolated nodes are kept.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import GraphError, WorkloadError
from repro.plugins.registry import Registry


@dataclass(frozen=True)
class GraphFormat:
    """One named interchange format and its four read/write operations."""

    name: str
    description: str
    extensions: tuple[str, ...]
    """File suffixes (with the dot) this format claims for detection."""
    read_workload: Callable[[Path], ApplicationGraph]
    write_workload: Callable[[ApplicationGraph, Path], None]
    read_topology: Callable[[Path], Topology]
    write_topology: Callable[[Topology, Path], None]
    notes: str = ""
    """Interoperability caveats for the docs' format matrix (e.g. which
    attribute columns are repro extensions to the published format)."""


#: the interchange-format registry (plugin-fabric cell: third-party
#: formats register here, directly or via the entry-point group)
FORMATS: Registry[GraphFormat] = Registry("interchange format")


def register_format(spec: GraphFormat) -> GraphFormat:
    """Register (or replace) an interchange format under its name."""
    return FORMATS.register(spec.name, spec)


def format_names() -> list[str]:
    """All registered format names, sorted (after plugin discovery)."""
    return FORMATS.names()


def get_format(name: str) -> GraphFormat:
    """Look a format up by name (uniform unknown-name errors)."""
    return FORMATS.get(name)


def detect_format(path: str | Path) -> GraphFormat:
    """The format claiming ``path``'s extension.

    Raises the registry's uniform unknown-name error (listing the
    registered formats and their extensions) when no format claims it.
    """
    suffix = Path(path).suffix.lower()
    for name in FORMATS.names():
        spec = FORMATS.get(name)
        if suffix in spec.extensions:
            return spec
    raise FORMATS.unknown(suffix or str(path))


# ----------------------------------------------------------------------
# shared serialization helpers
# ----------------------------------------------------------------------
def format_float(value: float) -> str:
    """A float as text that parses back to the identical double (``repr``)."""
    return repr(float(value))


def parse_number(text: str) -> float:
    """Parse a float field, raising :class:`WorkloadError` on garbage or on
    a non-finite value (``nan``, ``inf``, or a literal that overflows)."""
    try:
        value = float(text)
    except ValueError as error:
        raise WorkloadError(f"expected a number, got {text!r}") from error
    if not math.isfinite(value):
        raise WorkloadError(f"expected a finite number, got {text!r}")
    return value


@contextmanager
def reading_line(path: str | Path, number: int) -> Iterator[None]:
    """Name the file and line in any input error raised inside the block.

    A :class:`WorkloadError` from a reader, or a :class:`GraphError` from
    building the graph (a self-loop arc, say), leaves as a
    :class:`WorkloadError` that starts with ``"<path>, line <number>: "``.
    """
    try:
        yield
    except (WorkloadError, GraphError) as error:
        raise WorkloadError(f"{path}, line {number}: {error}") from error

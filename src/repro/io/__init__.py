"""Graph interchange: read/write workloads and fabrics in named formats.

The package round-trips the two graph kinds the flow works with —
:class:`~repro.core.graph.ApplicationGraph` workloads (ACGs) and
:class:`~repro.arch.topology.Topology` fabrics — through a registry of
:class:`~repro.io.base.GraphFormat` specs (Pajek ``.net``, Graphviz DOT,
weighted edge list out of the box; plugins add more through the
``repro.plugins`` entry-point group).  A format only parses a file into
a :class:`~repro.io.base.GraphFile` record and renders one back to text;
the facade functions here pick the format by explicit name or by file
extension and map the record to and from the graph
(:mod:`repro.io.base`).  For the built-in formats, export→import
preserves the workload ``structural_fingerprint`` and the topology
``signature`` exactly.
"""

from __future__ import annotations

from pathlib import Path

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.io import dot, edgelist, pajek  # noqa: F401  (register the formats)
from repro.io.base import (
    FORMATS,
    TOPOLOGY_FIELDS,
    WORKLOAD_FIELDS,
    GraphFile,
    GraphFormat,
    build_topology,
    build_workload,
    detect_format,
    flatten_topology,
    flatten_workload,
    format_names,
    get_format,
    register_format,
)

__all__ = [
    "FORMATS",
    "GraphFile",
    "GraphFormat",
    "detect_format",
    "format_names",
    "get_format",
    "register_format",
    "read_workload",
    "write_workload",
    "read_topology",
    "write_topology",
]


def _resolve(path: Path, fmt: str | None) -> GraphFormat:
    """The format named ``fmt``, or the one claiming ``path``'s extension."""
    return get_format(fmt) if fmt else detect_format(path)


def read_workload(
    path: str | Path, fmt: str | None = None, name: str | None = None
) -> ApplicationGraph:
    """Read an ACG from ``path`` (format by name or file extension)."""
    path = Path(path)
    acg = build_workload(_resolve(path, fmt).parse(path, WORKLOAD_FIELDS), path)
    if name:
        acg.name = name
    return acg


def write_workload(acg: ApplicationGraph, path: str | Path, fmt: str | None = None) -> None:
    """Write an ACG to ``path`` (format by name or file extension)."""
    path = Path(path)
    text = _resolve(path, fmt).render(flatten_workload(acg), WORKLOAD_FIELDS)
    path.write_text(text, encoding="utf-8")


def read_topology(path: str | Path, fmt: str | None = None) -> Topology:
    """Read a fabric from ``path`` (format by name or file extension)."""
    path = Path(path)
    return build_topology(_resolve(path, fmt).parse(path, TOPOLOGY_FIELDS), path)


def write_topology(topology: Topology, path: str | Path, fmt: str | None = None) -> None:
    """Write a fabric to ``path`` (format by name or file extension)."""
    path = Path(path)
    text = _resolve(path, fmt).render(flatten_topology(topology), TOPOLOGY_FIELDS)
    path.write_text(text, encoding="utf-8")

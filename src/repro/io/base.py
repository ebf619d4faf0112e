"""The interchange-format registry and the graph record every format shares.

A format is syntax only.  Its :class:`GraphFormat` spec carries
``parse(path, fields) -> GraphFile`` and ``render(GraphFile, fields) ->
str``, plus the file extensions it claims.  This module maps the two
graph kinds to and from the :class:`GraphFile` record in between —
:func:`flatten_workload` / :func:`build_workload` for
:class:`~repro.core.graph.ApplicationGraph` workloads,
:func:`flatten_topology` / :func:`build_topology` for
:class:`~repro.arch.topology.Topology` fabrics — so the edge fields, the
defaults for missing ones, the range checks and the naming rule are
written once.  Formats register in :data:`FORMATS` (one
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
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import GraphError, WorkloadError
from repro.plugins.registry import Registry

#: the edge fields of a workload file, in column order
WORKLOAD_FIELDS = ("volume", "bandwidth")
#: the edge fields of a fabric file, in column order
TOPOLOGY_FIELDS = ("length_mm", "width_bits", "bandwidth")


@dataclass
class GraphFile:
    """A graph file's content, between a format's syntax and a graph.

    ``header`` holds the repro metadata (``kind``; for fabrics also
    ``flit_width_bits`` and ``name``) and ``name`` the graph's title (the
    DOT digraph id).  ``nodes`` lists ``(label, (x, y) or None)`` in file
    order; ``edges`` lists ``(line, source, target, fields)`` with one
    text value per field name (``None`` where the file gives none) and
    the 1-based line the edge came from (0 in a record to render).
    """

    header: dict[str, str]
    name: str | None
    nodes: list[tuple[str, tuple[float, float] | None]]
    edges: list[tuple[int, str, str, tuple[str | None, ...]]]


@dataclass(frozen=True)
class GraphFormat:
    """One named interchange format: its syntax and its file extensions."""

    name: str
    description: str
    extensions: tuple[str, ...]
    """File suffixes (with the dot) this format claims for detection."""
    parse: Callable[[Path, tuple[str, ...]], GraphFile]
    """Read a file into a record; errors name the file and the line."""
    render: Callable[[GraphFile, tuple[str, ...]], str]
    """The text of a file holding the record."""


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
# graphs <-> records
# ----------------------------------------------------------------------
def _nodes(graph: ApplicationGraph | Topology, nodes: list) -> list:
    """``(label, (x, y) or None)`` for each node, in order."""
    positions = [graph.position(node) if graph.has_position(node) else None for node in nodes]
    return [
        (str(node), None if position is None else (position.x, position.y))
        for node, position in zip(nodes, positions)
    ]


def flatten_workload(acg: ApplicationGraph) -> GraphFile:
    """An ACG as a record of :data:`WORKLOAD_FIELDS` edges."""
    edges = [
        (0, str(source), str(target),
         (format_float(acg.volume(source, target)), format_float(acg.bandwidth(source, target))))
        for source, target in acg.edges()
    ]
    return GraphFile({"kind": "workload"}, acg.name, _nodes(acg, acg.nodes()), edges)


def flatten_topology(topology: Topology) -> GraphFile:
    """A fabric as a record of :data:`TOPOLOGY_FIELDS` edges."""
    header = {
        "kind": "topology",
        "flit_width_bits": str(int(topology.flit_width_bits)),
        "name": str(topology.name),
    }
    edges = [
        (0, str(channel.source), str(channel.target),
         (format_float(channel.length_mm), str(int(channel.width_bits)),
          format_float(channel.bandwidth_bits_per_cycle)))
        for channel in topology.channels()
    ]
    return GraphFile(header, topology.name, _nodes(topology, topology.routers()), edges)


def build_workload(record: GraphFile, path: Path) -> ApplicationGraph:
    """The ACG a parsed file holds, named after the file.

    Nodes the edges name but the file never declares are added; a
    missing volume reads as 1 and a missing bandwidth as 0.
    """
    acg = ApplicationGraph(name=path.stem)
    for label, position in record.nodes:
        acg.add_node(label, exist_ok=True)
        if position is not None:
            acg.set_position(label, *position)
    for line, source, target, (volume, bandwidth) in record.edges:
        with reading_line(path, line):
            acg.add_communication(
                source,
                target,
                volume=1.0 if volume is None else parse_number(volume),
                bandwidth=0.0 if bandwidth is None else parse_number(bandwidth),
            )
    return acg


def build_topology(record: GraphFile, path: Path) -> Topology:
    """The fabric a parsed file holds.

    It is named by the header, else the title, else the file; the flit
    width defaults to 32 bits.  A missing channel length is the routers'
    distance (1 mm without positions), a missing width the flit width
    and a missing bandwidth the width.
    """
    topology = Topology(
        name=record.header.get("name", record.name) or path.stem,
        flit_width_bits=parse_width(record.header.get("flit_width_bits", "32"), "flit_width_bits"),
    )
    for label, position in record.nodes:
        topology.add_router(label, *(position or ()))
    for line, source, target, (length, width, bandwidth) in record.edges:
        with reading_line(path, line):
            topology.add_channel(
                source,
                target,
                length_mm=None if length is None else _non_negative(length, "channel length"),
                width_bits=None if width is None else parse_width(width, "channel width"),
                bandwidth_bits_per_cycle=(
                    None if bandwidth is None else _non_negative(bandwidth, "channel bandwidth")
                ),
            )
    return topology


# ----------------------------------------------------------------------
# shared parsing helpers
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


def parse_width(text: str, what: str) -> int:
    """Parse a bit width: a whole number above zero, else :class:`WorkloadError`."""
    value = parse_number(text)
    if value <= 0 or not value.is_integer():
        raise WorkloadError(f"{what} must be a positive whole number, got {text!r}")
    return int(value)


def _non_negative(text: str, what: str) -> float:
    value = parse_number(text)
    if value < 0:
        raise WorkloadError(f"{what} must be non-negative, got {text!r}")
    return value


def check_header(header: dict[str, str]) -> dict[str, str]:
    """Check a parsed header's flit width, for a parser to call on its line."""
    if "flit_width_bits" in header:
        parse_width(header["flit_width_bits"], "flit_width_bits")
    return header


def columns(values: Sequence[str], fields: tuple[str, ...]) -> tuple[str | None, ...]:
    """Positional columns as one value per field (``None`` past the end;
    columns beyond the fields are ignored)."""
    count = len(fields)
    return tuple(values[:count]) + (None,) * (count - len(values))


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

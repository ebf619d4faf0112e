"""Pajek ``.net`` reader/writer for workloads and topologies.

The baseline dialect is the one Pajek itself accepts: a ``*Vertices``
section numbering the nodes (quoted labels, optional ``x y``
coordinates) followed by ``*Arcs`` lines ``source target weight``.
Repro extends it backward-compatibly:

* a leading ``% repro key=value ...`` directive records the payload kind
  (``workload`` or ``topology``) and, for topologies, the flit width —
  plain Pajek tools treat the line as a comment;
* workload arcs may carry a 4th column with the bandwidth requirement
  (written only when some edge has a non-zero bandwidth);
* topology arcs carry ``length_mm width_bits bandwidth`` columns.

Both readers hold a file to one input contract: the ``*Vertices N``
ids run 1..N, each declared once with a unique label (the id itself when
the line gives none), and arcs join declared ids only.  ``*Edges``
sections are read as bidirectional arcs, ``%`` comment lines and a
``*Network`` title line are skipped, and repeated arcs merge into one
(volumes add up).  Any other input raises
:class:`~repro.exceptions.WorkloadError` naming the file and line.
"""

from __future__ import annotations

import shlex
from pathlib import Path

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.io.base import (
    GraphFormat,
    format_float,
    parse_number,
    reading_line,
    register_format,
)

_DIRECTIVE_PREFIX = "% repro"


def _quote(label: object) -> str:
    """A Pajek vertex label: double-quoted, embedded quotes escaped."""
    text = str(label).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _parse_directive(line: str) -> dict[str, str]:
    """``% repro key=value ...`` -> its key/value mapping (shlex-quoted)."""
    try:
        fields = shlex.split(line[len(_DIRECTIVE_PREFIX) :])
    except ValueError as error:
        raise WorkloadError(f"malformed repro directive: {line!r}") from error
    directive: dict[str, str] = {}
    for field in fields:
        key, _, value = field.partition("=")
        directive[key] = value
    if directive.get("kind", "") not in ("", "topology", "workload"):
        raise WorkloadError(f"unknown repro payload kind {directive['kind']!r}")
    if "flit_width_bits" in directive:
        parse_number(directive["flit_width_bits"])
    return directive


def _split_vertex_line(line: str, raw_line: str) -> tuple[int, str, tuple[float, float] | None]:
    """One ``*Vertices`` line -> (index, label, optional coordinates)."""
    try:
        tokens = shlex.split(line)
    except ValueError as error:
        raise WorkloadError(f"malformed Pajek vertex line: {raw_line!r}") from error
    if not tokens:
        raise WorkloadError(f"malformed Pajek vertex line: {raw_line!r}")
    try:
        index = int(tokens[0])
    except ValueError as error:
        raise WorkloadError(f"malformed Pajek vertex line: {raw_line!r}") from error
    rest = tokens[1:]
    coords: tuple[float, float] | None = None
    if len(rest) >= 3:
        try:
            float(rest[-2]), float(rest[-1])
        except ValueError:
            pass
        else:
            coords = (parse_number(rest[-2]), parse_number(rest[-1]))
            rest = rest[:-2]
    label = " ".join(rest) if rest else str(index)
    return index, label, coords


def _vertex_count(line: str) -> int:
    """N of a ``*Vertices N`` header."""
    fields = line.split()
    try:
        count = int(fields[1])
    except (IndexError, ValueError):
        count = -1
    if count < 0:
        raise WorkloadError(f"malformed Pajek *Vertices header: {line!r}")
    return count


def _declared(labels: dict[int, str], token: str) -> str:
    """The label of the declared vertex id ``token`` names."""
    try:
        return labels[int(token)]
    except (KeyError, ValueError):
        raise WorkloadError(f"arc endpoint {token!r} is not a declared vertex id") from None


def _parse(path: str | Path):
    """Split a ``.net`` file into (directive, vertices, arcs), checking it.

    ``vertices`` lists ``(label, coordinates or None)`` in id order;
    ``arcs`` lists ``(line number, source label, target label, extra
    columns)``, both directions for an ``*Edges`` line.
    """
    directive: dict[str, str] = {}
    section = None
    count, header_number = 0, 0
    labels: dict[int, str] = {}
    positions: dict[int, tuple[float, float] | None] = {}
    owners: dict[str, int] = {}
    arcs: list[tuple[int, str, str, list[str]]] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        with reading_line(path, number):
            lowered = line.lower()
            if line.startswith("%"):
                if line.startswith(_DIRECTIVE_PREFIX):
                    directive.update(_parse_directive(line))
            elif lowered.startswith("*vertices"):
                section, count, header_number = "vertices", _vertex_count(line), number
            elif lowered.startswith(("*arcs", "*edges")):
                section = lowered[1:].split()[0]
            elif lowered.startswith("*network"):
                continue
            elif line.startswith("*") or section is None:
                raise WorkloadError(f"unsupported Pajek line: {raw_line!r}")
            elif section == "vertices":
                index, label, coords = _split_vertex_line(line, raw_line)
                if not 1 <= index <= count:
                    raise WorkloadError(f"vertex id {index} is outside 1..{count}")
                if index in labels:
                    raise WorkloadError(f"vertex id {index} is declared twice")
                if label in owners:
                    raise WorkloadError(
                        f"vertices {owners[label]} and {index} share the label {label!r}"
                    )
                labels[index], positions[index], owners[label] = label, coords, index
            else:
                parts = line.split()
                if len(parts) < 2:
                    raise WorkloadError(f"malformed Pajek arc line: {raw_line!r}")
                source, target = _declared(labels, parts[0]), _declared(labels, parts[1])
                arcs.append((number, source, target, parts[2:]))
                if section == "edges":
                    arcs.append((number, target, source, parts[2:]))
    missing = [index for index in range(1, count + 1) if index not in labels]
    if missing:
        with reading_line(path, header_number):
            raise WorkloadError(f"vertex ids {missing} of *Vertices {count} are never declared")
    vertices = [(labels[index], positions[index]) for index in range(1, count + 1)]
    return directive, vertices, arcs


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def write_workload(acg: ApplicationGraph, path: str | Path) -> None:
    """Write an ACG as Pajek ``.net`` (volumes as arc weights)."""
    nodes = acg.nodes()
    index_of = {node: index + 1 for index, node in enumerate(nodes)}
    with_bandwidth = any(acg.bandwidth(s, t) != 0.0 for s, t in acg.edges())
    lines = [f"{_DIRECTIVE_PREFIX} kind=workload"]
    lines.append(f"*Vertices {len(nodes)}")
    for node in nodes:
        line = f"{index_of[node]} {_quote(node)}"
        if acg.has_position(node):
            position = acg.position(node)
            line += f" {format_float(position.x)} {format_float(position.y)}"
        lines.append(line)
    lines.append("*Arcs")
    for source, target in acg.edges():
        line = (
            f"{index_of[source]} {index_of[target]} "
            f"{format_float(acg.volume(source, target))}"
        )
        if with_bandwidth:
            line += f" {format_float(acg.bandwidth(source, target))}"
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_workload(path: str | Path) -> ApplicationGraph:
    """Read a Pajek ``.net`` file into an ACG.

    ``*Edges`` sections are treated as bidirectional arcs; labels default
    to the vertex index; coordinates become core positions.
    """
    _directive, vertices, arcs = _parse(path)
    acg = ApplicationGraph(name=Path(path).stem)
    for label, coords in vertices:
        acg.add_node(label)
        if coords is not None:
            acg.set_position(label, coords[0], coords[1])
    for number, source, target, extra in arcs:
        with reading_line(path, number):
            volume = parse_number(extra[0]) if len(extra) > 0 else 1.0
            bandwidth = parse_number(extra[1]) if len(extra) > 1 else 0.0
            acg.add_communication(source, target, volume=volume, bandwidth=bandwidth)
    return acg


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------
def write_topology(topology: Topology, path: str | Path) -> None:
    """Write a fabric as Pajek ``.net`` with repro channel-attribute columns."""
    routers = topology.routers()
    index_of = {node: index + 1 for index, node in enumerate(routers)}
    lines = [
        f"{_DIRECTIVE_PREFIX} kind=topology "
        f"flit_width_bits={int(topology.flit_width_bits)} "
        f"name={shlex.quote(str(topology.name))}"
    ]
    lines.append(f"*Vertices {len(routers)}")
    for node in routers:
        line = f"{index_of[node]} {_quote(node)}"
        if topology.has_position(node):
            position = topology.position(node)
            line += f" {format_float(position.x)} {format_float(position.y)}"
        lines.append(line)
    lines.append("*Arcs")
    for channel in topology.channels():
        lines.append(
            f"{index_of[channel.source]} {index_of[channel.target]} "
            f"{format_float(channel.length_mm)} {int(channel.width_bits)} "
            f"{format_float(channel.bandwidth_bits_per_cycle)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_topology(path: str | Path) -> Topology:
    """Read a Pajek ``.net`` fabric written by :func:`write_topology`.

    Plain Pajek files (no repro directive) are accepted too: arcs become
    unit-length channels at the default flit width.
    """
    directive, vertices, arcs = _parse(path)
    flit_width = int(parse_number(directive.get("flit_width_bits", "32")))
    topology = Topology(name=directive.get("name") or Path(path).stem, flit_width_bits=flit_width)
    for label, coords in vertices:
        if coords is not None:
            topology.add_router(label, coords[0], coords[1])
        else:
            topology.add_router(label)
    for number, source, target, extra in arcs:
        with reading_line(path, number):
            length = parse_number(extra[0]) if len(extra) > 0 else None
            width = int(parse_number(extra[1])) if len(extra) > 1 else None
            bandwidth = parse_number(extra[2]) if len(extra) > 2 else None
            topology.add_channel(
                source,
                target,
                length_mm=length,
                width_bits=width,
                bandwidth_bits_per_cycle=bandwidth,
            )
    return topology


register_format(
    GraphFormat(
        name="pajek",
        description="Pajek .net (vertices/arcs; repro attribute columns)",
        extensions=(".net", ".pajek"),
        read_workload=read_workload,
        write_workload=write_workload,
        read_topology=read_topology,
        write_topology=write_topology,
        notes=(
            "Coordinates and the 4th/5th arc columns are repro extensions; "
            "plain Pajek tools read the files, repro reads plain Pajek files."
        ),
    )
)

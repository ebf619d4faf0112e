"""Weighted edge-list reader/writer for workloads and topologies.

The body is the simplest possible interchange: one line per directed
edge, ``source target`` plus numeric attribute columns, with node names
shell-quoted so spaces survive.  Metadata that a bare edge list cannot
express rides in ``#%`` directive lines (ordinary ``#`` comments to any
other tool):

* ``#% repro-edgelist kind=<workload|topology> ...`` — payload kind,
  optional display name and (topologies) flit width;
* ``#% node <name> [x=<mm> y=<mm>]`` — declares a node explicitly,
  preserving isolated nodes, insertion order and floorplan positions.

Workload edge columns are ``volume bandwidth``; topology edge columns
are ``length_mm width_bits bandwidth``.  Floats are written with
``repr`` so they parse back bit-identical.
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

_DIRECTIVE_PREFIX = "#%"


def _parse_keyvals(fields: list[str]) -> dict[str, str]:
    """``key=value`` fields -> mapping (fields without ``=`` are skipped)."""
    result: dict[str, str] = {}
    for field in fields:
        key, eq, value = field.partition("=")
        if eq:
            result[key] = value
    return result


def _parse_file(path: str | Path):
    """Parse the file into (header, nodes, edges) without interpreting kinds.

    Each edge is ``(line number, source, target, extra columns)``.
    """
    header: dict[str, str] = {}
    nodes: list[tuple[str, tuple[float, float] | None]] = []
    edges: list[tuple[int, str, str, list[str]]] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or (line.startswith("#") and not line.startswith(_DIRECTIVE_PREFIX)):
            continue
        with reading_line(path, number):
            directive = line.startswith(_DIRECTIVE_PREFIX)
            try:
                fields = shlex.split(line[len(_DIRECTIVE_PREFIX) :] if directive else line)
            except ValueError as error:
                kind = "directive" if directive else "edge"
                raise WorkloadError(f"malformed {kind} line: {raw_line!r}") from error
            if not directive:
                if len(fields) < 2:
                    raise WorkloadError(f"malformed edge line: {raw_line!r}")
                edges.append((number, fields[0], fields[1], fields[2:]))
            elif fields and fields[0] == "repro-edgelist":
                header.update(_parse_keyvals(fields[1:]))
                if "flit_width_bits" in header:
                    parse_number(header["flit_width_bits"])
            elif fields and fields[0] == "node":
                if len(fields) < 2:
                    raise WorkloadError(f"malformed node directive: {raw_line!r}")
                keyvals = _parse_keyvals(fields[2:])
                coords = None
                if "x" in keyvals and "y" in keyvals:
                    coords = (parse_number(keyvals["x"]), parse_number(keyvals["y"]))
                nodes.append((fields[1], coords))
    return header, nodes, edges


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def write_workload(acg: ApplicationGraph, path: str | Path) -> None:
    """Write an ACG as a weighted edge list (volume + bandwidth columns)."""
    lines = [f"{_DIRECTIVE_PREFIX} repro-edgelist kind=workload"]
    for node in acg.nodes():
        line = f"{_DIRECTIVE_PREFIX} node {shlex.quote(str(node))}"
        if acg.has_position(node):
            position = acg.position(node)
            line += f" x={format_float(position.x)} y={format_float(position.y)}"
        lines.append(line)
    for source, target in acg.edges():
        lines.append(
            f"{shlex.quote(str(source))} {shlex.quote(str(target))} "
            f"{format_float(acg.volume(source, target))} "
            f"{format_float(acg.bandwidth(source, target))}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_workload(path: str | Path) -> ApplicationGraph:
    """Read a weighted edge list into an ACG.

    Files without directives work too: nodes are implied by the edges and
    missing columns default to volume 1, bandwidth 0.
    """
    _header, nodes, edges = _parse_file(path)
    acg = ApplicationGraph(name=Path(path).stem)
    for label, coords in nodes:
        acg.add_node(label, exist_ok=True)
        if coords is not None:
            acg.set_position(label, coords[0], coords[1])
    for number, source, target, extra in edges:
        with reading_line(path, number):
            volume = parse_number(extra[0]) if len(extra) > 0 else 1.0
            bandwidth = parse_number(extra[1]) if len(extra) > 1 else 0.0
            acg.add_communication(source, target, volume=volume, bandwidth=bandwidth)
    return acg


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------
def write_topology(topology: Topology, path: str | Path) -> None:
    """Write a fabric as an edge list (length/width/bandwidth columns)."""
    lines = [
        f"{_DIRECTIVE_PREFIX} repro-edgelist kind=topology "
        f"flit_width_bits={int(topology.flit_width_bits)} "
        f"name={shlex.quote(str(topology.name))}"
    ]
    for node in topology.routers():
        line = f"{_DIRECTIVE_PREFIX} node {shlex.quote(str(node))}"
        if topology.has_position(node):
            position = topology.position(node)
            line += f" x={format_float(position.x)} y={format_float(position.y)}"
        lines.append(line)
    for channel in topology.channels():
        lines.append(
            f"{shlex.quote(str(channel.source))} {shlex.quote(str(channel.target))} "
            f"{format_float(channel.length_mm)} {int(channel.width_bits)} "
            f"{format_float(channel.bandwidth_bits_per_cycle)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_topology(path: str | Path) -> Topology:
    """Read an edge-list fabric written by :func:`write_topology`."""
    header, nodes, edges = _parse_file(path)
    topology = Topology(
        name=header.get("name") or Path(path).stem,
        flit_width_bits=int(parse_number(header.get("flit_width_bits", "32"))),
    )
    for label, coords in nodes:
        if coords is not None:
            topology.add_router(label, coords[0], coords[1])
        else:
            topology.add_router(label)
    for number, source, target, extra in edges:
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
        name="edgelist",
        description="weighted edge list (#% directives carry metadata)",
        extensions=(".edges", ".edgelist", ".wel"),
        read_workload=read_workload,
        write_workload=write_workload,
        read_topology=read_topology,
        write_topology=write_topology,
        notes=(
            "#% directive lines are plain comments to other tools; files "
            "without them import with edge-implied nodes and default weights."
        ),
    )
)

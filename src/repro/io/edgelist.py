"""Weighted edge-list syntax for workload and fabric records.

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

from repro.exceptions import WorkloadError
from repro.io.base import (
    GraphFile,
    GraphFormat,
    check_header,
    columns,
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


def parse(path: Path, fields: tuple[str, ...]) -> GraphFile:
    """Read an edge-list file; the columns after an edge's endpoints are
    the fields in order."""
    header: dict[str, str] = {}
    nodes: list[tuple[str, tuple[float, float] | None]] = []
    edges: list[tuple[int, str, str, tuple[str | None, ...]]] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or (line.startswith("#") and not line.startswith(_DIRECTIVE_PREFIX)):
            continue
        with reading_line(path, number):
            directive = line.startswith(_DIRECTIVE_PREFIX)
            try:
                tokens = shlex.split(line[len(_DIRECTIVE_PREFIX) :] if directive else line)
            except ValueError as error:
                kind = "directive" if directive else "edge"
                raise WorkloadError(f"malformed {kind} line: {raw_line!r}") from error
            if not directive:
                if len(tokens) < 2:
                    raise WorkloadError(f"malformed edge line: {raw_line!r}")
                edges.append((number, tokens[0], tokens[1], columns(tokens[2:], fields)))
            elif tokens and tokens[0] == "repro-edgelist":
                header.update(_parse_keyvals(tokens[1:]))
                check_header(header)
            elif tokens and tokens[0] == "node":
                if len(tokens) < 2:
                    raise WorkloadError(f"malformed node directive: {raw_line!r}")
                keyvals = _parse_keyvals(tokens[2:])
                coords = None
                if "x" in keyvals and "y" in keyvals:
                    coords = (parse_number(keyvals["x"]), parse_number(keyvals["y"]))
                nodes.append((tokens[1], coords))
    return GraphFile(header, None, nodes, edges)


def render(record: GraphFile, fields: tuple[str, ...]) -> str:
    """An edge-list file: the header and the nodes as directives, then one
    line per edge with its fields as columns."""
    directive = " ".join(f"{key}={shlex.quote(value)}" for key, value in record.header.items())
    lines = [f"{_DIRECTIVE_PREFIX} repro-edgelist {directive}"]
    for label, position in record.nodes:
        line = f"{_DIRECTIVE_PREFIX} node {shlex.quote(label)}"
        if position is not None:
            line += f" x={format_float(position[0])} y={format_float(position[1])}"
        lines.append(line)
    for _, source, target, values in record.edges:
        lines.append(" ".join([shlex.quote(source), shlex.quote(target), *values]))
    return "\n".join(lines) + "\n"


register_format(
    GraphFormat(
        name="edgelist",
        description="weighted edge list (#% directives carry metadata)",
        extensions=(".edges", ".edgelist", ".wel"),
        parse=parse,
        render=render,
    )
)

"""Pajek ``.net`` syntax for workload and fabric records.

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

The parser holds a file to one input contract: the ``*Vertices N``
ids run 1..N, each declared once with a unique label (the id itself when
the line gives none), and arcs join declared ids only.  ``*Edges``
sections are read as bidirectional arcs, and ``%`` comment lines and a
``*Network`` title line are skipped.  Any other input raises
:class:`~repro.exceptions.WorkloadError` naming the file and line.
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
    return check_header(directive)


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


def parse(path: Path, fields: tuple[str, ...]) -> GraphFile:
    """Read a ``.net`` file, checking it against the input contract.

    Vertices keep their id order; an ``*Edges`` line yields both
    directions, and arc columns past the endpoints are the fields in
    order.
    """
    directive: dict[str, str] = {}
    section = None
    count, header_number = 0, 0
    labels: dict[int, str] = {}
    positions: dict[int, tuple[float, float] | None] = {}
    owners: dict[str, int] = {}
    arcs: list[tuple[int, str, str, tuple[str | None, ...]]] = []
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
                arcs.append((number, source, target, columns(parts[2:], fields)))
                if section == "edges":
                    arcs.append((number, target, source, columns(parts[2:], fields)))
    if len(labels) < count:
        # name the first ten missing ids: they lie within 1..len(labels) + 10
        span = range(1, min(count, len(labels) + 10) + 1)
        missing = [index for index in span if index not in labels]
        with reading_line(path, header_number):
            raise WorkloadError(f"vertex ids {missing} of *Vertices {count} are never declared")
    vertices = [(labels[index], positions[index]) for index in range(1, count + 1)]
    return GraphFile(directive, None, vertices, arcs)


def render(record: GraphFile, fields: tuple[str, ...]) -> str:
    """A ``.net`` file: the header as a directive, vertices with optional
    coordinates, one arc per edge with its fields as columns (a
    workload's bandwidth column only when some arc's is non-zero)."""
    index_of = {label: index for index, (label, _) in enumerate(record.nodes, start=1)}
    directive = " ".join(f"{key}={shlex.quote(value)}" for key, value in record.header.items())
    lines = [f"{_DIRECTIVE_PREFIX} {directive}", f"*Vertices {len(record.nodes)}"]
    for label, position in record.nodes:
        line = f"{index_of[label]} {_quote(label)}"
        if position is not None:
            line += f" {format_float(position[0])} {format_float(position[1])}"
        lines.append(line)
    lines.append("*Arcs")
    width = len(fields)
    if record.header.get("kind") == "workload" and all(
        float(values[-1]) == 0.0 for *_, values in record.edges
    ):
        width -= 1
    for _, source, target, values in record.edges:
        lines.append(" ".join([str(index_of[source]), str(index_of[target]), *values[:width]]))
    return "\n".join(lines) + "\n"


register_format(
    GraphFormat(
        name="pajek",
        description="Pajek .net (vertices/arcs; repro attribute columns)",
        extensions=(".net", ".pajek"),
        parse=parse,
        render=render,
    )
)

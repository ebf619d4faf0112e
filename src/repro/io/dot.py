"""Graphviz DOT reader/writer for workloads and topologies.

The writer emits a plain ``digraph`` — one node statement per core or
router, one edge statement per communication or channel — so the files
render directly with ``dot``/``neato``.  Repro attributes ride as
ordinary DOT attributes: ``repro_kind`` on the graph (plus
``flit_width_bits``/``name`` for topologies), ``x``/``y`` on positioned
nodes, ``volume``/``bandwidth`` on workload edges and
``length_mm``/``width_bits``/``bandwidth`` on channels.

The reader parses the digraph subset the writer emits (quoted or bare
identifiers, one statement per line or ``;``-separated, ``[]`` attribute
lists, ``//`` and ``#`` comments).  ``graph``, ``node`` and ``edge`` are
attribute statements only as bare keywords; quoted, they name nodes.  It is not a full DOT parser —
subgraphs, edge chains and HTML labels are out of scope and raise
:class:`~repro.exceptions.WorkloadError`.
"""

from __future__ import annotations

import re
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

_ID = r'"(?:[^"\\]|\\.)*"|[A-Za-z0-9_.+-]+'
_EDGE_RE = re.compile(rf"^({_ID})\s*->\s*({_ID})\s*(?:\[(.*)\])?$")
_NODE_RE = re.compile(rf"^({_ID})\s*(?:\[(.*)\])?$")
_ATTR_RE = re.compile(rf"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*({_ID})")
_HEADER_RE = re.compile(rf"^\s*(?:strict\s+)?digraph\s*({_ID})?\s*\{{", re.IGNORECASE)


def _quote(label: object) -> str:
    """A DOT identifier: always double-quoted, quotes/backslashes escaped."""
    text = str(label).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _unquote(token: str) -> str:
    """Undo :func:`_quote` (bare identifiers pass through)."""
    token = token.strip()
    if token.startswith('"') and token.endswith('"'):
        return re.sub(r"\\(.)", r"\1", token[1:-1])
    return token


def _attrs_text(attrs: dict[str, object]) -> str:
    """Attribute mapping -> `` [k="v", ...]`` (empty string when empty)."""
    if not attrs:
        return ""
    body = ", ".join(f"{key}={_quote(value)}" for key, value in attrs.items())
    return f" [{body}]"


def _strip_line_comment(line: str) -> str:
    """Drop a trailing ``//`` or ``#`` comment, respecting quoted strings."""
    in_quote = False
    index = 0
    while index < len(line):
        char = line[index]
        if in_quote:
            if char == "\\":
                index += 1
            elif char == '"':
                in_quote = False
        elif char == '"':
            in_quote = True
        elif char == "#" or (char == "/" and line[index + 1 : index + 2] == "/"):
            return line[:index]
        index += 1
    return line


def _split_statements(line: str) -> list[str]:
    """Split on ``;`` separators that sit outside quoted strings."""
    statements: list[str] = []
    current: list[str] = []
    in_quote = False
    index = 0
    while index < len(line):
        char = line[index]
        if in_quote:
            if char == "\\" and index + 1 < len(line):
                current.append(char)
                index += 1
                char = line[index]
            elif char == '"':
                in_quote = False
        elif char == '"':
            in_quote = True
        elif char == ";":
            statements.append("".join(current))
            current = []
            index += 1
            continue
        current.append(char)
        index += 1
    statements.append("".join(current))
    return statements


def _parse(path: str | Path):
    """Parse a digraph file into (graph_attrs, nodes, edges).

    ``nodes`` maps label -> (attrs, line number of its last statement),
    insertion-ordered; ``edges`` is a list of ``(line number, source,
    target, attrs)``.
    """
    text = Path(path).read_text(encoding="utf-8")
    header = _HEADER_RE.match(text)
    stripped = text.rstrip()
    if not header or not stripped.endswith("}"):
        raise WorkloadError(f"not a DOT digraph: {path}")
    graph_attrs: dict[str, str] = {}
    if header.group(1):
        graph_attrs["name"] = _unquote(header.group(1))
    nodes: dict[str, tuple[dict[str, str], int]] = {}
    edges: list[tuple[int, str, str, dict[str, str]]] = []
    body = stripped[header.end() : -1]
    first = text.count("\n", 0, header.end()) + 1
    for number, raw_line in enumerate(body.splitlines(), start=first):
        line = _strip_line_comment(raw_line).strip()
        for statement in filter(None, (s.strip() for s in _split_statements(line))):
            edge_match = _EDGE_RE.match(statement)
            node_match = _NODE_RE.match(statement)
            if edge_match:
                attrs = _parse_attrs(edge_match.group(3))
                source, target = _unquote(edge_match.group(1)), _unquote(edge_match.group(2))
                edges.append((number, source, target, attrs))
            elif node_match:
                token = node_match.group(1)
                label = _unquote(token)
                attrs = _parse_attrs(node_match.group(2))
                if token == "graph":
                    if "flit_width_bits" in attrs:
                        with reading_line(path, number):
                            parse_number(attrs["flit_width_bits"])
                    graph_attrs.update(attrs)
                elif token not in ("node", "edge"):
                    nodes[label] = ({**nodes.get(label, ({}, 0))[0], **attrs}, number)
            else:
                with reading_line(path, number):
                    raise WorkloadError(f"unsupported DOT statement: {statement!r}")
    return graph_attrs, nodes, edges


def _parse_attrs(text: str | None) -> dict[str, str]:
    """An ``[...]`` attribute body -> mapping (values unquoted)."""
    if not text:
        return {}
    return {key: _unquote(value) for key, value in _ATTR_RE.findall(text)}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def write_workload(acg: ApplicationGraph, path: str | Path) -> None:
    """Write an ACG as a DOT digraph (volumes/bandwidths as edge attrs)."""
    lines = [f"digraph {_quote(acg.name or 'workload')} {{"]
    lines.append('  graph [repro_kind="workload"];')
    for node in acg.nodes():
        attrs: dict[str, object] = {}
        if acg.has_position(node):
            position = acg.position(node)
            attrs = {"x": format_float(position.x), "y": format_float(position.y)}
        lines.append(f"  {_quote(node)}{_attrs_text(attrs)};")
    for source, target in acg.edges():
        attrs = {
            "volume": format_float(acg.volume(source, target)),
            "bandwidth": format_float(acg.bandwidth(source, target)),
        }
        lines.append(f"  {_quote(source)} -> {_quote(target)}{_attrs_text(attrs)};")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_workload(path: str | Path) -> ApplicationGraph:
    """Read a DOT digraph into an ACG.

    Arbitrary digraphs import too: unknown attributes are ignored and
    missing volumes default to 1 (bandwidth 0).
    """
    _graph_attrs, nodes, edges = _parse(path)
    acg = ApplicationGraph(name=Path(path).stem)
    for label, (attrs, number) in nodes.items():
        acg.add_node(label, exist_ok=True)
        if "x" in attrs and "y" in attrs:
            with reading_line(path, number):
                acg.set_position(label, parse_number(attrs["x"]), parse_number(attrs["y"]))
    for number, source, target, attrs in edges:
        with reading_line(path, number):
            acg.add_communication(
                source,
                target,
                volume=parse_number(attrs.get("volume", "1")),
                bandwidth=parse_number(attrs.get("bandwidth", "0")),
            )
    return acg


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------
def write_topology(topology: Topology, path: str | Path) -> None:
    """Write a fabric as a DOT digraph (channel attrs on the edges)."""
    lines = [f"digraph {_quote(topology.name or 'topology')} {{"]
    lines.append(
        f'  graph [repro_kind="topology", '
        f'flit_width_bits="{int(topology.flit_width_bits)}"];'
    )
    for node in topology.routers():
        attrs: dict[str, object] = {}
        if topology.has_position(node):
            position = topology.position(node)
            attrs = {"x": format_float(position.x), "y": format_float(position.y)}
        lines.append(f"  {_quote(node)}{_attrs_text(attrs)};")
    for channel in topology.channels():
        attrs = {
            "length_mm": format_float(channel.length_mm),
            "width_bits": str(int(channel.width_bits)),
            "bandwidth": format_float(channel.bandwidth_bits_per_cycle),
        }
        lines.append(
            f"  {_quote(channel.source)} -> {_quote(channel.target)}{_attrs_text(attrs)};"
        )
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_topology(path: str | Path) -> Topology:
    """Read a DOT fabric written by :func:`write_topology`.

    Plain digraphs import as unit-length fabrics at the default flit width.
    """
    graph_attrs, nodes, edges = _parse(path)
    topology = Topology(
        name=graph_attrs.get("name") or Path(path).stem,
        flit_width_bits=int(parse_number(graph_attrs.get("flit_width_bits", "32"))),
    )
    for label, (attrs, number) in nodes.items():
        if "x" in attrs and "y" in attrs:
            with reading_line(path, number):
                x, y = parse_number(attrs["x"]), parse_number(attrs["y"])
            topology.add_router(label, x, y)
        else:
            topology.add_router(label)
    for number, source, target, attrs in edges:
        with reading_line(path, number):
            length = parse_number(attrs["length_mm"]) if "length_mm" in attrs else None
            width = int(parse_number(attrs["width_bits"])) if "width_bits" in attrs else None
            bandwidth = parse_number(attrs["bandwidth"]) if "bandwidth" in attrs else None
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
        name="dot",
        description="Graphviz DOT digraph (renders directly with dot/neato)",
        extensions=(".dot", ".gv"),
        read_workload=read_workload,
        write_workload=write_workload,
        read_topology=read_topology,
        write_topology=write_topology,
        notes=(
            "Reader covers the emitted digraph subset (no subgraphs or edge "
            "chains); repro data rides as plain node/edge attributes."
        ),
    )
)

"""Graphviz DOT syntax for workload and fabric records.

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

from repro.exceptions import WorkloadError
from repro.io.base import (
    GraphFile,
    GraphFormat,
    check_header,
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


def _statements(line: str) -> list[str]:
    """Split a line on the ``;`` separators outside quoted strings, up to
    a ``//`` or ``#`` comment."""
    statements: list[str] = []
    start = index = 0
    in_quote = False
    while index < len(line):
        char = line[index]
        if in_quote:
            if char == "\\":
                index += 1  # skip the escaped character
            elif char == '"':
                in_quote = False
        elif char == '"':
            in_quote = True
        elif char == "#" or line.startswith("//", index):
            break
        elif char == ";":
            statements.append(line[start:index])
            start = index + 1
        index += 1
    statements.append(line[start:index])
    return statements


def parse(path: Path, fields: tuple[str, ...]) -> GraphFile:
    """Read a digraph file.

    The digraph id is the title and the ``graph`` attributes the header;
    a node's ``x``/``y`` attributes (merged over its statements) are its
    position, and the edge attributes named by ``fields`` its fields.
    """
    text = Path(path).read_text(encoding="utf-8")
    header = _HEADER_RE.match(text)
    stripped = text.rstrip()
    if not header or not stripped.endswith("}"):
        raise WorkloadError(f"not a DOT digraph: {path}")
    graph_attrs: dict[str, str] = {}
    nodes: dict[str, tuple[dict[str, str], int]] = {}
    edges: list[tuple[int, str, str, tuple[str | None, ...]]] = []
    body = stripped[header.end() : -1]
    first = text.count("\n", 0, header.end()) + 1
    for number, raw_line in enumerate(body.splitlines(), start=first):
        for statement in filter(None, (s.strip() for s in _statements(raw_line))):
            edge_match = _EDGE_RE.match(statement)
            node_match = _NODE_RE.match(statement)
            if edge_match:
                attrs = _parse_attrs(edge_match.group(3))
                source, target = _unquote(edge_match.group(1)), _unquote(edge_match.group(2))
                edges.append((number, source, target, tuple(map(attrs.get, fields))))
            elif node_match:
                token = node_match.group(1)
                label = _unquote(token)
                attrs = _parse_attrs(node_match.group(2))
                if token == "graph":
                    with reading_line(path, number):
                        graph_attrs.update(check_header(attrs))
                elif token not in ("node", "edge"):
                    nodes[label] = ({**nodes.get(label, ({}, 0))[0], **attrs}, number)
            else:
                with reading_line(path, number):
                    raise WorkloadError(f"unsupported DOT statement: {statement!r}")
    positions = []
    for label, (attrs, number) in nodes.items():
        position = None
        if "x" in attrs and "y" in attrs:
            with reading_line(path, number):
                position = (parse_number(attrs["x"]), parse_number(attrs["y"]))
        positions.append((label, position))
    title = _unquote(header.group(1)) if header.group(1) else None
    return GraphFile(graph_attrs, title, positions, edges)


def _parse_attrs(text: str | None) -> dict[str, str]:
    """An ``[...]`` attribute body -> mapping (values unquoted)."""
    if not text:
        return {}
    return {key: _unquote(value) for key, value in _ATTR_RE.findall(text)}


def render(record: GraphFile, fields: tuple[str, ...]) -> str:
    """A digraph titled by the record: the header as ``graph``
    attributes (``kind`` as ``repro_kind``; the name is the title),
    positions as ``x``/``y`` node attributes and the fields as edge
    attributes."""
    kind = record.header["kind"]
    extra = {key: text for key, text in record.header.items() if key not in ("kind", "name")}
    graph = {"repro_kind": kind, **extra}
    lines = [f"digraph {_quote(record.name or kind)} {{", f"  graph{_attrs_text(graph)};"]
    for label, position in record.nodes:
        attrs = {}
        if position is not None:
            attrs = {"x": format_float(position[0]), "y": format_float(position[1])}
        lines.append(f"  {_quote(label)}{_attrs_text(attrs)};")
    for _, source, target, values in record.edges:
        attrs = dict(zip(fields, values))
        lines.append(f"  {_quote(source)} -> {_quote(target)}{_attrs_text(attrs)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


register_format(
    GraphFormat(
        name="dot",
        description="Graphviz DOT digraph (renders directly with dot/neato)",
        extensions=(".dot", ".gv"),
        parse=parse,
        render=render,
    )
)

"""Guard: every name ``src/`` defines is reached by code or docs, not by tests alone.

A function, class, method, field or module constant earns its place in
``src/`` when something other than the test suite uses it.  The scan
below parses every module under ``src/repro`` with :mod:`ast` and, for
each defined name, looks for the name as a whole word in

- the code of ``src/``: names and string literals, but not comments,
  docstrings or other bare string statements, so prose alone keeps no
  name alive.  The definition itself and package re-exports
  (``import`` statements, ``__all__`` and the lazy name tables of the
  :mod:`repro._lazy` facades) are skipped too, though a facade's call of
  :func:`~repro._lazy.lazy_attributes` is code;
- ``benchmarks/``, ``scripts/``, ``examples/`` and ``perfbench/``;
- ``docs/*.md`` and ``README.md``.

A name found nowhere is reached only by ``tests/`` (or by nothing) and
fails the guard, unless :data:`ALLOWED` lists it with the test that uses
it as a reference implementation or as a checking tool.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
WORD = re.compile(r"\w+")

#: name -> the test that uses it as a reference or as a tool, or the
#: stable facade that promises it to applications.
ALLOWED: dict[str, str] = {
    # Definition 2 as written, the reference for Matching.subtract_from
    "graph_difference": "tests/property/test_residual_copy.py",
    "edge_induced_subgraph": "tests/property/test_residual_copy.py",
    "graph_sum": "tests/property/test_properties.py",
    "node_attributes": "tests/property/test_residual_copy.py",
    # checking tools
    "is_acyclic": "tests/workloads/test_workloads.py (TGFF graphs are DAGs)",
    "all_pairs_shortest_paths": "tests/property/test_engine_equivalence.py (oracle routes)",
    "decrypt_block": "tests/aes/test_aes.py (FIPS-197 round trip)",
    "encrypt_ecb": "tests/aes/test_aes.py (FIPS-197 round trip)",
    "expected_aes_edges": "tests/aes/test_aes.py (the Figure-6a edge set)",
    "mask_of": "tests/core/test_bounds.py",
    "validate_pairs": "tests/integration/test_bidirectional_links.py",
    "acg_from_task_graph": "tests/integration/test_end_to_end.py",
    "all_delivered": "tests/integration/test_end_to_end.py",
    "channel_volume_loads": "tests/integration/test_end_to_end.py (static loads vs simulation)",
    # repro.api._EXPORTS (tests/test_api_facade.py resolves every name)
    "discovered_plugins": "tests/test_api_facade.py",
    "exporter_names": "tests/test_api_facade.py",
    "format_names": "tests/test_api_facade.py",
    "get_library": "tests/test_api_facade.py",
    "infrastructure_router": "tests/test_api_facade.py",
    "register_score": "tests/test_api_facade.py",
}


def _uses_outside_src() -> str:
    """All text of the non-test trees a name may be reached from."""
    paths: list[Path] = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    for tree in ("benchmarks", "scripts", "examples", "perfbench"):
        paths += sorted(
            p
            for p in (ROOT / tree).rglob("*")
            if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".pyc"
        )
    return "\n".join(p.read_text(encoding="utf-8", errors="replace") for p in paths)


def _span(node: ast.AST) -> range:
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return range(first, node.end_lineno + 1)


def _is_reexport(node: ast.stmt, lazy: bool) -> bool:
    """Whether a module-level statement only re-exports names."""
    if isinstance(node, ast.Import | ast.ImportFrom):
        return True
    if not isinstance(node, ast.Assign | ast.AnnAssign):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
        return True
    value = node.value
    # a facade's lazy table: lazy_attributes(__name__, {...}), or a literal
    # {"name": "module", ...} handed to it
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "lazy_attributes":
        return True
    return (
        lazy
        and isinstance(value, ast.Dict)
        and all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in value.keys)
        and all(isinstance(v, ast.Constant) and isinstance(v.value, str) for v in value.values)
    )


def _code_words(source: str, tree: ast.Module) -> list[tuple[str, int]]:
    """``(word, line)`` for each word of ``source``'s code.

    Comments and bare string statements (docstrings among them) are
    prose, not code, and yield nothing.
    """
    prose = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    ]
    words: list[tuple[str, int]] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.STRING and any(a <= token.start < b for a, b in prose):
            continue
        if token.type in (tokenize.NAME, tokenize.STRING):
            for offset, text in enumerate(token.string.splitlines()):
                words += [(word, token.start[0] + offset) for word in WORD.findall(text)]
    return words


def _facade_calls(node: ast.stmt) -> list[tuple[str, int]]:
    """The callee of a facade's ``lazy_attributes(...)`` statement, a use in code."""
    value = getattr(node, "value", None)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return [(value.func.id, value.func.lineno)]
    return []


def _assigned_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(body: list[ast.stmt], owner: str) -> list[tuple[str, str, range]]:
    """``(name, qualified name, line span)`` for each definition in ``body``."""
    found: list[tuple[str, str, range]] = []
    for node in body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            found.append((node.name, f"{owner}.{node.name}", _span(node)))
            if isinstance(node, ast.ClassDef):
                found += _definitions(node.body, f"{owner}.{node.name}")
        else:
            found += [(name, f"{owner}.{name}", _span(node)) for name in _assigned_names(node)]
    return [entry for entry in found if not entry[0].startswith("__")]


def names_only_tests_reach() -> dict[str, list[str]]:
    """Every name defined under ``src/repro`` that only tests reach.

    Maps each such name to the qualified names that define it.
    """
    outside = set(WORD.findall(_uses_outside_src()))
    where: dict[str, set[tuple[Path, int]]] = {}
    spans: dict[str, set[tuple[Path, int]]] = {}
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lazy = "lazy_attributes" in source
        reexports = [node for node in tree.body if _is_reexport(node, lazy)]
        skipped = {line for node in reexports for line in _span(node)}
        uses = [(w, n) for w, n in _code_words(source, tree) if n not in skipped]
        uses += [use for node in reexports for use in _facade_calls(node)]
        for word, number in uses:
            where.setdefault(word, set()).add((path, number))
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for name, qualified, span in _definitions(tree.body, module):
            if span[0] in skipped:
                continue  # a facade's own tables
            spans.setdefault(name, set()).update((path, line) for line in span)
            owners.setdefault(name, []).append(qualified)
    return {
        name: owners[name]
        for name in owners
        if name not in outside and not where.get(name, set()) - spans[name]
    }


def test_every_src_name_is_reached_outside_the_tests() -> None:
    unused = names_only_tests_reach()
    flagged = {name: owners for name, owners in unused.items() if name not in ALLOWED}
    assert not flagged, "defined in src/ but reached only by tests:\n" + "\n".join(
        f"  {', '.join(owners)}" for _, owners in sorted(flagged.items())
    )


def test_the_allowlist_names_only_test_only_names() -> None:
    """A name that code or docs now reach leaves the allowlist."""
    stale = sorted(set(ALLOWED) - set(names_only_tests_reach()))
    assert not stale, f"reached outside the tests, drop from ALLOWED: {stale}"

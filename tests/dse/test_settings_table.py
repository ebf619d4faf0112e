"""The settings table of ``docs/dse.md`` equals the code's declaration.

Each :class:`~repro.dse.pipeline.EvaluationSettings` field declares the
first pipeline stage that reads it and the architectures that read it
(:data:`~repro.dse.pipeline.SETTINGS_READERS`); the "Grids" section of
``docs/dse.md`` lists the same facts, one row per field.  This test parses
that table, so the docs cannot drift from the code.
"""

from __future__ import annotations

from pathlib import Path

from repro.dse.pipeline import SETTINGS_READERS

DOCS = Path(__file__).resolve().parents[2] / "docs" / "dse.md"
HEADER = "| Field | First stage | Read by |"


def table_rows(text: str) -> list[tuple[str, tuple[str, tuple[str, ...]]]]:
    """``(field, (first stage, readers))`` per row of the settings table."""
    lines = text.splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, stage, readers = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((name.strip("`"), (stage, tuple(readers.split(", ")))))
    return rows


def test_docs_table_equals_the_declaration():
    rows = table_rows(DOCS.read_text(encoding="utf-8"))
    names = [name for name, _ in rows]
    assert len(names) == len(set(names)), "a field is listed twice"
    assert dict(rows) == SETTINGS_READERS


def test_an_edited_row_breaks_the_match():
    text = DOCS.read_text(encoding="utf-8")
    row = "| `engine` | simulate | custom, mesh |"
    assert row in text
    for edited in ("| `engine` | synthesize | custom, mesh |", "| `engine` | simulate | mesh |"):
        assert dict(table_rows(text.replace(row, edited))) != SETTINGS_READERS

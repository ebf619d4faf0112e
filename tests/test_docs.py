"""Documentation health: links resolve, worked examples stay extractable."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
CHECKER = REPO_ROOT / "scripts" / "check_docs.py"


def test_docs_tree_exists():
    for name in ("architecture.md", "dse.md", "paper-mapping.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} is missing"


def test_readme_links_docs_tree():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for name in ("docs/architecture.md", "docs/dse.md", "docs/paper-mapping.md"):
        assert name in readme, f"README does not link {name}"


def test_relative_links_resolve():
    completed = subprocess.run(
        [sys.executable, str(CHECKER), "--links"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_dangling_anchors_are_reported(tmp_path):
    """A ``#fragment`` must name a heading of the target Markdown file."""
    sys.path.insert(0, str(CHECKER.parent))
    try:
        from check_docs import broken_links
    finally:
        sys.path.pop(0)
    (tmp_path / "other.md").write_text("# Other\n\n## Section two\n", encoding="utf-8")
    page = tmp_path / "page.md"
    page.write_text(
        "# Page\n\n"
        "## The cell pipeline: `run_cells`\n\n"
        "```bash\n# not a heading\n```\n\n"
        "[good](#the-cell-pipeline-run_cells) [bad](#not-a-heading)\n"
        "[good](other.md#section-two) [bad](other.md#section-three)\n",
        encoding="utf-8",
    )
    assert broken_links(page) == ["#not-a-heading", "other.md#section-three"]


def test_worked_example_blocks_are_marked():
    """The CI docs job runs the marked blocks; make sure they exist."""
    sys.path.insert(0, str(CHECKER.parent))
    try:
        from check_docs import markdown_files, smoke_tested_blocks
    finally:
        sys.path.pop(0)
    blocks = [
        block for markdown in markdown_files() for block in smoke_tested_blocks(markdown)
    ]
    assert blocks, "no smoke-tested bash blocks found in the docs"
    assert any("repro.dse run" in block for block in blocks)

#!/usr/bin/env python3
"""Documentation checks: resolve relative links, run smoke-tested examples.

Two modes, combinable:

``--links`` (default when no mode is given)
    Scan the curated Markdown files (``README.md`` + ``docs/``; the
    generated ``PAPERS.md``/``SNIPPETS.md`` dumps are excluded) for
    relative links/images and fail if a target file does not exist, or
    if a ``#fragment`` names no heading of the target Markdown file (the
    linking file itself for a bare ``#fragment``), by GitHub's heading
    anchors.  External (``http``/``https``/``mailto``) links are not
    fetched.

``--examples``
    Extract every fenced ``bash`` block that is immediately preceded by a
    ``<!-- smoke-tested: docs-ci -->`` marker and execute it with
    ``bash -euo pipefail`` from the repository root (a temp HOME-less
    environment is not needed: the blocks only write into the working
    directory given by ``--workdir``).  This keeps the worked examples in
    ``docs/dse.md`` from rotting.

Exit status: 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MARKER = "<!-- smoke-tested: docs-ci -->"
#: markdown inline links/images: [text](target) / ![alt](target)
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: ATX headings (``## Title``), with any closing ``#`` run
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*?)(?:\s+#+)?\s*$")


def markdown_files() -> list[Path]:
    """The curated docs: ``README.md`` plus everything under ``docs/``."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").rglob("*.md")))
    return [path for path in files if path.exists()]


@cache
def heading_anchors(markdown: Path) -> frozenset[str]:
    """The GitHub-style anchors of a Markdown file's headings.

    An anchor is the heading's text, lower-cased, with link targets and
    every character but letters, digits, ``-``, ``_`` and spaces dropped
    and spaces turned into ``-``; a repeated anchor gets ``-1``, ``-2``, ...
    Headings inside fenced code blocks do not count.
    """
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    fenced = False
    for line in markdown.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith(("```", "~~~")):
            fenced = not fenced
            continue
        match = None if fenced else HEADING_PATTERN.match(line)
        if match is None:
            continue
        text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", match.group(1))
        anchor = re.sub(r"[^\w\- ]", "", text.lower()).replace(" ", "-")
        repeats = seen.get(anchor, 0)
        seen[anchor] = repeats + 1
        anchors.add(f"{anchor}-{repeats}" if repeats else anchor)
    return frozenset(anchors)


def broken_links(markdown: Path) -> list[str]:
    """The relative link targets of one Markdown file that do not resolve."""
    broken: list[str] = []
    for match in LINK_PATTERN.finditer(markdown.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = (markdown.parent / path_part).resolve() if path_part else markdown
        if not resolved.exists():
            broken.append(target)
        elif fragment and resolved.suffix == ".md" and fragment not in heading_anchors(resolved):
            broken.append(target)
    return broken


def check_links() -> list[str]:
    """All broken relative link targets, as ``file: target`` strings."""
    return [
        f"{markdown.relative_to(REPO_ROOT)}: {target}"
        for markdown in markdown_files()
        for target in broken_links(markdown)
    ]


def smoke_tested_blocks(markdown: Path) -> list[str]:
    """The ``bash`` blocks tagged with the smoke-tested marker, in order."""
    blocks: list[str] = []
    lines = markdown.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if line.strip() != MARKER:
            continue
        cursor = index + 1
        while cursor < len(lines) and not lines[cursor].strip():
            cursor += 1
        if cursor >= len(lines) or not lines[cursor].strip().startswith("```bash"):
            continue
        cursor += 1
        body: list[str] = []
        while cursor < len(lines) and lines[cursor].strip() != "```":
            body.append(lines[cursor])
            cursor += 1
        blocks.append("\n".join(body))
    return blocks


def run_examples(workdir: Path) -> list[str]:
    """Execute every smoke-tested block; returns failure descriptions."""
    failures: list[str] = []
    environment = dict(os.environ)
    # the blocks run from ``workdir``, so resolve any relative PYTHONPATH
    # entries (e.g. CI's ``PYTHONPATH=src``) against the repository root
    entries = [
        entry if os.path.isabs(entry) else str((REPO_ROOT / entry).resolve())
        for entry in environment.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    if not entries:
        entries = [str(REPO_ROOT / "src")]
    environment["PYTHONPATH"] = os.pathsep.join(entries)
    for markdown in markdown_files():
        for number, block in enumerate(smoke_tested_blocks(markdown), start=1):
            label = f"{markdown.relative_to(REPO_ROOT)} block {number}"
            print(f"== running {label} ==")
            completed = subprocess.run(
                ["bash", "-euo", "pipefail", "-c", block],
                cwd=workdir,
                env=environment,
            )
            if completed.returncode != 0:
                failures.append(f"{label} exited with {completed.returncode}")
    return failures


def main(argv: list[str] | None = None) -> int:
    """Run the selected documentation checks."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true",
                        help="check that relative markdown links resolve")
    parser.add_argument("--examples", action="store_true",
                        help="run the smoke-tested bash blocks of the docs")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="directory the example blocks run in "
                             "(default: a fresh temporary directory)")
    arguments = parser.parse_args(argv)
    if not arguments.links and not arguments.examples:
        arguments.links = True

    status = 0
    if arguments.links:
        broken = check_links()
        if broken:
            print("broken relative links:")
            for problem in broken:
                print(f"  {problem}")
            status = 1
        else:
            print(f"links OK across {len(markdown_files())} markdown files")
    if arguments.examples:
        if arguments.workdir is not None:
            arguments.workdir.mkdir(parents=True, exist_ok=True)
            failures = run_examples(arguments.workdir)
        else:
            with tempfile.TemporaryDirectory() as temporary:
                failures = run_examples(Path(temporary))
        if failures:
            print("example failures:")
            for failure in failures:
                print(f"  {failure}")
            status = 1
        else:
            print("worked examples OK")
    return status


if __name__ == "__main__":
    sys.exit(main())

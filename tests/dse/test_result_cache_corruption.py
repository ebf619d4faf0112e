"""Corrupted result-cache lines are skipped and counted, never fatal.

A result-cache line holds one :class:`~repro.dse.records.EvaluationRecord`
stamped with the pipeline version.  Each stored member of a real record
is replaced in turn by a value of each JSON type; the line must either
load as a record that ``report`` renders or be skipped and counted, and
``report`` must exit 0 either way.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.dse.__main__ import main
from repro.dse.cache import PIPELINE_VERSION, ResultCache
from repro.dse.pipeline import EvaluationSettings, evaluate
from repro.dse.records import EvaluationRecord
from repro.dse.scenarios import build_suite

#: every member of a stored line: the stamp and the stored fields
MEMBERS = (
    "pipeline_version",
    *(spec.name for spec in fields(EvaluationRecord) if spec.name != "from_cache"),
)

#: one value of each JSON type
VALUES = {
    "string": "x",
    "number": 7,
    "list": [1, 2],
    "object": {"k": 1},
    "null": None,
    "bool": True,
}


@pytest.fixture(scope="module")
def stored() -> dict[str, object]:
    """A custom cell's record as its cache line stores it."""
    record = evaluate(build_suite("smoke")[0], EvaluationSettings(architecture="custom"))
    record.cache_key = "k1"
    return {"pipeline_version": PIPELINE_VERSION, **json.loads(record.to_json())}


@pytest.mark.parametrize("kind", sorted(VALUES))
@pytest.mark.parametrize("member", MEMBERS)
def test_a_wrongly_typed_member_is_skipped_or_rendered(stored, member, kind, tmp_path, capsys):
    mutated = {**stored, "cache_key": "k2", member: VALUES[kind]}
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(stored) + "\n" + json.dumps(mutated) + "\n", encoding="utf-8")

    assert main(["report", "--results", str(path)]) == 0
    capsys.readouterr()
    cache = ResultCache(path)
    assert len(cache.load()) + cache.skipped_lines + cache.stale_lines == 2
    assert "k1" in cache.load()


def test_run_skips_the_lines_that_crashed_it(stored, tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    lines = [
        {**stored, "cache_key": ["k"]},
        {**stored, "metrics": [1, 2]},
        {**stored, "stage_reuse": 7},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code = main(["run", "--suite", "smoke", "--axis", "architecture=mesh",
                 "--results", str(path), "--no-artifacts"])
    assert code == 0
    assert "3 malformed cache line(s) skipped" in capsys.readouterr().out

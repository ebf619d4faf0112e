"""Golden records of the explorer grid the ``dse_grid`` benchmark runs.

``tests/fixtures/golden/grid_records.json`` pins every record of the
``embedded`` suite crossed with ``GRID_AXES``, which is read from
``perfbench/workloads.py`` by path, so the corpus follows the benchmark's
grid.  Records are keyed by ``scenario/config_label`` (the label carries
the cell's axes) and keep the fields that are results: ``metrics``,
``status``, ``error``, ``stage_reuse``, ``deadlock_free``,
``constraints_satisfied`` and ``search_statistics`` less the search's
``elapsed_seconds``.  Timings, cache keys and the pipeline version are left
out, so a change that re-keys cells keeps the corpus, while a change to
any result fails naming the scenario, the label and the field.  The file
holds one compact JSON line per record.  Regenerate it only on purpose:

    PYTHONPATH=src python -m pytest tests/dse/test_golden_grid.py --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.dse.cache import ResultCache, StageArtifactStore
from repro.dse.runner import plan_sweep, run_cells
from repro.dse.scenarios import get_suite
from test_perfbench_boundaries import load as load_perfbench

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = ROOT / "tests" / "fixtures" / "golden" / "grid_records.json"

#: the record fields the corpus pins
PINNED = (
    "metrics",
    "status",
    "error",
    "stage_reuse",
    "deadlock_free",
    "constraints_satisfied",
    "search_statistics",
)


@pytest.fixture(scope="module")
def cells():
    spec = get_suite("embedded")
    return plan_sweep(spec.build(), spec.base_settings, load_perfbench("workloads").GRID_AXES)


def sweep(cells, directory: Path, **options) -> dict[str, dict[str, object]]:
    """The pinned fields of every record of one cold sweep, by
    ``scenario/config_label``, as the benchmark runs it (fresh result
    cache and stage-artifact store)."""
    result = run_cells(
        cells,
        cache=ResultCache(directory / "results.jsonl"),
        artifacts=StageArtifactStore(directory / "stage_artifacts"),
        **options,
    )
    records = {}
    for record in result.records:
        stored = json.loads(record.to_json())
        pinned = {name: stored[name] for name in PINNED}
        pinned["search_statistics"].pop("elapsed_seconds", None)
        records[f"{record.scenario}/{record.config_label}"] = pinned
    return records


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def render(records: dict[str, dict[str, object]]) -> str:
    """The corpus text: a JSON object with one compact line per record."""
    lines = [f"{json.dumps(label)}:{_canonical(records[label])}" for label in sorted(records)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def differences(name: str, actual: object, expected: object) -> list[tuple[str, object, object]]:
    """``(field, actual, corpus)`` per differing field; a dict field
    (``metrics``, ``search_statistics``, ...) is compared key by key."""
    if isinstance(actual, dict) and isinstance(expected, dict):
        return [
            difference
            for key in sorted(actual.keys() | expected.keys())
            for difference in differences(f"{name}.{key}", actual.get(key), expected.get(key))
        ]
    return [] if _canonical(actual) == _canonical(expected) else [(name, actual, expected)]


def mismatches(actual, expected) -> list[str]:
    """One line per label missing on either side or pinned field that differs."""
    problems = []
    for label in sorted(actual.keys() | expected.keys()):
        if label not in expected:
            problems.append(f"{label}: not in the corpus")
        elif label not in actual:
            problems.append(f"{label}: missing from the sweep")
        else:
            problems.extend(
                f"{label}: {field} is {_canonical(value)}, corpus has {_canonical(pinned)}"
                for name in PINNED
                for field, value, pinned in differences(
                    name, actual[label][name], expected[label][name]
                )
            )
    return problems


def load_corpus() -> dict[str, dict[str, object]]:
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; generate it with "
        "pytest tests/dse/test_golden_grid.py --update-golden"
    )
    return json.loads(GOLDEN_PATH.read_text())


def assert_matches(actual) -> None:
    problems = mismatches(actual, load_corpus())
    assert not problems, f"{len(problems)} differences, first ones:\n" + "\n".join(problems[:10])


def test_update_golden_corpus(cells, tmp_path, request):
    """Regenerate the corpus with ``--update-golden`` (no-op otherwise)."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("corpus update not requested (pass --update-golden)")
    GOLDEN_PATH.write_text(render(sweep(cells, tmp_path)))


def test_serial_grid_matches_the_corpus(cells, tmp_path, request):
    """A cold serial sweep of the grid reproduces every pinned field."""
    if request.config.getoption("--update-golden"):
        pytest.skip("corpus being regenerated in this run")
    records = sweep(cells, tmp_path)
    assert len(records) == len(cells)
    assert_matches(records)


@pytest.mark.differential
def test_parallel_grid_matches_the_corpus(cells, tmp_path, request):
    """A two-worker sweep equals the serial corpus on every pinned field,
    ``stage_reuse`` included: a worker runs every cap of a graph, so it
    shares the syntheses and simulation runs a serial sweep shares."""
    if request.config.getoption("--update-golden"):
        pytest.skip("corpus being regenerated in this run")
    records = sweep(cells, tmp_path, parallel=True, max_workers=2)
    assert len(records) == len(cells)
    assert_matches(records)


def test_a_changed_field_is_named():
    """A mismatch line names the scenario, the label and the field."""
    corpus = load_corpus()
    label = min(corpus)
    metrics = {**corpus[label]["metrics"], "energy_uj": -1.0}
    changed = {**corpus, label: {**corpus[label], "status": "failed", "metrics": metrics}}
    assert mismatches(changed, corpus) == [
        f'{label}: metrics.energy_uj is -1.0, corpus has {corpus[label]["metrics"]["energy_uj"]!r}',
        f'{label}: status is "failed", corpus has "ok"',
    ]
    assert "/" in label and "architecture=" in label

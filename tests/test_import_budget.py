"""What a fresh process loads: the lazy package facades and their budget.

``repro``, ``repro.api``, ``repro.dse``, ``repro.obs``,
``repro.experiments`` and ``repro.plugins`` resolve their names on first
access (PEP 562).  The budget tests run in a subprocess so this module's
own imports cannot contaminate ``sys.modules``.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: modules that neither importing a facade nor a serial sweep may load
HEAVY = (
    "importlib.metadata",
    "concurrent.futures.process",
    "multiprocessing",
    "repro.plugins.discovery",
    "repro.dse.search",
    "repro.dse.analysis",
    "repro.obs.export",
    "repro.experiments.ablation",
)

#: the process-pool modules a serial sweep must not load
POOL = ("concurrent.futures", "concurrent.futures.process", "multiprocessing")

FACADES = ("repro", "repro.dse", "repro.obs", "repro.experiments", "repro.plugins", "repro.api")

#: the packages of the flow itself, which neither top-level facade may load
FLOW = ("repro.core", "repro.noc", "repro.dse")


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter on the package sources."""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_SRC)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def loaded(names: tuple[str, ...]) -> str:
    """Script text printing which of ``names`` are in ``sys.modules``."""
    return f"print(','.join(m for m in {names!r} if m in sys.modules) or 'CLEAN')"


@pytest.mark.parametrize("package", ["repro.dse", "repro.experiments", "repro.plugins"])
def test_importing_a_package_loads_no_heavy_module(package):
    assert run_fresh(f"import sys; import {package}; {loaded(HEAVY)}") == "CLEAN"


@pytest.mark.parametrize("package", ["repro", "repro.api"])
def test_the_top_level_facades_load_none_of_the_flow(package):
    script = (
        f"import sys; import {package}; "
        f"print(','.join(m for m in sys.modules if m.startswith({FLOW!r})) or 'CLEAN')"
    )
    assert run_fresh(script) == "CLEAN"


def test_a_serial_sweep_loads_no_pool_and_discovers_at_the_first_listing():
    """Planning loads no discovery; the first registry listing does."""
    script = "\n".join(
        [
            "import sys",
            "from repro.dse import SCORES, get_suite, plan_sweep, run_cells",
            "spec = get_suite('smoke')",
            "cells = plan_sweep(spec.build(), spec.base_settings, spec.default_axes)",
            "print('discovery' if 'repro.plugins.discovery' in sys.modules else 'lazy')",
            "SCORES.names()",
            "print('discovery' if 'repro.plugins.discovery' in sys.modules else 'lazy')",
            "result = run_cells(cells)",
            "assert result.records and all(r.succeeded for r in result.records)",
            loaded(POOL),
        ]
    )
    assert run_fresh(script).splitlines() == ["lazy", "discovery", "CLEAN"]


@pytest.mark.parametrize("package", FACADES)
class TestLazyFacade:
    def test_every_advertised_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name

    def test_dir_covers_all(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")


def test_submodules_still_import_through_the_facades():
    from repro.dse import analysis, search
    from repro.experiments import ablation
    from repro.obs import export
    from repro.plugins import discovery

    assert search.run_search is importlib.import_module("repro.dse").run_search
    assert analysis.pareto_front is importlib.import_module("repro.dse").pareto_front
    assert ablation.AblationResult is importlib.import_module("repro.experiments").AblationResult
    assert export.EXPORTERS is importlib.import_module("repro.obs").EXPORTERS
    assert discovery.discover is importlib.import_module("repro.plugins").discover


def test_a_lazy_name_follows_a_patch_of_its_module(monkeypatch):
    """The facade caches nothing: a wrapper installed on the defining module
    is what the facade answers, and the original comes back with it."""
    import repro.dse
    import repro.dse.search

    original = repro.dse.search.run_search

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    assert repro.dse.run_search is original
    monkeypatch.setattr(repro.dse.search, "run_search", wrapper)
    assert repro.dse.run_search is wrapper
    monkeypatch.undo()
    assert repro.dse.run_search is original
    assert "run_search" not in vars(repro.dse)

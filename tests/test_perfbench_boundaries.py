"""The benchmark's layer boundaries and imports resolve against ``src/``.

``perfbench/tracing.py`` wraps one method or function per layer (its
``_boundaries()``), and ``perfbench/workloads.py`` imports the names the
timed workloads call.  Deleting or renaming any of them breaks the traced
benchmark run; this test catches that in the ordinary test suite by
loading both files by path, unchanged.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # leave no cache files in the benchmark's directory
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_workload_imports_resolve():
    load("workloads")


@pytest.mark.parametrize(
    "boundary",
    load("tracing")._boundaries(),
    ids=lambda boundary: f"{boundary[0]}:{getattr(boundary[1], '__name__', '?')}.{boundary[2]}",
)
def test_boundary_target_exists(boundary):
    _, owner, attribute, _, _ = boundary
    if inspect.isclass(owner):
        assert attribute in owner.__dict__
    else:
        assert callable(getattr(owner, attribute))

"""Tests for the exception hierarchy and the top-level public API surface."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestExceptionHierarchy:
    def test_all_exceptions_derive_from_repro_error(self):
        exception_classes = [
            obj
            for obj in vars(exceptions).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        assert len(exception_classes) >= 15
        for cls in exception_classes:
            assert issubclass(cls, exceptions.ReproError) or cls is exceptions.ReproError

    def test_node_and_edge_errors_carry_context(self):
        node_error = exceptions.NodeNotFoundError("x")
        assert node_error.node == "x"
        edge_error = exceptions.EdgeNotFoundError(1, 2)
        assert edge_error.source == 1 and edge_error.target == 2
        dup_edge = exceptions.DuplicateEdgeError(1, 2)
        assert "1" in str(dup_edge)

    def test_deadlock_error_lists_cycle(self):
        error = exceptions.DeadlockError([("a", "b"), ("b", "a")])
        assert len(error.cycle) == 2
        assert "deadlock" in str(error)
        assert exceptions.DeadlockError().cycle == []

    def test_single_except_clause_catches_everything(self):
        for cls in (exceptions.GraphError, exceptions.SynthesisError, exceptions.RoutingError):
            with pytest.raises(exceptions.ReproError):
                raise cls("boom")


class TestPublicApi:
    def test_version_and_dunder_all(self):
        assert repro.__version__
        assert set(repro.__all__) <= set(dir(repro))

    def test_headline_symbols_exported(self):
        for name in (
            "ApplicationGraph",
            "CommunicationLibrary",
            "default_library",
            "decompose",
            "DecompositionConfig",
            "synthesize_architecture",
            "UnitCostModel",
            "LinkCountCostModel",
            "EnergyCostModel",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_subpackages_import_and_reexport_nothing(self):
        """The substrate packages hold a docstring only: their names are
        imported from the defining modules (or through ``repro.api``)."""
        import importlib

        for name in ("aes", "arch", "core", "energy", "floorplan", "noc", "routing", "workloads"):
            package = importlib.import_module(f"repro.{name}")
            assert package.__doc__
            assert not hasattr(package, "__all__")


class TestExampleScripts:
    """Smoke coverage for the example applications' building blocks."""

    def test_quickstart_application_builder(self):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "quickstart_example", Path(__file__).parent.parent / "examples" / "quickstart.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        acg = module.build_application()
        assert acg.num_nodes == 8
        assert all(acg.has_position(node) for node in acg.nodes())

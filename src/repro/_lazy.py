"""Lazy module attributes (PEP 562) for the package facades.

A facade re-exports names from modules that many processes never call:
``repro.dse`` the guided search and the Pareto analysis, ``repro.obs``
the exporters, ``repro.experiments`` every figure's experiment,
``repro.plugins`` the entry-point scan, ``repro.api`` the whole library.
:func:`lazy_attributes` gives such a facade its module ``__getattr__``
and ``__dir__``: the defining module is imported on the first access of
one of its names, and ``dir()`` lists the lazy names beside the loaded
ones.

The returned ``__getattr__`` caches nothing in the facade's globals.
Each access reads the defining module's binding as it is now, so a name
patched there (a test's monkeypatch, a profiler's wrapper) is what the
facade answers while the patch is in place, and the original once it is
undone.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from importlib import import_module


def lazy_attributes(
    module_name: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the module ``module_name``.

    ``exports`` maps each lazy name to the module that defines it.  An
    unknown name raises :class:`AttributeError`, so ``from facade import
    submodule`` still falls back to importing the submodule.
    """

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}") from None
        return getattr(import_module(source), name)

    def __dir__() -> list[str]:
        namespace = vars(sys.modules[module_name])
        return sorted(set(namespace) | set(namespace.get("__all__", ())) | set(exports))

    return __getattr__, __dir__

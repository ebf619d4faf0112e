"""The generic registry kernel every named extension point is built on.

A :class:`Registry` is a typed name -> object mapping with three
behaviours that used to be hand-rolled (slightly differently) in
``repro.arch.families``, ``repro.routing.policies`` and
``repro.dse.scenarios``:

* **uniform errors** — an unknown name always raises
  :class:`~repro.exceptions.UnknownPluginError` listing the sorted
  available names plus a nearest-match suggestion, whatever the registry;
* **lazy third-party discovery** — a lookup miss (and every ``names()``
  listing) first loads the ``repro.plugins`` entry-point group
  (:mod:`repro.plugins.discovery`), so families, policies, traffic modes
  and scoring functions shipped by external packages appear without any
  edit inside ``repro.*``;
* **provenance** — objects registered while a plugin is loading are
  tagged with the distribution that provided them, so listings can say
  where a name came from.

The kernel deliberately knows nothing about what it stores: the value
type is a free type parameter and callers keep their existing
``register_*`` / ``get_*`` wrapper functions as the stable API.
"""

from __future__ import annotations

import difflib
from collections.abc import Callable, Iterator
from typing import Generic, TypeVar

from repro.exceptions import PluginError, UnknownPluginError

T = TypeVar("T")

#: provenance label for objects registered by repro itself
BUILTIN_PROVIDER = "builtin"


class Registry(Generic[T]):
    """A typed name -> object registry with uniform errors and discovery.

    ``kind`` is the human-readable singular used in error messages and
    listings (``"topology family"``, ``"routing policy"``, ...).
    Registering an existing name replaces it (last registration wins),
    which is what lets a test or a plugin shadow a built-in deliberately.
    """

    def __init__(
        self,
        kind: str,
        *,
        discover: bool = True,
    ) -> None:
        self.kind = kind
        self._items: dict[str, T] = {}
        self._providers: dict[str, str] = {}
        self._discover_enabled = discover

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, obj: T) -> T:
        """Register (or replace) ``obj`` under ``name``; returns ``obj``."""
        if not isinstance(name, str) or not name:
            raise PluginError(f"a {self.kind} name must be a non-empty string, got {name!r}")
        self._items[name] = obj
        self._providers[name] = _current_provider()
        return obj

    def decorate(self, name: str) -> Callable[[T], T]:
        """Decorator form of :meth:`register`: ``@registry.decorate("name")``."""

        def _register(obj: T) -> T:
            return self.register(name, obj)

        return _register

    def unregister(self, name: str) -> T:
        """Remove and return the object registered under ``name``."""
        if name not in self._items:
            raise self.unknown(name)
        self._providers.pop(name, None)
        return self._items.pop(name)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> T:
        """Look ``name`` up; on a miss, discover plugins once and retry.

        Raises :class:`~repro.exceptions.UnknownPluginError` (listing the
        available names and the closest match) when the name stays unknown
        after discovery.
        """
        try:
            return self._items[name]
        except KeyError:
            pass
        self._run_discovery()
        try:
            return self._items[name]
        except KeyError:
            raise self.unknown(name) from None

    def names(self) -> list[str]:
        """All registered names, sorted (after plugin discovery)."""
        self._run_discovery()
        return sorted(self._items)

    def items(self) -> dict[str, T]:
        """A name -> object snapshot, in sorted-name order (after discovery)."""
        self._run_discovery()
        return {name: self._items[name] for name in sorted(self._items)}

    def provider(self, name: str) -> str:
        """Which distribution registered ``name`` (``"builtin"`` for repro's own)."""
        if name not in self._items:
            raise self.unknown(name)
        return self._providers.get(name, BUILTIN_PROVIDER)

    def unknown(self, name: str) -> UnknownPluginError:
        """The uniform lookup error for ``name`` (available names + suggestion)."""
        available = sorted(self._items)
        matches = difflib.get_close_matches(str(name), available, n=1, cutoff=0.5)
        return UnknownPluginError(
            self.kind, name, available, suggestion=matches[0] if matches else None
        )

    def _run_discovery(self) -> None:
        if not self._discover_enabled:
            return
        # imported lazily: discovery pulls in importlib.metadata, which is
        # noticeably slower than this module and unneeded until a lookup
        from repro.plugins.discovery import discover

        discover()

    # ------------------------------------------------------------------
    # protocol sugar
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._items))

    def __repr__(self) -> str:
        return f"<Registry kind={self.kind!r} names={sorted(self._items)}>"


# ----------------------------------------------------------------------
# provider tagging (set by discovery while a plugin entry point loads)
# ----------------------------------------------------------------------
_PROVIDER_STACK: list[str] = []


def _current_provider() -> str:
    return _PROVIDER_STACK[-1] if _PROVIDER_STACK else BUILTIN_PROVIDER


class providing:
    """Context manager tagging registrations with a provider name.

    Used by :mod:`repro.plugins.discovery` around each entry point's load
    so that everything the plugin registers is attributed to its
    distribution; also handy in tests.
    """

    def __init__(self, provider: str) -> None:
        self.provider = provider

    def __enter__(self) -> "providing":
        _PROVIDER_STACK.append(self.provider)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _PROVIDER_STACK.pop()

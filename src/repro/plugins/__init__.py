"""Plugin fabric: the registry kernel and entry-point discovery.

Every named extension point in repro — topology families, routing
policies, scenario suites, communication libraries, traffic modes,
scoring functions, interchange formats — is one :class:`Registry`
instance from this package.  The kernel gives them all the same
contract:

* ``register``/``get``/``names`` with **uniform unknown-name errors**
  (:class:`~repro.exceptions.UnknownPluginError`: sorted available names
  plus a nearest-match suggestion);
* **third-party discovery** through the ``repro.plugins`` entry-point
  group (:data:`ENTRY_POINT_GROUP`), loaded lazily on the first lookup
  miss or listing, so external packages extend sweeps without touching
  ``repro.*`` (importing this package does not load
  :mod:`repro.plugins.discovery`: its names resolve on first access);
* **provenance**: names registered by a plugin are tagged with the
  providing distribution.

See ``docs/plugins.md`` for the worked third-party example.
"""

from repro._lazy import lazy_attributes
from repro.plugins.registry import BUILTIN_PROVIDER, Registry, providing

# the discovery names load importlib.metadata, so they resolve on first use
__getattr__, __dir__ = lazy_attributes(
    __name__,
    dict.fromkeys(
        (
            "ENTRY_POINT_GROUP",
            "PluginFailure",
            "discover",
            "discovered_plugins",
            "plugin_failures",
            "reset_discovery",
        ),
        "repro.plugins.discovery",
    ),
)

__all__ = [
    "Registry",
    "providing",
    "BUILTIN_PROVIDER",
    "ENTRY_POINT_GROUP",
    "PluginFailure",
    "discover",
    "discovered_plugins",
    "plugin_failures",
    "reset_discovery",
]

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

#: public name -> the module that defines it, imported on first access
_EXPORTS: dict[str, str] = {
    "Registry": "repro.plugins.registry",
    "providing": "repro.plugins.registry",
    "BUILTIN_PROVIDER": "repro.plugins.registry",
    "ENTRY_POINT_GROUP": "repro.plugins.discovery",
    "PluginFailure": "repro.plugins.discovery",
    "discover": "repro.plugins.discovery",
    "discovered_plugins": "repro.plugins.discovery",
    "plugin_failures": "repro.plugins.discovery",
    "reset_discovery": "repro.plugins.discovery",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_attributes(__name__, _EXPORTS)

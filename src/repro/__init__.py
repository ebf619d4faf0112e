"""repro: energy- and performance-driven NoC communication architecture
synthesis using a decomposition approach (DATE 2005 reproduction).

The code is organised in subpackages:

* :mod:`repro.core` — ACGs, the communication library, the branch-and-bound
  decomposition, and topology synthesis (the paper's contribution).
* :mod:`repro.energy` — Equation-1 bit-energy model, technology points and
  traffic-driven power accounting.
* :mod:`repro.arch` — topology abstraction, the standard-fabric family
  registry (mesh, torus, ring, spidergon, fat tree, long-range mesh),
  customized topologies and structural metrics.
* :mod:`repro.routing` — shortest paths, table routing, the routing-policy
  registry (XY/YX, turn models, dateline, up*/down*, shortest path) and
  CDG deadlock analysis.
* :mod:`repro.noc` — cycle-based NoC simulator used for the prototype-style
  throughput / latency / energy comparison.
* :mod:`repro.floorplan` — simple floorplanner providing core coordinates.
* :mod:`repro.workloads` — TGFF-like and Pajek-like benchmark generators.
* :mod:`repro.aes` — AES-128 and its distributed 16-node byte-slice model.
* :mod:`repro.plugins` — the registry kernel behind every extension point
  and ``repro.plugins`` entry-point discovery for third-party packages.
* :mod:`repro.io` — graph interchange (Pajek, Graphviz DOT, weighted edge
  lists) with exact round-trips for workloads and fabrics.
* :mod:`repro.experiments` — the experiments behind every figure and table.
* :mod:`repro.dse` — batch design-space exploration: scenario suites
  (including ``file:`` suites over interchange files), a cached sweep
  runner and Pareto-front reporting (``python -m repro.dse``).

Import rule: an application imports public names from :mod:`repro.api`,
or as ``repro.X``, which resolves through the same table; nothing is
loaded before a name is first touched.  Library code, tests and scripts
import each name from the module that defines it
(``from repro.noc.simulator import NoCSimulator``); the subpackages
re-export nothing.

Quickstart::

    from repro import ApplicationGraph, default_library, decompose, synthesize_architecture

    acg = ApplicationGraph.from_traffic({(1, 2): 128, (2, 1): 128, (1, 3): 64})
    result = decompose(acg, default_library())
    architecture = synthesize_architecture(acg, result)
    print(result.describe())
    print(architecture.describe())
"""

from repro._lazy import lazy_attributes
from repro.api import _EXPORTS

__version__ = "1.0.0"

__all__ = ["__version__", *sorted(_EXPORTS)]

__getattr__, __dir__ = lazy_attributes(__name__, _EXPORTS)

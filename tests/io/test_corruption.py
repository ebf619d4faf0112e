"""Corrupted interchange files fail cleanly or read back as graphs.

Each built-in format writes one small workload and one small fabric;
every single-token mutation of those files (each token replaced in turn
by each entry of :data:`REPLACEMENTS`) must either raise
:class:`~repro.exceptions.WorkloadError` or read back as a graph that
survives its own write/read round trip.  Any other exception — a
``SynthesisError`` from a negative channel length, say — is a reader
that let bad input reach the graph model.
"""

from __future__ import annotations

import re

import pytest

from repro.arch.topology import Topology
from repro.core.graph import ApplicationGraph
from repro.dse.pipeline import Scenario
from repro.exceptions import WorkloadError
from repro.io import get_format, read_topology, read_workload, write_topology, write_workload

#: what each token is replaced by: empty, out-of-range and non-finite
#: numbers, and every format's structural punctuation and keywords
REPLACEMENTS = (
    "", "-1", "0", "1.5", "nan", "1e400", '"', "\\", "*Arcs", "*Vertices", "%", "#%",
    "=", "[", "]", "->", ";", "{", "}", "graph",
)

#: a token is a word between spaces, quotes and the punctuation ``=,[];{}``
_TOKEN_RE = re.compile(r'[^\s"=,\[\];{}]+')


def _workload() -> ApplicationGraph:
    acg = ApplicationGraph(name="tiny")
    for node in "abcd":
        acg.add_node(node)
    acg.set_position("a", 0.0, 1.5)
    acg.add_communication("a", "b", volume=3.0, bandwidth=0.5)
    acg.add_communication("b", "c", volume=2.0)
    return acg


def _fabric() -> Topology:
    fabric = Topology(name="tiny", flit_width_bits=16)
    fabric.add_router("a", 0.0, 1.5)
    fabric.add_channel("a", "b", length_mm=2.5, bandwidth_bits_per_cycle=8.0)
    fabric.add_channel("b", "c", width_bits=32)
    return fabric


def _fingerprint(acg: ApplicationGraph) -> dict:
    return Scenario(name="probe", acg=acg, description="probe").structural_fingerprint()


KINDS = {
    # kind: (graph, write, read, identity)
    "workload": (_workload, write_workload, read_workload, _fingerprint),
    "topology": (_fabric, write_topology, read_topology, Topology.signature),
}


def _mutations(text: str):
    """Every text with one token replaced by one replacement."""
    for match in _TOKEN_RE.finditer(text):
        start, end = match.span()
        for replacement in REPLACEMENTS:
            if replacement != text[start:end]:
                yield text[:start] + replacement + text[end:]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("fmt", ["pajek", "edgelist", "dot"])
def test_every_single_token_mutation_fails_cleanly_or_reads_back(tmp_path, fmt, kind):
    build, write, read, identity = KINDS[kind]
    extension = get_format(fmt).extensions[0]
    path, copy = tmp_path / f"graph{extension}", tmp_path / f"copy{extension}"
    write(build(), path, fmt=fmt)
    leaks, survivors = [], set()
    for text in _mutations(path.read_text(encoding="utf-8")):
        path.write_text(text, encoding="utf-8")
        try:
            graph = read(path, fmt=fmt)
        except WorkloadError:
            continue
        except Exception as error:  # any other exception is the leak under test
            leaks.append((text, repr(error)))
            continue
        original = repr(identity(graph))
        if original not in survivors:
            write(graph, copy, fmt=fmt)
            if repr(identity(read(copy, fmt=fmt))) != original:
                leaks.append((text, "does not survive its own round trip"))
            survivors.add(original)
    assert not leaks, f"{len(leaks)} mutations leaked, e.g. {leaks[:3]}"

"""The constraint check searches the bisection only when it is read.

``ConstraintChecker.check`` runs the exact bisection search for a
``max_bisection_bandwidth`` limit; without one, the report computes the
bisection bandwidth on its first read, once.
"""

from __future__ import annotations

import pytest

import repro.core.constraints as constraints_module
from repro.arch.metrics import bisection_bandwidth
from repro.arch.topology import Topology
from repro.core.constraints import ConstraintChecker, DesignConstraints
from repro.core.graph import ApplicationGraph
from repro.routing.policies import get_policy
from repro.routing.table import RoutingTable


@pytest.fixture()
def searches(monkeypatch) -> list[object]:
    """The topologies the constraint module's bisection search ran on."""
    calls: list[object] = []

    def counting(topology, *args, **kwargs):
        calls.append(topology)
        return bisection_bandwidth(topology, *args, **kwargs)

    monkeypatch.setattr(constraints_module, "bisection_bandwidth", counting)
    return calls


@pytest.fixture()
def routed(mesh_4x4):
    acg = ApplicationGraph.from_traffic({(1, 16): 64.0, (6, 11): 32.0})
    return mesh_4x4, get_policy("xy").build(mesh_4x4), acg


def test_a_check_without_a_limit_runs_no_search(routed, searches):
    topology, table, acg = routed
    report = ConstraintChecker().check(topology, table, acg)
    assert report.satisfied
    assert searches == []
    expected = bisection_bandwidth(topology).bandwidth_bits_per_cycle
    assert report.bisection_bandwidth == expected
    assert report.bisection_bandwidth == expected
    assert searches == [topology]


def test_a_limit_runs_the_search_once_and_reports_its_violation(routed, searches):
    topology, table, acg = routed
    bisection = bisection_bandwidth(topology).bandwidth_bits_per_cycle
    report = ConstraintChecker(DesignConstraints(max_bisection_bandwidth=bisection / 2)).check(
        topology, table, acg
    )
    assert not report.satisfied
    assert any("bisection" in violation for violation in report.violations)
    assert report.bisection_bandwidth == bisection
    assert searches == [topology]
    report = ConstraintChecker(DesignConstraints(max_bisection_bandwidth=bisection)).check(
        topology, table, acg
    )
    assert report.satisfied


def test_a_single_router_has_no_bisection(searches):
    lonely = Topology(name="lonely")
    lonely.add_router(1)
    acg = ApplicationGraph.from_traffic({})
    acg.add_node(1)
    report = ConstraintChecker(DesignConstraints(max_bisection_bandwidth=1.0)).check(
        lonely, RoutingTable(lonely), acg
    )
    assert report.satisfied
    assert report.bisection_bandwidth is None
    assert searches == []

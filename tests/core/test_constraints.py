"""Unit tests for design-constraint checking (Section 4.2)."""

from __future__ import annotations

import pytest

from repro.arch.topology import Topology
from repro.core.constraints import (
    ConstraintChecker,
    DesignConstraints,
    channel_bandwidth_loads,
    channel_volume_loads,
)
from repro.core.graph import ApplicationGraph
from repro.routing.table import RoutingTable


@pytest.fixture()
def line_topology() -> Topology:
    """Three routers in a line: 1 <-> 2 <-> 3."""
    topology = Topology(name="line", flit_width_bits=32)
    topology.add_router(1, 0, 0)
    topology.add_router(2, 2, 0)
    topology.add_router(3, 4, 0)
    topology.add_channel(1, 2, bidirectional=True)
    topology.add_channel(2, 3, bidirectional=True)
    return topology


@pytest.fixture()
def line_table(line_topology) -> RoutingTable:
    table = RoutingTable(line_topology)
    table.install_path([1, 2, 3])
    table.install_path([3, 2, 1])
    table.install_path([1, 2])
    table.install_path([2, 3])
    return table


def line_acg(bandwidth: float) -> ApplicationGraph:
    acg = ApplicationGraph.from_traffic({(1, 3): 100.0, (1, 2): 50.0})
    for source, target in acg.edges():
        acg.edge_attributes(source, target)["bandwidth"] = bandwidth
    return acg


class TestChannelLoads:
    def test_bandwidth_loads_aggregate_along_routes(self, line_table):
        acg = line_acg(bandwidth=4.0)
        loads = channel_bandwidth_loads(acg, line_table)
        # edge (1,3) rides 1->2->3, edge (1,2) rides 1->2
        assert loads[(1, 2)] == pytest.approx(8.0)
        assert loads[(2, 3)] == pytest.approx(4.0)

    def test_volume_loads(self, line_table):
        acg = line_acg(bandwidth=0.0)
        loads = channel_volume_loads(acg, line_table)
        assert loads[(1, 2)] == pytest.approx(150.0)
        assert loads[(2, 3)] == pytest.approx(100.0)


class TestConstraintChecker:
    def test_all_constraints_satisfied(self, line_topology, line_table):
        acg = line_acg(bandwidth=1.0)
        report = ConstraintChecker(DesignConstraints()).check(line_topology, line_table, acg)
        assert report.satisfied
        assert report.violations == []
        assert report.bisection_bandwidth is not None
        assert "satisfied" in report.describe()

    def test_link_capacity_violation(self, line_topology, line_table):
        acg = line_acg(bandwidth=40.0)  # 80 > 32 bits/cycle on (1,2)
        report = ConstraintChecker(DesignConstraints()).check(line_topology, line_table, acg)
        assert not report.satisfied
        assert any("overloaded" in violation for violation in report.violations)

    def test_explicit_link_capacity_overrides_channel_capacity(self, line_topology, line_table):
        acg = line_acg(bandwidth=10.0)  # 20 on (1,2), above an explicit cap of 16
        constraints = DesignConstraints(link_capacity_bits_per_cycle=16.0)
        report = ConstraintChecker(constraints).check(line_topology, line_table, acg)
        assert not report.satisfied

    def test_bisection_bandwidth_limit(self, line_topology, line_table):
        acg = line_acg(bandwidth=0.1)
        constraints = DesignConstraints(max_bisection_bandwidth=10.0)
        report = ConstraintChecker(constraints).check(line_topology, line_table, acg)
        assert not report.satisfied
        assert any("bisection" in violation for violation in report.violations)

    def test_router_degree_limit(self, line_topology, line_table):
        acg = line_acg(bandwidth=0.1)
        constraints = DesignConstraints(max_router_degree=1)
        report = ConstraintChecker(constraints).check(line_topology, line_table, acg)
        assert not report.satisfied
        assert any("degree" in violation for violation in report.violations)
        assert report.max_router_degree == 2

    def test_unroutable_traffic_reported(self, line_topology):
        table = RoutingTable(line_topology)  # empty table
        acg = line_acg(bandwidth=1.0)
        report = ConstraintChecker(DesignConstraints()).check(line_topology, table, acg)
        assert not report.satisfied
        assert any("unroutable" in violation for violation in report.violations)

    def test_unroutable_traffic_ignored_when_not_required(self, line_topology):
        table = RoutingTable(line_topology)
        acg = line_acg(bandwidth=1.0)
        constraints = DesignConstraints(require_connected_traffic=False)
        report = ConstraintChecker(constraints).check(line_topology, table, acg)
        assert report.satisfied


class TestAesArchitectureConstraints(object):
    def test_synthesized_aes_architecture_satisfies_constraints(self, aes_synthesis):
        report = aes_synthesis.architecture.constraint_report
        assert report is not None
        assert report.satisfied, report.violations

    def test_aes_channel_loads_respect_paper_bandwidth_argument(self, aes_synthesis):
        """Section 4.2: an implementation link carries the sum of the bandwidth
        requirements of every requirement edge mapped onto it."""
        acg = aes_synthesis.acg
        table = aes_synthesis.architecture.routing_table
        loads = channel_bandwidth_loads(acg, table)
        max_single = max(acg.bandwidth(s, t) for s, t in acg.edges())
        assert max(loads.values()) >= max_single

"""Routing substrate: shortest paths, table routing, the routing-policy
registry (XY/YX, turn models, dateline, up*/down*, shortest path; XY
routes the paper's standard-mesh baseline) and deadlock analysis."""

from repro.routing.deadlock import (
    DeadlockReport,
    analyze_deadlock,
    build_channel_dependency_graph,
)
from repro.routing.policies import (
    POLICIES,
    PolicySpec,
    build_policy_table,
    get_policy,
    policy_names,
    register_policy,
    supported_policies,
)
from repro.routing.shortest_path import all_pairs_shortest_paths, bfs_shortest_path
from repro.routing.table import RoutingTable

__all__ = [
    "RoutingTable",
    "POLICIES",
    "PolicySpec",
    "register_policy",
    "policy_names",
    "get_policy",
    "build_policy_table",
    "supported_policies",
    "bfs_shortest_path",
    "all_pairs_shortest_paths",
    "DeadlockReport",
    "analyze_deadlock",
    "build_channel_dependency_graph",
]

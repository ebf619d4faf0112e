"""Routing substrate: shortest paths, table routing, the routing-policy
registry (XY/YX, turn models, dateline, up*/down*, shortest path; XY
routes the paper's standard-mesh baseline) and deadlock analysis."""

"""Workload generators: TGFF-like task graphs, Pajek-like random graphs,
published embedded-benchmark ACGs, curated example ACGs and conversion
helpers."""

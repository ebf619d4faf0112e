"""Cycle-based NoC simulation substrate (simulator, packets, traffic, stats)."""

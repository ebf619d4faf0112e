"""Cycle-based NoC simulation substrate (simulator, packets, traffic, stats)."""

from repro.noc.packet import Message, Packet
from repro.noc.simulator import (
    ENGINE_EVENT,
    ENGINES,
    LOCAL_PORT,
    NoCSimulator,
    SimulatorConfig,
)
from repro.noc.stats import SimulationStatistics, throughput_mbps_from_cycles
from repro.noc.traffic import (
    InjectionSchedule,
    acg_messages,
    split_volume_into_messages,
    uniform_random_messages,
)

__all__ = [
    "Message",
    "Packet",
    "LOCAL_PORT",
    "NoCSimulator",
    "SimulatorConfig",
    "ENGINE_EVENT",
    "ENGINES",
    "SimulationStatistics",
    "throughput_mbps_from_cycles",
    "acg_messages",
    "uniform_random_messages",
    "split_volume_into_messages",
    "InjectionSchedule",
]

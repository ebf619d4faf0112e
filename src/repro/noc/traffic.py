"""Traffic generation for the NoC simulator.

Three kinds of traffic are needed by the experiments:

* **ACG traffic** — the application's communication volumes turned into
  packets (used to exercise a synthesized architecture with exactly the
  traffic its decomposition was derived from);
* **uniform random traffic** — the classical synthetic pattern, used by the
  load/latency sweeps that characterise an architecture's saturation point;
* **permutation-style patterns** (transpose, bit-complement) — stress
  patterns used by the extended benchmarks.

Dependency-aware traffic (the distributed AES rounds) is produced by
:mod:`repro.aes.distributed` as explicit phases.  The DSE pipeline
(:mod:`repro.dse.pipeline`) turns them into an op program, a schedule and
a drain per phase plus the computation allowance, and replays it on a
fresh simulator.
"""

from __future__ import annotations

import math
import random
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.noc.packet import Message

NodeId = Hashable


def split_volume_into_messages(
    source: NodeId, destination: NodeId, volume_bits: float, packet_size_bits: int, tag: str = ""
) -> list[Message]:
    """Split a communication volume into packet-sized messages."""
    if packet_size_bits <= 0:
        raise WorkloadError("packet size must be positive")
    if volume_bits <= 0:
        return []
    count = max(1, math.ceil(volume_bits / packet_size_bits))
    remaining = int(round(volume_bits))
    messages: list[Message] = []
    for _ in range(count):
        size = min(packet_size_bits, remaining) if remaining > 0 else packet_size_bits
        size = max(size, 1)
        messages.append(Message(source=source, destination=destination, size_bits=size, tag=tag))
        remaining -= size
    return messages


def acg_messages(acg: ApplicationGraph, packet_size_bits: int = 32, tag: str = "acg") -> list[Message]:
    """One batch of messages carrying every ACG edge's volume once."""
    messages: list[Message] = []
    for source, target in acg.edges():
        messages.extend(
            split_volume_into_messages(
                source, target, acg.volume(source, target), packet_size_bits, tag=tag
            )
        )
    return messages


def uniform_random_messages(
    nodes: Sequence[NodeId],
    num_messages: int,
    size_bits: int = 64,
    seed: int = 0,
) -> list[Message]:
    """Uniform random source/destination pairs (no self-traffic)."""
    if len(nodes) < 2:
        raise WorkloadError("uniform random traffic needs at least two nodes")
    if num_messages < 0:
        raise WorkloadError("message count must be non-negative")
    rng = random.Random(seed)
    messages: list[Message] = []
    for _ in range(num_messages):
        source, destination = rng.sample(list(nodes), 2)
        messages.append(
            Message(source=source, destination=destination, size_bits=size_bits, tag="uniform")
        )
    return messages


@dataclass(frozen=True)
class InjectionSchedule:
    """Messages with explicit injection cycles (open-loop load sweeps)."""

    entries: tuple[tuple[int, Message], ...]

    @classmethod
    def periodic(
        cls, messages: Sequence[Message], period_cycles: int, seed: int = 0, jitter: int = 0
    ) -> "InjectionSchedule":
        """Spread messages over time, one batch every ``period_cycles``.

        ``jitter`` adds a uniform random offset in ``[0, jitter]`` cycles to
        each injection so that synchronized bursts do not artificially
        serialize on the same channel.  ``period_cycles`` must be an ``int``
        (not a ``bool``) of at least 1.
        """
        if not isinstance(period_cycles, int) or isinstance(period_cycles, bool):
            raise WorkloadError(f"injection period must be an int, got {period_cycles!r}")
        if period_cycles < 1:
            raise WorkloadError("injection period must be at least one cycle")
        if jitter < 0:
            raise WorkloadError(f"injection jitter must be non-negative, got {jitter!r}")
        rng = random.Random(seed)
        entries: list[tuple[int, Message]] = []
        for index, message in enumerate(messages):
            offset = rng.randint(0, jitter) if jitter > 0 else 0
            entries.append((index * period_cycles + offset, message))
        return cls(entries=tuple(entries))

    def schedule_onto(self, simulator) -> None:
        """Schedule every entry at its injection cycle on a simulator.

        Open-loop schedules with long inter-injection gaps are where the
        event-driven engine's idle-cycle skipping pays off most; this helper
        keeps the call sites one-liners.
        """
        for cycle, message in self.entries:
            simulator.schedule_message(message, cycle=cycle)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

"""Customized (application-specific) topologies with provenance tracking.

The customized architecture of the paper is obtained by gluing together the
implementation graphs of all chosen primitives plus direct links for the
remainder edges (Section 3).  :class:`CustomTopology` extends the generic
:class:`~repro.arch.topology.Topology` with provenance: every channel knows
which primitive instance (or remainder edge) created it, which is useful for
reporting, debugging and for the ablation benchmarks that compare resource
usage across libraries.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.arch.topology import Channel, Topology

NodeId = Hashable


@dataclass(frozen=True)
class ChannelOrigin:
    """Where a channel of a customized topology came from."""

    kind: str
    """``"primitive"`` or ``"remainder"``."""
    label: str
    """Primitive name + matching index, or ``"remainder"``."""

    def __str__(self) -> str:
        return self.label


class CustomTopology(Topology):
    """Topology assembled from primitive implementation graphs + remainder links."""

    def __init__(self, name: str = "custom", flit_width_bits: int = 32) -> None:
        super().__init__(name=name, flit_width_bits=flit_width_bits)
        self._origins: dict[tuple[NodeId, NodeId], list[ChannelOrigin]] = {}

    def add_channel_with_origin(
        self,
        source: NodeId,
        target: NodeId,
        origin: ChannelOrigin,
        length_mm: float | None = None,
        width_bits: int | None = None,
        bandwidth_bits_per_cycle: float | None = None,
        bidirectional: bool = False,
    ) -> Channel:
        """Like :meth:`add_channel`, recording the origin of the channel."""
        channel = self.add_channel(
            source,
            target,
            length_mm=length_mm,
            width_bits=width_bits,
            bandwidth_bits_per_cycle=bandwidth_bits_per_cycle,
            bidirectional=False,
        )
        self._origins.setdefault((source, target), []).append(origin)
        if bidirectional:
            self.add_channel_with_origin(
                target,
                source,
                origin,
                length_mm=length_mm,
                width_bits=width_bits,
                bandwidth_bits_per_cycle=bandwidth_bits_per_cycle,
                bidirectional=False,
            )
        return channel

    def origins(self, source: NodeId, target: NodeId) -> list[ChannelOrigin]:
        """All origins that contributed the channel (may be several matchings)."""
        return list(self._origins.get((source, target), []))

    def describe(self) -> str:
        lines = [
            f"Customized topology {self.name!r}: {self.num_routers} routers, "
            f"{self.num_physical_links} physical links "
            f"({self.num_channels} directed channels)"
        ]
        for (source, target), origins in sorted(
            self._origins.items(), key=lambda item: (repr(item[0][0]), repr(item[0][1]))
        ):
            labels = ", ".join(str(origin) for origin in origins)
            lines.append(f"  {source!r} -> {target!r}  [{labels}]")
        return "\n".join(lines)

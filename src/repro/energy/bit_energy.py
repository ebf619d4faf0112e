"""The bit-energy model of Equation 1.

The energy consumed by moving one bit of information from network node ``i``
to network node ``j`` over ``n_hops`` routers is

    E_bit(i, j) = n_hops * E_Sbit + (n_hops - 1) * E_Lbit            (Eq. 1)

where ``E_Sbit`` is the per-bit switch (router) energy and ``E_Lbit`` the
per-bit link energy.  ``n_hops`` counts the routers on the path, so a
transfer between directly connected routers traverses two switches and one
link.  When the links have different physical lengths (the general case for
a customized topology), the single ``(n_hops - 1) * E_Lbit`` term becomes a
sum of per-link energies; :class:`BitEnergyModel` supports both forms.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.energy.link_model import LinkEnergyModel
from repro.energy.technology import DEFAULT_TECHNOLOGY, Technology
from repro.exceptions import EnergyModelError


@dataclass(frozen=True)
class BitEnergyModel:
    """Computes ``E_bit`` for paths described by hop count or link lengths."""

    technology: Technology = DEFAULT_TECHNOLOGY

    @property
    def link_model(self) -> LinkEnergyModel:
        return LinkEnergyModel(self.technology)

    # ------------------------------------------------------------------
    # Equation 1 in its two forms
    # ------------------------------------------------------------------
    def bit_energy_for_lengths(self, link_lengths_mm: Sequence[float]) -> float:
        """Equation 1 generalised to per-link lengths (customized topologies).

        A path with ``L`` links traverses ``L + 1`` routers.
        """
        num_links = len(link_lengths_mm)
        switch = (num_links + 1) * self.technology.switch_energy_pj_per_bit
        links = sum(self.link_model.link_energy_pj(length) for length in link_lengths_mm)
        return switch + links

    def transfer_energy_pj(self, volume_bits: float, link_lengths_mm: Sequence[float]) -> float:
        """Energy to move ``volume_bits`` bits along a path with the given links."""
        if volume_bits < 0:
            raise EnergyModelError("volume must be non-negative")
        return volume_bits * self.bit_energy_for_lengths(link_lengths_mm)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

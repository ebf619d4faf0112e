"""Energy and power accounting for simulated NoC traffic.

The paper's prototype comparison measures (i) average power with Xilinx
XPower using actual simulation traces and (ii) the energy per encrypted
128-bit block as ``E = (cycles/block) / f_clk * P_avg``.  We reproduce the
same accounting on top of the cycle-based simulator: every router traversal
and every link traversal of every bit is charged to an :class:`EnergyAccount`
using the technology's ``E_Sbit`` / ``E_Lbit`` figures, leakage is charged
per router per cycle, and the account converts totals into average power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.link_model import LinkEnergyModel
from repro.energy.technology import DEFAULT_TECHNOLOGY, Technology
from repro.exceptions import EnergyModelError


@dataclass
class EnergyAccount:
    """Accumulates dynamic and static energy over a simulation run."""

    technology: Technology = DEFAULT_TECHNOLOGY
    switch_events_bits: float = 0.0
    _link_energy_pj: float = 0.0
    _leakage_pj: float = 0.0
    _link_model: LinkEnergyModel | None = field(
        default=None, init=False, repr=False, compare=False
    )
    """Lazily built per-technology link model, shared by every charge."""
    _link_pj_per_bit: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    """Per-length ``E_Lbit`` figures, cached on the account so the hot
    charge path skips the model call entirely."""

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge_switch(self, bits: float) -> None:
        """Charge one router traversal of ``bits`` bits."""
        if bits < 0:
            raise EnergyModelError("cannot charge a negative number of bits")
        self.switch_events_bits += bits

    def charge_link(self, bits: float, length_mm: float) -> None:
        """Charge one link-traversal batch of ``bits`` bits over ``length_mm``."""
        if bits < 0:
            raise EnergyModelError("cannot charge a negative number of bits")
        pj_per_bit = self._link_pj_per_bit.get(length_mm)
        if pj_per_bit is None:
            if self._link_model is None:
                self._link_model = LinkEnergyModel(self.technology)
            pj_per_bit = self._link_model.link_energy_pj(length_mm)
            self._link_pj_per_bit[length_mm] = pj_per_bit
        self._link_energy_pj += bits * pj_per_bit

    def charge_leakage(self, num_routers: int, num_cycles: int) -> None:
        """Charge static energy for ``num_routers`` routers over ``num_cycles``."""
        if num_routers < 0 or num_cycles < 0:
            raise EnergyModelError("router and cycle counts must be non-negative")
        # mW * ns = pJ
        self._leakage_pj += (
            self.technology.leakage_power_mw_per_router
            * num_routers
            * num_cycles
            * self.technology.cycle_time_ns
        )

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    @property
    def switch_energy_pj(self) -> float:
        return self.switch_events_bits * self.technology.switch_energy_pj_per_bit

    @property
    def link_energy_pj(self) -> float:
        return self._link_energy_pj

    @property
    def leakage_energy_pj(self) -> float:
        return self._leakage_pj

    @property
    def dynamic_energy_pj(self) -> float:
        return self.switch_energy_pj + self.link_energy_pj

    @property
    def total_energy_pj(self) -> float:
        return self.dynamic_energy_pj + self.leakage_energy_pj

    @property
    def total_energy_uj(self) -> float:
        """Total energy in microjoules (the unit the paper reports per block)."""
        return self.total_energy_pj * 1e-6

    # ------------------------------------------------------------------
    # derived figures of merit
    # ------------------------------------------------------------------
    def average_power_mw(self, num_cycles: int) -> float:
        """Average power over ``num_cycles`` cycles, in milliwatts."""
        if num_cycles <= 0:
            raise EnergyModelError("average power needs a positive cycle count")
        elapsed_ns = num_cycles * self.technology.cycle_time_ns
        return self.total_energy_pj / elapsed_ns  # pJ / ns == mW

    def summary(self) -> dict[str, float]:
        return {
            "switch_energy_pj": self.switch_energy_pj,
            "link_energy_pj": self.link_energy_pj,
            "leakage_energy_pj": self.leakage_energy_pj,
            "total_energy_pj": self.total_energy_pj,
        }

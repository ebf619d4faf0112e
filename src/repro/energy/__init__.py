"""Energy models: technology points, Equation-1 bit energy, link model, power.

Public entry points:

* :class:`repro.energy.technology.Technology` and the shipped catalogue
  (:data:`CMOS_180NM`, :data:`FPGA_VIRTEX2`, ...),
* :class:`repro.energy.bit_energy.BitEnergyModel` — Equation 1,
* :class:`repro.energy.link_model.LinkEnergyModel` — length/repeater-aware
  ``E_Lbit``,
* :class:`repro.energy.power.EnergyAccount` — traffic-driven energy/power
  accounting used by the simulator-based comparisons.
"""

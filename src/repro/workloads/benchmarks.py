"""Published embedded-benchmark Application Characterization Graphs.

The NoC synthesis/mapping literature evaluates on a small canon of
multimedia application core graphs with published inter-core bandwidth
annotations (MB/s): the MPEG-4 decoder, the Video Object Plane Decoder
(VOPD), the Multi-Window Display (MWD) and the combined H.263 encoder +
MP3 decoder.  This module reproduces those ACGs so the batch
design-space exploration (:mod:`repro.dse`) has representative real
workloads beyond the paper's AES case study.

The node names and graph structure follow the standard published graphs
(van der Tol & Jaspers for MPEG-4/VOPD; Srinivasan & Chatha for MWD;
Hu & Marculescu for 263enc+mp3dec) with the bandwidth annotations as
commonly reproduced in the mapping literature; several slightly
different variants of these tables circulate, so the exact figures
should be treated as representative rather than normative.

Bandwidths are stored as communication *volumes* via the
``bits_per_mbs`` scale (bits of simulated traffic per MB/s of annotated
bandwidth) so one batch of ACG traffic stays small enough for the
cycle-level simulator, while the relative channel loads — which is what
shapes the synthesized topology — match the published tables.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.graph import ApplicationGraph
from repro.exceptions import WorkloadError
from repro.workloads.acg_builder import attach_grid_floorplan

#: default scale: bits of simulated volume per MB/s of published bandwidth
DEFAULT_BITS_PER_MBS = 4.0

#: minimum per-edge volume so even faint control edges carry one flit
MIN_EDGE_VOLUME_BITS = 32.0


def _acg_from_bandwidth_table(
    name: str,
    table: Mapping[tuple[str, str], float],
    bits_per_mbs: float,
    bandwidth_fraction: float,
    floorplanned: bool,
    core_size_mm: float,
) -> ApplicationGraph:
    if bits_per_mbs <= 0:
        raise WorkloadError("bits_per_mbs must be positive")
    acg = ApplicationGraph(name=name)
    for source, target in table:
        acg.add_node(source, exist_ok=True)
        acg.add_node(target, exist_ok=True)
    for (source, target), rate_mb_s in table.items():
        if rate_mb_s <= 0:
            raise WorkloadError(f"bandwidth for {source}->{target} must be positive")
        volume = max(rate_mb_s * bits_per_mbs, MIN_EDGE_VOLUME_BITS)
        acg.add_communication(
            source, target, volume=volume, bandwidth=bandwidth_fraction * volume
        )
    if floorplanned:
        attach_grid_floorplan(acg, core_size_mm=core_size_mm)
    return acg


#: MPEG-4 decoder (12 cores).  The defining feature is the SDRAM hub that
#: almost every core talks to — the pattern that makes MPEG-4 the classic
#: argument for application-specific (non-mesh) topologies.
MPEG4_BANDWIDTH_MB_S: dict[tuple[str, str], float] = {
    ("up_samp", "sdram"): 910.0,
    ("sdram", "bab"): 670.0,
    ("rast", "sdram"): 640.0,
    ("risc", "sdram"): 500.0,
    ("idct", "sdram"): 250.0,
    ("vu", "sdram"): 190.0,
    ("med_cpu", "sdram"): 60.0,
    ("med_cpu", "sram2"): 40.0,
    ("risc", "sram1"): 32.0,
    ("risc", "sram2"): 16.0,
    ("au", "sdram"): 1.0,
    ("adsp", "sdram"): 1.0,
}

#: Video Object Plane Decoder (12 cores): a deep pipeline from the variable
#: length decoder to the VOP memory, with the stripe-memory feedback loop
#: around AC/DC prediction and the ARM control tap.
VOPD_BANDWIDTH_MB_S: dict[tuple[str, str], float] = {
    ("vld", "run_le_dec"): 70.0,
    ("run_le_dec", "inv_scan"): 362.0,
    ("inv_scan", "acdc_pred"): 362.0,
    ("acdc_pred", "iquant"): 362.0,
    ("acdc_pred", "stripe_mem"): 49.0,
    ("stripe_mem", "acdc_pred"): 27.0,
    ("iquant", "idct"): 357.0,
    ("idct", "up_samp"): 353.0,
    ("up_samp", "vop_rec"): 300.0,
    ("vop_rec", "pad"): 313.0,
    ("pad", "vop_mem"): 313.0,
    ("vop_mem", "pad"): 500.0,
    ("idct", "arm"): 16.0,
    ("arm", "pad"): 16.0,
}

#: Multi-Window Display (12 cores): two scaling pipelines through frame
#: memories that join in the blend stage.
MWD_BANDWIDTH_MB_S: dict[tuple[str, str], float] = {
    ("in", "nr"): 128.0,
    ("in", "hvs"): 96.0,
    ("nr", "mem1"): 64.0,
    ("mem1", "hs"): 64.0,
    ("hs", "mem2"): 96.0,
    ("mem2", "vs"): 96.0,
    ("vs", "mem3"): 96.0,
    ("mem3", "jug1"): 64.0,
    ("vs", "jug2"): 64.0,
    ("jug1", "se"): 64.0,
    ("jug2", "se"): 64.0,
    ("se", "blend"): 64.0,
    ("hvs", "blend"): 96.0,
}

#: H.263 encoder + MP3 decoder (12 cores): two independent clusters sharing
#: one chip — the encoder loop dominated by frame-store traffic plus the
#: much lighter MP3 chain.
H263ENC_MP3DEC_BANDWIDTH_MB_S: dict[tuple[str, str], float] = {
    # H.263 encoder cluster
    ("enc_in", "me"): 119.0,
    ("fs", "me"): 301.0,
    ("me", "fs"): 47.0,
    ("me", "mc_dct"): 95.0,
    ("mc_dct", "q"): 76.0,
    ("q", "vlc"): 76.0,
    ("q", "iq_idct"): 76.0,
    ("iq_idct", "fs"): 94.0,
    # MP3 decoder cluster
    ("mp3_in", "huff"): 9.0,
    ("huff", "dequant"): 9.0,
    ("dequant", "imdct"): 14.0,
    ("imdct", "pcm_out"): 11.0,
}

_BENCHMARK_TABLES: dict[str, dict[tuple[str, str], float]] = {
    "mpeg4": MPEG4_BANDWIDTH_MB_S,
    "vopd": VOPD_BANDWIDTH_MB_S,
    "mwd": MWD_BANDWIDTH_MB_S,
    "h263enc_mp3dec": H263ENC_MP3DEC_BANDWIDTH_MB_S,
}


def embedded_benchmark_names() -> list[str]:
    """Names of the published embedded-benchmark ACGs shipped here."""
    return sorted(_BENCHMARK_TABLES)


def embedded_benchmark_acg(
    name: str,
    bits_per_mbs: float = DEFAULT_BITS_PER_MBS,
    bandwidth_fraction: float = 0.01,
    floorplanned: bool = True,
    core_size_mm: float = 2.0,
) -> ApplicationGraph:
    """Build one published embedded-benchmark ACG by name."""
    try:
        table = _BENCHMARK_TABLES[name]
    except KeyError as error:
        raise WorkloadError(
            f"unknown embedded benchmark {name!r}; available: {embedded_benchmark_names()}"
        ) from error
    return _acg_from_bandwidth_table(
        name,
        table,
        bits_per_mbs=bits_per_mbs,
        bandwidth_fraction=bandwidth_fraction,
        floorplanned=floorplanned,
        core_size_mm=core_size_mm,
    )


def embedded_benchmark_suite(
    bits_per_mbs: float = DEFAULT_BITS_PER_MBS,
) -> list[ApplicationGraph]:
    """All published embedded-benchmark ACGs, name-sorted."""
    return [
        embedded_benchmark_acg(name, bits_per_mbs=bits_per_mbs)
        for name in embedded_benchmark_names()
    ]

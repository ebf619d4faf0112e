#!/usr/bin/env python
"""Benchmark the NoC simulator engines and record the perf trajectory.

Runs the prototype benchmark workloads (AES operating point, open-loop
throughput, zero-load latency probes, multi-flit energy traffic) on the
event-driven and (when numpy is available) batched numpy engines,
verifies their reports are bit-identical, and appends one entry per
invocation to ``BENCH_simulator.json`` (wall-clock, simulated
cycles/sec, stepped-vs-skipped cycle counts) so the speedup trajectory
is tracked across PRs.

Each workload is sampled ``REPEATS`` times with the engines interleaved
within every repeat (event[, batch], event, ...), so a slow spell of a
shared host falls on all engines alike.  Per engine the minimum and the
median wall are recorded, and ``batch_wall_speedup`` is the median of
the per-repeat ratios of paired samples.  ``stepped_cycle_ratio`` is
``cycles_total`` over the event engine's ``cycles_stepped``: how many
cycles a run stepping every cycle executes per cycle the event engine
executes.

The full suite adds ``aes_batched_sweep``: the dense AES operating point
swept over 16 ``(buffer capacity, pipeline delay)`` configurations,
measuring one :class:`~repro.noc.batch.BatchSimulator` run of all 16
cells against 16 solo event-engine runs *and* against 16 solo batch runs
(the per-cell amortization figure).

Usage::

    PYTHONPATH=src python scripts/bench_simulator.py                # smoke suite
    PYTHONPATH=src python scripts/bench_simulator.py --suite full   # + custom AES
    PYTHONPATH=src python scripts/bench_simulator.py --check        # CI gate

``--check`` exits non-zero unless, on every workload, the reports are
identical across engines and repeats and the event engine executed
strictly fewer cycles than it simulated (``cycles_stepped`` below
``cycles_total``).

``--check-batch`` (requires ``--suite full`` and numpy) additionally
gates the batch engine on *wall clock*, not just stepped cycles: the
B=16 batched sweep of the dense AES operating point must beat 16 solo
event runs outright, per-cell reports must stay bit-identical, and the
sweep must amortize per-cell cost at least ``AMORTIZATION_FLOOR``x over
16 solo batch runs.  Solo (B=1) runs are not wall-gated — the batch
engine only pays off when one :class:`~repro.noc.batch.BatchSimulator`
advances many cells at once; the DSE pipeline runs every cell on its own,
so only callers that drive ``BatchSimulator`` directly get that gain.

Each invocation also measures the observability overhead on the drained
workloads (event engine): ``off`` (no session at all), ``null`` (the
disabled :data:`~repro.obs.NULL_SESSION` explicitly installed — the path
every un-traced run pays) and ``probed`` (a
:class:`~repro.obs.SimulatorProbe` attached, capturing per-router
occupancy/latency histograms).  ``--check-obs`` gates the null-session
path at <= 2% overhead over off and requires the probed report to be
bit-identical to the off report once the ``probe_*`` figures are
stripped.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch.mesh import build_mesh  # noqa: E402
from repro.experiments.comparison import default_simulator_config  # noqa: E402
from repro.noc.simulator import (  # noqa: E402
    ENGINE_BATCH,
    ENGINE_EVENT,
    NoCSimulator,
    SimulatorConfig,
)
from repro.noc.traffic import (  # noqa: E402
    InjectionSchedule,
    acg_messages,
    uniform_random_messages,
)
from repro.obs import NULL_SESSION, SimulatorProbe, use_session  # noqa: E402
from repro.routing.policies import get_policy  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

#: interleaved samples of each (workload, engine) run; the minimum and
#: the median wall are recorded, and speedups are medians of paired ratios
REPEATS = 5

#: interleaved samples of each off/null/probed observability mode
OBS_REPEATS = 15

#: the batched sweep's (buffer capacity, pipeline delay) grid — 16 cells
BATCH_SWEEP_CAPACITIES = (1, 2, 3, 4)
BATCH_SWEEP_DELAYS = (1, 2, 3, 4)

#: dense workloads whose solo (B=1) batch runs must stay bit-identical;
#: the *wall* gate applies to the batched sweep, because that is how the
#: batch engine runs in anger (the DSE pipeline only groups >= 2
#: compatible cells onto it — a solo dense run stays on the event engine,
#: which wins at B=1)
DENSE_WORKLOADS = ("aes_prototype",)

#: the B=16 sweep must run at most 1/AMORTIZATION_FLOOR of the wall of
#: 16 solo batch runs (measured ~2.1x; the floor leaves CI-runner slack)
AMORTIZATION_FLOOR = 1.4


def available_engines() -> tuple[str, ...]:
    """Engines this interpreter can run: batch needs numpy."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return (ENGINE_EVENT,)
    return (ENGINE_EVENT, ENGINE_BATCH)


def mesh_fabric():
    mesh = build_mesh(4, 4)
    return mesh, get_policy("xy").build(mesh).frozen_next_hop()


def aes_fabric():
    from repro.experiments.aes_experiment import run_aes_synthesis

    synthesis = run_aes_synthesis()
    architecture = synthesis.architecture
    return architecture.topology, architecture.routing_table.frozen_next_hop()


def aes_phase_runner(engine: str) -> dict[str, float]:
    """The Section-5.2 operating point: dependency-aware AES phase traffic."""
    from repro.experiments.aes_experiment import run_aes_synthesis
    from repro.experiments.comparison import run_prototype_comparison

    synthesis = run_aes_synthesis()
    config = default_simulator_config()
    config.engine = engine
    start = time.perf_counter()
    comparison = run_prototype_comparison(blocks=2, synthesis=synthesis, simulator_config=config)
    wall = time.perf_counter() - start
    cycles_total = comparison.mesh.total_cycles + comparison.custom.total_cycles
    cycles_stepped = comparison.mesh.cycles_stepped + comparison.custom.cycles_stepped
    return {
        "wall_seconds": wall,
        "cycles_total": cycles_total,
        "cycles_stepped": cycles_stepped,
        "report": {
            "mesh_cycles_per_block": comparison.mesh.cycles_per_block,
            "custom_cycles_per_block": comparison.custom.cycles_per_block,
            "mesh_energy_uj": comparison.mesh.energy_per_block_uj,
            "custom_energy_uj": comparison.custom.energy_per_block_uj,
        },
    }


def drained_runner(fabric_builder, schedule_builder):
    """A runner that drains one open-loop schedule on one fabric (one sample)."""

    def run(engine: str, obs_mode: str = "off") -> dict[str, float]:
        topology, routing = fabric_builder()
        simulator = NoCSimulator(
            topology,
            routing,
            config=SimulatorConfig(engine=engine, router_pipeline_delay_cycles=2),
        )
        if obs_mode == "probed":
            simulator.attach_probe(SimulatorProbe())
        schedule_builder(topology).schedule_onto(simulator)
        start = time.perf_counter()
        if obs_mode == "null":
            # the disabled observability path every un-traced run pays:
            # the null session explicitly installed around the hot loop
            with use_session(NULL_SESSION):
                simulator.run_until_drained()
        else:
            simulator.run_until_drained()
        wall = time.perf_counter() - start
        return {
            "wall_seconds": wall,
            "cycles_total": simulator.current_cycle,
            "cycles_stepped": simulator.cycles_stepped,
            "report": simulator.report(),
        }

    run.supports_obs = True
    return run


def uniform_schedule(period: int, count: int = 400, size_bits: int = 256, seed: int = 7):
    def build(topology):
        messages = uniform_random_messages(
            topology.routers(), count, size_bits=size_bits, seed=seed
        )
        return InjectionSchedule.periodic(messages, period, seed=seed, jitter=4)

    return build


def acg_schedule(period: int, packet_size_bits: int = 32, repeats: int = 4, seed: int = 2):
    def build(topology):
        from repro.experiments.aes_experiment import run_aes_synthesis

        messages = acg_messages(
            run_aes_synthesis().acg, packet_size_bits=packet_size_bits
        ) * repeats
        return InjectionSchedule.periodic(messages, period, seed=seed, jitter=2)

    return build


def workload_suite(suite: str) -> dict[str, object]:
    """Named workload -> runner(engine) -> measurement dict."""
    workloads: dict[str, object] = {
        "uniform_open_loop": drained_runner(mesh_fabric, uniform_schedule(period=12)),
        "uniform_saturating": drained_runner(mesh_fabric, uniform_schedule(period=4, size_bits=128)),
        "latency_probes": drained_runner(
            mesh_fabric, uniform_schedule(period=40, count=100, size_bits=32)
        ),
    }
    if suite == "full":
        workloads["aes_prototype"] = aes_phase_runner
        workloads["custom_open_loop"] = drained_runner(aes_fabric, acg_schedule(period=16))
        workloads["custom_multiflit"] = drained_runner(
            aes_fabric, acg_schedule(period=20, packet_size_bits=512)
        )
    return workloads


def paired_speedup(slow: list[float], fast: list[float]) -> float:
    """The median of ``slow[i] / fast[i]`` over paired samples."""
    return round(statistics.median(a / max(b, 1e-9) for a, b in zip(slow, fast)), 2)


def run_suite(
    suite: str, engines: tuple[str, ...] = (ENGINE_EVENT,)
) -> dict[str, dict[str, object]]:
    results: dict[str, dict[str, object]] = {}
    for name, runner in workload_suite(suite).items():
        samples: dict[str, list[dict[str, object]]] = {engine: [] for engine in engines}
        for _ in range(REPEATS):
            for engine in engines:
                samples[engine].append(runner(engine))
        walls = {
            engine: [sample["wall_seconds"] for sample in runs]
            for engine, runs in samples.items()
        }
        measurements: dict[str, dict[str, object]] = {}
        for engine, runs in samples.items():
            cycles = runs[0]["cycles_total"]
            stepped = runs[0]["cycles_stepped"]
            wall = min(walls[engine])
            measurements[engine] = {
                "wall_seconds": round(wall, 6),
                "wall_seconds_median": round(statistics.median(walls[engine]), 6),
                "cycles_total": cycles,
                "cycles_stepped": stepped,
                "cycles_skipped": cycles - stepped,
                "simulated_cycles_per_second": round(cycles / wall, 1),
                "stepped_cycles_per_second": round(stepped / wall, 1),
            }
        event = measurements[ENGINE_EVENT]
        expected = samples[ENGINE_EVENT][0]["report"]
        identical = all(
            sample["report"] == expected for runs in samples.values() for sample in runs
        )
        result: dict[str, object] = {
            **measurements,
            "identical_reports": identical,
            "stepped_cycle_ratio": round(
                event["cycles_total"] / max(event["cycles_stepped"], 1), 2
            ),
        }
        if ENGINE_BATCH in walls:
            result["batch_wall_speedup"] = paired_speedup(walls[ENGINE_EVENT], walls[ENGINE_BATCH])
        results[name] = result
    return results


def run_batched_sweep() -> dict[str, object]:
    """The per-cell amortization benchmark: dense AES over a 16-cell sweep.

    One :class:`~repro.noc.batch.BatchSimulator` run carrying all 16
    ``(buffer capacity, pipeline delay)`` cells is measured against (i)
    16 solo event-engine runs of the same op program — the wall-clock
    figure the batch engine exists to beat — and (ii) 16 solo batch runs,
    which isolates the per-cell amortization of the vectorized cycle
    loop.  Every cell's statistics/energy/cycle report must equal its
    solo event twin bit-for-bit.
    """
    from repro.aes.distributed import DistributedAES
    from repro.dse.pipeline import FIPS197_KEY
    from repro.experiments.aes_experiment import run_aes_synthesis
    from repro.noc.batch import BatchSimulator, DrainOp, RunOp, ScheduleOp

    architecture = run_aes_synthesis().architecture
    topology = architecture.topology
    routing = architecture.routing_table.frozen_next_hop()
    aes = DistributedAES(FIPS197_KEY)
    plaintext = bytes(range(16))
    phases: list[tuple] = []
    for block_index in range(2):
        block = bytes((byte + block_index) % 256 for byte in plaintext)
        phases.extend(tuple(phase) for phase in aes.encrypt_block(block).phases)
    ops: list[object] = []
    for phase in phases:
        ops.extend((ScheduleOp(phase), DrainOp(None), RunOp(4)))
    configs = [
        SimulatorConfig(
            engine=ENGINE_BATCH,
            buffer_capacity_packets=capacity,
            router_pipeline_delay_cycles=delay,
        )
        for capacity in BATCH_SWEEP_CAPACITIES
        for delay in BATCH_SWEEP_DELAYS
    ]

    def run_batch_cells(cells):
        best = None
        for _ in range(REPEATS):
            core = BatchSimulator(topology, routing, cells)
            for index in range(len(cells)):
                for op in ops:
                    core.enqueue(index, op)
            start = time.perf_counter()
            core.execute(raise_errors=True)
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, core)
        return best

    batch_wall, core = run_batch_cells(configs)
    solo_wall = 0.0
    for config in configs:
        wall, _ = run_batch_cells([config])
        solo_wall += wall

    event_best = None
    for _ in range(REPEATS):
        sims = []
        total = 0.0
        for config in configs:
            simulator = NoCSimulator(
                topology,
                routing,
                config=SimulatorConfig(
                    engine=ENGINE_EVENT,
                    buffer_capacity_packets=config.buffer_capacity_packets,
                    router_pipeline_delay_cycles=config.router_pipeline_delay_cycles,
                ),
            )
            start = time.perf_counter()
            for phase in phases:
                simulator.schedule_messages(phase)
                simulator.run_until_drained()
                simulator.run(4)
            total += time.perf_counter() - start
            sims.append(simulator)
        if event_best is None or total < event_best[0]:
            event_best = (total, sims)
    event_wall, event_sims = event_best

    identical = True
    for index, simulator in enumerate(event_sims):
        core.flush_energy(index)
        batch_report = {
            "statistics": core.statistics(index).summary(),
            "energy": core.energy(index).summary(),
            "cycle": core.current_cycle(index),
        }
        event_report = {
            "statistics": simulator.statistics.summary(),
            "energy": simulator.energy.summary(),
            "cycle": simulator.current_cycle,
        }
        if batch_report != event_report:
            identical = False

    cells = len(configs)
    return {
        "cells": cells,
        "batch": {
            "wall_seconds": round(batch_wall, 6),
            "per_cell_wall_ms": round(batch_wall / cells * 1e3, 3),
        },
        "batch_solo": {
            "wall_seconds": round(solo_wall, 6),
            "per_cell_wall_ms": round(solo_wall / cells * 1e3, 3),
        },
        "event": {
            "wall_seconds": round(event_wall, 6),
            "per_cell_wall_ms": round(event_wall / cells * 1e3, 3),
        },
        "identical_reports": identical,
        "wall_speedup": round(event_wall / max(batch_wall, 1e-9), 2),
        "amortization": round(solo_wall / max(batch_wall, 1e-9), 2),
    }


def measure_observability(suite: str) -> dict[str, dict[str, object]]:
    """Interleaved off/null/probed walls per obs-capable workload (event engine).

    The three modes are sampled round-robin (one off/null/probed sample
    per repetition) so slow drift on a shared CI runner hits every mode
    equally; each mode keeps its minimum wall over ``OBS_REPEATS`` samples.
    """
    results: dict[str, dict[str, object]] = {}
    for name, runner in workload_suite(suite).items():
        if not getattr(runner, "supports_obs", False):
            continue  # e.g. the prototype comparison drives its own simulators
        walls: dict[str, float] = {}
        reports: dict[str, dict] = {}
        for _ in range(OBS_REPEATS):
            for mode in ("off", "null", "probed"):
                measurement = runner(ENGINE_EVENT, obs_mode=mode)
                wall = measurement["wall_seconds"]
                walls[mode] = min(walls.get(mode, wall), wall)
                reports[mode] = measurement["report"]
        off, null, probed = walls["off"], walls["null"], walls["probed"]
        stripped = {
            key: value
            for key, value in reports["probed"].items()
            if not key.startswith("probe_")
        }
        results[name] = {
            "off_wall_seconds": round(off, 6),
            "null_wall_seconds": round(null, 6),
            "probed_wall_seconds": round(probed, 6),
            "null_overhead_pct": round(100.0 * (null - off) / max(off, 1e-9), 2),
            "probed_overhead_pct": round(100.0 * (probed - off) / max(off, 1e-9), 2),
            "probed_report_identical": stripped == reports["off"],
        }
    return results


def check(results: dict[str, dict[str, object]]) -> list[str]:
    """CI gate, per workload: identical reports across engines and
    repeats, and fewer stepped cycles than simulated ones."""
    failures = []
    for name, result in results.items():
        if not result["identical_reports"]:
            failures.append(f"{name}: engine reports differ")
        event = result[ENGINE_EVENT]
        if event["cycles_stepped"] >= event["cycles_total"]:
            failures.append(
                f"{name}: event engine stepped {event['cycles_stepped']} "
                f">= the {event['cycles_total']} cycles it simulated"
            )
    return failures


def check_batch(
    results: dict[str, dict[str, object]], sweep: dict[str, object] | None
) -> list[str]:
    """The ``--check-batch`` gate: the batch engine must win on *wall*.

    The perf gate used to check stepped cycles only, which let a 1.04x
    wall figure pass on the dense AES operating point; this gate requires
    the batch engine to beat the event engine on wall clock for the dense
    suite *run as a batch*: the B=16 sweep of the dense AES operating
    point must beat 16 solo event runs outright, per-cell reports must
    stay bit-identical (both in the sweep and in the solo dense
    workloads), and the B=16 sweep must amortize per-cell cost over 16
    solo batch runs.  Solo (B=1) dense runs are *not* wall-gated: the
    vectorized cycle loop only pays off when one ``BatchSimulator``
    advances several cells at once (the DSE pipeline runs cells solo).
    """
    failures = []
    for name in DENSE_WORKLOADS:
        result = results.get(name)
        if result is None:
            failures.append(f"{name}: missing (the batch gate needs --suite full)")
            continue
        batch = result.get(ENGINE_BATCH)
        if batch is None:
            failures.append(f"{name}: no batch measurement (numpy unavailable?)")
            continue
        if not result["identical_reports"]:
            failures.append(f"{name}: engine reports differ")
    if sweep is None:
        failures.append(
            "aes_batched_sweep: missing (the batch gate needs --suite full and numpy)"
        )
        return failures
    if not sweep["identical_reports"]:
        failures.append(
            "aes_batched_sweep: batch cell reports differ from solo event runs"
        )
    if sweep["wall_speedup"] <= 1.0:
        failures.append(
            f"aes_batched_sweep: batch wall {sweep['batch']['wall_seconds']:.6f}s "
            f"did not beat the solo event sweep "
            f"{sweep['event']['wall_seconds']:.6f}s"
        )
    if sweep["amortization"] < AMORTIZATION_FLOOR:
        failures.append(
            f"aes_batched_sweep: per-cell amortization {sweep['amortization']:.2f}x "
            f"below the {AMORTIZATION_FLOOR}x floor (one B=16 run vs 16 solo "
            f"batch runs)"
        )
    return failures


def write_job_summary(
    results: dict[str, dict[str, object]], sweep: dict[str, object] | None
) -> None:
    """Append a per-engine wall table to the CI job summary, when in CI."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = [
        "### Simulator engine walls (seconds, min of repeats)",
        "",
        "| workload | event | batch | total/stepped | event/batch |",
        "|---|---|---|---|---|",
    ]
    for name, result in results.items():
        batch = result.get(ENGINE_BATCH)
        lines.append(
            "| {name} | {event:.4f} | {batch} | "
            "{stepped:.2f}x | {batch_speedup} |".format(
                name=name,
                event=result[ENGINE_EVENT]["wall_seconds"],
                batch=f"{batch['wall_seconds']:.4f}" if batch else "n/a",
                stepped=result["stepped_cycle_ratio"],
                batch_speedup=(
                    f"{result['batch_wall_speedup']:.2f}x" if batch else "n/a"
                ),
            )
        )
    if sweep is not None:
        lines.extend(
            [
                "",
                "**aes_batched_sweep** (B={cells}): batch {batch:.4f}s vs solo "
                "event {event:.4f}s -> {speedup:.2f}x wall; per-cell "
                "amortization {amortization:.2f}x over solo batch runs".format(
                    cells=sweep["cells"],
                    batch=sweep["batch"]["wall_seconds"],
                    event=sweep["event"]["wall_seconds"],
                    speedup=sweep["wall_speedup"],
                    amortization=sweep["amortization"],
                ),
            ]
        )
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def check_observability(observability: dict[str, dict[str, object]]) -> list[str]:
    """The ``--check-obs`` gate: free when off, bit-identical when probed.

    Per workload: the null-session wall must stay within 2% of the
    no-session wall (plus a 2 ms absolute allowance so micro-workloads
    don't gate on scheduler noise), and the probed report minus its
    ``probe_*`` figures must equal the unprobed report exactly.
    """
    failures = []
    for name, entry in observability.items():
        budget = 1.02 * entry["off_wall_seconds"] + 0.002
        if entry["null_wall_seconds"] > budget:
            failures.append(
                f"{name}: null-session wall {entry['null_wall_seconds']:.6f}s exceeds "
                f"2% over off wall {entry['off_wall_seconds']:.6f}s "
                f"({entry['null_overhead_pct']:+.2f}%)"
            )
        if not entry["probed_report_identical"]:
            failures.append(f"{name}: probed report differs from the unprobed report")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=("smoke", "full"), default="smoke")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--label", default="", help="trajectory entry label")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the reports are identical and the "
        "event engine steps fewer cycles than it simulates",
    )
    parser.add_argument(
        "--check-obs",
        dest="check_obs",
        action="store_true",
        help="exit non-zero unless the disabled observability path costs "
        "<= 2%% wall overhead and probed reports are bit-identical",
    )
    parser.add_argument(
        "--check-batch",
        dest="check_batch",
        action="store_true",
        help="exit non-zero unless the batched AES sweep beats the solo "
        "event sweep on wall clock with bit-identical reports and "
        "amortized per-cell cost (needs --suite full and numpy)",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="measure and print only"
    )
    args = parser.parse_args(argv)

    engines = available_engines()
    results = run_suite(args.suite, engines)
    for name, result in results.items():
        batch = result.get(ENGINE_BATCH)
        batch_note = (
            f"  batch {result['batch_wall_speedup']:5.2f}x vs event"
            if batch is not None
            else ""
        )
        print(
            f"{name:20s} stepped {result['stepped_cycle_ratio']:6.2f}x  "
            f"event {result['event']['simulated_cycles_per_second']:>12,.0f} cyc/s  "
            f"identical={result['identical_reports']}{batch_note}"
        )

    sweep = None
    if args.suite == "full" and ENGINE_BATCH in engines:
        sweep = run_batched_sweep()
        print(
            f"{'aes_batched_sweep':20s} wall {sweep['wall_speedup']:6.2f}x  "
            f"amortization {sweep['amortization']:5.2f}x  "
            f"batch {sweep['batch']['wall_seconds']:.3f}s  "
            f"event {sweep['event']['wall_seconds']:.3f}s  "
            f"identical={sweep['identical_reports']}"
        )

    observability = measure_observability(args.suite)
    for name, entry in observability.items():
        print(
            f"{name:20s} obs: null {entry['null_overhead_pct']:+6.2f}%  "
            f"probed {entry['probed_overhead_pct']:+6.2f}%  "
            f"probed_identical={entry['probed_report_identical']}"
        )

    if not args.no_write:
        payload = {"entries": []}
        if args.output.exists():
            try:
                payload = json.loads(args.output.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                pass
        entry = {
            "label": args.label or f"{args.suite} run",
            "suite": args.suite,
            "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workloads": results,
            "observability": observability,
        }
        if sweep is not None:
            entry["batched_sweep"] = sweep
        payload.setdefault("entries", []).append(entry)
        args.output.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"trajectory written to {args.output}")

    write_job_summary(results, sweep)

    failures = []
    if args.check:
        failures.extend(check(results))
    if args.check_obs:
        failures.extend(check_observability(observability))
    if args.check_batch:
        failures.extend(check_batch(results, sweep))
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

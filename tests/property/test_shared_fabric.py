"""Differential harness: many runs on one wired fabric.

A :class:`~repro.noc.simulator.WiredFabric` is wired once and shared by
every simulator made on it (:meth:`NoCSimulator.from_fabric`), routing
memo included.  Sharing must not be observable: each run on a shared
fabric must equal the same run on a fresh ``NoCSimulator`` -- report
(``probe_*`` figures included), delivery cycles, paths, stuck packets,
``engine_info``, busy-cycle order and every error -- and the oracle of
the cycle model (``tests/simulator_oracle.py``).

Hypothesis draws a fabric, a routing function that raises for one
``(router, destination)`` decision or for none, and a handful of runs
that differ in buffer capacity, pipeline delay, traffic, probe and op
program (``run`` windows and drains, some with budgets short enough to
overrun, or deadlocking the ring).  The runs share one wired fabric and
execute their ops interleaved in a random order, so a run finds the
routing memo filled by runs before it and by runs still going.

Every test here carries the ``differential`` marker; the example budgets
scale with ``REPRO_HYPOTHESIS_BUDGET``, as in ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.noc.simulator import NoCSimulator, SimulatorConfig, WiredFabric
from repro.obs import SimulatorProbe
from simulator_oracle import OracleSimulator
from test_engine_equivalence import (
    FABRICS,
    budget,
    grid_buffers,
    grid_delays,
    paths,
    report_or_error,
    ring_fabric,
    stuck,
    traffic_entries,
    traffic_messages,
)

pytestmark = pytest.mark.differential

SHARED_FABRICS = {**FABRICS, "ring": ring_fabric}


class Unroutable(LookupError):
    """What the broken routing function raises (not a library error)."""


def breaking(routing, pair):
    """``routing``, raising for the one decision ``pair`` (if any)."""
    if pair is None:
        return routing

    def broken(current, destination):
        if (current, destination) == pair:
            raise Unroutable(f"no route from {current!r} to {destination!r}")
        return routing(current, destination)

    return broken


ops = st.one_of(
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("drain"), st.none() | st.integers(min_value=0, max_value=60)),
)

#: one run: (traffic, buffer capacity, pipeline delay, probed, op program)
run_plans = st.tuples(
    st.lists(traffic_entries, min_size=1, max_size=24),
    grid_buffers,
    grid_delays,
    st.booleans(),
    st.lists(ops, min_size=1, max_size=3),
)


def start(simulator, topology, plan):
    """Schedule a plan's traffic (bursts within 16 cycles), on a
    ``NoCSimulator`` with the plan's probe (the oracle has none)."""
    traffic, _, _, probed, _ = plan
    if probed and isinstance(simulator, NoCSimulator):
        simulator.attach_probe(SimulatorProbe())
    for cycle, message in traffic_messages(topology, traffic):
        simulator.schedule_message(message, cycle=cycle % 16)
    return simulator


def step(simulator, op) -> tuple | None:
    """Execute one op; ``None``, or the error it raised and where."""
    kind, amount = op
    try:
        if kind == "run":
            simulator.run(amount)
        else:
            simulator.run_until_drained(amount)
    except (SimulationError, Unroutable) as error:
        return type(error).__name__, str(error), simulator.current_cycle
    return None


def observed(simulator) -> tuple:
    """Everything a run shows, for runs of one engine."""
    try:
        report = simulator.report()  # probe_* figures included
    except SimulationError as error:  # undefined figures: nothing delivered yet
        report = str(error)
    probe = simulator.probe
    return (
        report,
        simulator.statistics.delivery_cycles(),
        paths(simulator),
        stuck(simulator),
        list(simulator.statistics.channel_busy_cycles.items()),
        simulator.engine_info(),
        None if probe is None else (list(probe.occupancy.items()), list(probe.latency.items())),
    )


def assert_matches_oracle(candidate, oracle, failed: bool) -> None:
    """The contract of ``test_engine_equivalence.assert_equivalent``; after
    a failed last op the figures are not final, so only the delivered
    packets, the clock and the stuck packets are compared."""
    assert candidate.statistics.delivery_cycles() == oracle.statistics.delivery_cycles()
    assert candidate.current_cycle == oracle.current_cycle
    assert stuck(candidate) == stuck(oracle)
    if failed:
        return
    assert report_or_error(candidate) == report_or_error(oracle)
    assert paths(candidate) == paths(oracle)
    info, model = candidate.engine_info(), oracle.engine_info()
    assert info["peak_occupancy"] == model["peak_occupancy"]
    assert info["blocked"] or not model["blocked"]


@budget(15)
@given(
    fabric=st.sampled_from(sorted(SHARED_FABRICS)),
    broken=st.none() | st.tuples(st.integers(0, 15), st.integers(0, 15)),
    plans=st.lists(run_plans, min_size=2, max_size=5),
    order=st.randoms(use_true_random=False),
)
def test_runs_on_a_shared_fabric_match_fresh_simulators_and_the_oracle(
    fabric, broken, plans, order
):
    topology, routing = SHARED_FABRICS[fabric]()
    nodes = topology.routers()
    pair = None if broken is None else (nodes[broken[0] % len(nodes)], nodes[broken[1] % len(nodes)])
    routing = breaking(routing, pair)
    wired = WiredFabric(topology, routing)

    def config(plan) -> SimulatorConfig:
        return SimulatorConfig(buffer_capacity_packets=plan[1], router_pipeline_delay_cycles=plan[2])

    shared = [
        start(NoCSimulator.from_fabric(wired, config(plan)), topology, plan) for plan in plans
    ]
    # each run's ops in program order, the runs interleaved at random
    turns = [index for index, plan in enumerate(plans) for _ in plan[4]]
    order.shuffle(turns)
    outcomes: list[list] = [[] for _ in plans]
    for index in turns:
        outcomes[index].append(step(shared[index], plans[index][4][len(outcomes[index])]))
    assert wired.simulators == len(plans)

    for plan, simulator, outcome in zip(plans, shared, outcomes):
        fresh = start(NoCSimulator(topology, routing, config(plan)), topology, plan)
        oracle = start(OracleSimulator(topology, routing, config(plan)), topology, plan)
        assert [step(fresh, op) for op in plan[4]] == outcome
        assert observed(simulator) == observed(fresh)
        oracle_outcome = [step(oracle, op) for op in plan[4]]
        assert oracle_outcome == outcome
        assert_matches_oracle(simulator, oracle, failed=outcome[-1] is not None)

"""Cycle-accurate NoC simulator with two interchangeable engines.

This is the measurement substrate that replaces the paper's Virtex-2 FPGA
prototype: the same architecture-agnostic fabric simulates both the 4x4 mesh
baseline (XY routing) and the synthesized customized topology (table routing
derived from the primitives' schedules), so the throughput / latency / energy
comparison of Section 5.2 is apples-to-apples.

Model summary (packet-switched, one-flit-per-cycle links):

* routers are input-buffered with one FIFO per input port (one port per
  incoming channel plus the local injection queue) and round-robin output
  arbitration;
* forwarding a packet over a channel keeps that channel busy for the
  packet's serialization time (``num_flits`` cycles) and delivers it into
  the downstream buffer after serialization plus the router pipeline delay;
* bounded buffers create backpressure (full buffers delay the transfer);
* every router traversal / link traversal is accumulated into batched
  switch/bit·mm counters and flushed into an
  :class:`~repro.energy.power.EnergyAccount` at finalize, so the same run
  yields the energy and average-power figures.

Two engines drive the model (``SimulatorConfig.engine``):

* ``"event"`` (default) — the cycle loop :meth:`NoCSimulator._advance`,
  which drives a whole run, window or drain: only routers that might move
  a packet are visited, and the clock jumps straight to the next cycle
  where anything can progress (next injection, next arrival, next
  channel-release expiry, next scheduled router wake-up).  See
  ``docs/simulator.md`` for the activation conditions and the
  equivalence argument.
* ``"batch"`` — vectorized numpy engine (:mod:`repro.noc.batch`): router
  and channel state laid out as flat arrays so a whole batch of sweep
  cells advances per array operation.  Through :class:`NoCSimulator` it
  runs as a batch of one, which is how the DSE pipeline runs every cell;
  multi-cell batches exist only when :class:`~repro.noc.batch.BatchSimulator`
  is driven directly.  numpy is a dependency of this engine only — the
  event engine stays stdlib-only.

Both must produce the :meth:`NoCSimulator.report` output, per-packet
delivery cycles and paths of the cycle model, which the test suite runs
as a plain oracle that steps every cycle and visits every router.  The
event engine's equivalence to that model rests on three observations:
(i) round-robin arbitration in the model advances its pointer exactly
once per router per cycle, so the pointer is the cycle number modulo the
port count and can be derived rather than stored — idle cycles advance
it for free; (ii) a cycle in which no injection is due, no arrival
completes and no router holds a movable packet changes nothing, so
skipping it is exact; and (iii) an arrival that finds its buffer full
can only succeed on the cycle after a pop from that buffer, so it parks
until that pop instead of retrying every cycle.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

from repro.arch.topology import Topology
from repro.energy.power import EnergyAccount
from repro.energy.technology import DEFAULT_TECHNOLOGY, Technology
from repro.exceptions import SimulationError
from repro.noc.packet import Message, Packet, PacketTable, require_int
from repro.noc.stats import SimulationStatistics
from repro.obs.probes import SimulatorProbe
from repro.obs.session import get_tracer

NodeId = Hashable
RoutingFunction = Callable[[NodeId, NodeId], NodeId]
Channel = tuple[NodeId, NodeId]

#: event-driven engine: active-router scheduling + idle-cycle skipping
ENGINE_EVENT = "event"
#: vectorized numpy engine: flat (cell, port/channel) arrays, batchable
ENGINE_BATCH = "batch"

ENGINES = (ENGINE_EVENT, ENGINE_BATCH)

#: how many stuck packets the drain-budget error names individually
_STUCK_PACKETS_NAMED = 8


# ----------------------------------------------------------------------
# op programs: a run as data (replayed by the DSE pipeline, queued per
# cell by the batch engine)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleOp:
    """Schedule messages at the then-current cycle (instantaneous)."""

    messages: tuple[Message, ...]


@dataclass(frozen=True)
class DrainOp:
    """Run until the network drains (``run_until_drained``)."""

    max_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.max_cycles is not None:
            require_int(self.max_cycles, "the drain budget")
            if self.max_cycles < 0:
                raise SimulationError(f"the drain budget cannot be negative ({self.max_cycles})")


@dataclass(frozen=True)
class RunOp:
    """Run for a fixed number of cycles (``run``)."""

    cycles: int

    def __post_init__(self) -> None:
        require_int(self.cycles, "the cycles to run")
        if self.cycles < 0:
            raise SimulationError("cannot run a negative number of cycles")


@dataclass
class SimulatorConfig:
    """Knobs of the simulation model."""

    flit_width_bits: int = 32
    buffer_capacity_packets: int = 4
    router_pipeline_delay_cycles: int = 1
    max_cycles: int = 1_000_000
    engine: str = ENGINE_EVENT
    """``"event"`` (skip dead time) or ``"batch"`` (vectorized numpy
    arrays; a batch of one here, several cells only through
    :class:`~repro.noc.batch.BatchSimulator` directly)."""

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise SimulationError(
                f"unknown simulator engine {self.engine!r} (use one of {ENGINES})"
            )
        for name in (
            "flit_width_bits",
            "buffer_capacity_packets",
            "router_pipeline_delay_cycles",
            "max_cycles",
        ):
            require_int(getattr(self, name), name)
        if self.flit_width_bits <= 0:
            raise SimulationError("flit width must be positive")
        if self.buffer_capacity_packets < 1:
            raise SimulationError("router buffers must hold at least one packet")
        if self.router_pipeline_delay_cycles < 1:
            raise SimulationError("router pipeline delay must be at least one cycle")
        if self.max_cycles < 1:
            raise SimulationError("the cycle budget must be at least one cycle")


class WiredFabric:
    """A routed fabric wired once, for any number of simulators.

    Everything a run reads of its fabric and nothing it writes: every
    router's *position* (its index in ``topology.routers()`` order), its
    input *ports*, the round-robin scan orders over them, the channel
    lengths and the routing memo.  Ports are numbered router by router in
    position order, each router's local injection port first and then one
    per incoming channel in ``topology.channels()`` order, and a channel's
    id is the id of the input port it feeds, so one per-port list of a
    run's queues serves both the scan and the backpressure test.

    The fabric is fixed at construction, as a prototype's is: a router or
    channel added to the topology afterwards is unknown to it.  Routing
    functions must be deterministic in ``(current, destination)`` -- every
    routing adapter in the library is -- so a decision resolved by one
    run is the decision of every run, and the memo (:attr:`hops`) is
    shared by all the simulators made on this fabric
    (:meth:`NoCSimulator.from_fabric`).  A decision is memoized only once
    validated, so a routing function that raises, or names a channel that
    does not exist, raises in every run that asks for the decision.
    """

    def __init__(self, topology: Topology, routing: RoutingFunction) -> None:
        self.topology = topology
        self.routing = routing
        nodes = self.nodes = tuple(topology.routers())
        """Position -> router."""
        positions = self.positions = {node: index for index, node in enumerate(nodes)}
        """Router -> position."""
        channel_ids: dict[Channel, int] = {}
        channels: list[Channel | None] = []
        targets: list[int] = []
        sources: list[int | None] = []
        lengths: list[float] = []
        local_ports: list[int] = []
        scan_orders: list[tuple[tuple[int, ...], ...]] = []
        incoming: list[list] = [[] for _ in nodes]
        for channel in topology.channels():
            incoming[positions[channel.target]].append(channel)
        for index, into in enumerate(incoming):
            first = len(channels)
            local_ports.append(first)
            channels.append(None)
            sources.append(None)
            lengths.append(0.0)
            for channel in into:
                key = (channel.source, channel.target)
                channel_ids[key] = len(channels)
                channels.append(key)
                sources.append(positions[channel.source])
                lengths.append(channel.length_mm)
            count = len(channels) - first
            targets += [index] * count
            twice = tuple(range(first, len(channels))) * 2
            scan_orders.append(tuple([twice[start : start + count] for start in range(count)]))
        self.channel_ids = channel_ids
        """``(source, target)`` -> the id of the input port it feeds."""
        self.channels = channels
        """Port id -> its channel, ``None`` for a local port."""
        self.targets = targets
        """Port id -> position of the router the port belongs to (a
        channel's target)."""
        self.sources = sources
        """Port id -> position of the upstream router, ``None`` for a
        local port."""
        self.lengths = lengths
        """Port id -> the channel's length in mm (0.0 for a local port)."""
        self.local_ports = local_ports
        """Position -> the id of its local injection port."""
        self.scan_orders = scan_orders
        """Position -> the port ids in round-robin arbitration order from
        each ``cycle mod ports``: the scan of a visit on ``cycle`` is
        ``scan_orders[position][cycle % ports]``."""
        self.hops: list[list[int | None]] = [[None] * len(nodes) for _ in nodes]
        """Position -> the routing memo, a list from destination position to
        channel id (``None`` until :meth:`route` resolves it)."""
        self.simulators = 0
        """How many simulators were made on this fabric."""

    @cached_property
    def num_physical_links(self) -> int:
        """The topology's :attr:`~repro.arch.topology.Topology.num_physical_links`,
        counted once for every run on the fabric."""
        return self.topology.num_physical_links

    def route(self, position: int, destination: int) -> int:
        """The output channel id of a packet at ``position`` heading to the
        router at position ``destination``, resolved once and memoized in
        :attr:`hops` (a channel that does not exist raises
        :class:`SimulationError`)."""
        current = self.nodes[position]
        target = self.nodes[destination]
        next_hop = self.routing(current, target)
        channel = self.channel_ids.get((current, next_hop))
        if channel is None:
            raise SimulationError(
                f"routing function returned {next_hop!r} from {current!r} towards "
                f"{target!r}, but that channel does not exist"
            )
        self.hops[position][destination] = channel
        return channel


class NoCSimulator:
    """Owns one run on a simulated fabric and drives it to completion.

    The fabric and the routing function are fixed at construction, as a
    prototype's are: to simulate another fabric or routing, build another
    simulator.  The wiring lives in a :class:`WiredFabric` -- router
    positions, port and channel ids, scan orders, channel lengths and the
    routing memo -- which ``NoCSimulator(topology, routing, ...)`` builds
    and :meth:`from_fabric` shares between runs.  The simulator holds only
    the run's state, as flat lists the cycle loop (:meth:`_advance`) binds
    once per run and indexes directly.  Per position: the router's load
    and its scheduled wake.  Per port id (a channel's id is the id of the
    port it feeds): the input queue of packet ids, and for a channel its
    release cycle, its claim stamp and its busy-cycle and link-bit
    counters.  Packets are int ids into a
    :class:`~repro.noc.packet.PacketTable` of flat per-packet lists
    (destination position, flits, bits, injection cycle, hops, delivery
    cycle); in-flight and parked ones carry channel ids.  A
    :class:`~repro.noc.packet.Packet` is built only as a view, when
    ``statistics.delivered_packets`` or :meth:`stuck_packets` is read.
    Scheduling compiles each message sequence once per router order and
    flit width (:meth:`_compile`; ``schedule_messages(memo=)`` shares it
    between simulators).  The public surface
    (scheduling, :meth:`run`, :meth:`run_until_drained`, :meth:`report`)
    is engine-agnostic; the configured engine only decides *which* cycles
    are executed, never what happens within one.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingFunction,
        config: SimulatorConfig | None = None,
        technology: Technology = DEFAULT_TECHNOLOGY,
        probe: SimulatorProbe | None = None,
    ) -> None:
        self._start(WiredFabric(topology, routing), config, technology, probe)

    @classmethod
    def from_fabric(
        cls,
        fabric: WiredFabric,
        config: SimulatorConfig | None = None,
        technology: Technology = DEFAULT_TECHNOLOGY,
        probe: SimulatorProbe | None = None,
    ) -> NoCSimulator:
        """A simulator on an already wired fabric: it allocates only the
        run's state, and shares the fabric's routing memo."""
        simulator = cls.__new__(cls)
        simulator._start(fabric, config, technology, probe)
        return simulator

    def _start(
        self,
        fabric: WiredFabric,
        config: SimulatorConfig | None,
        technology: Technology,
        probe: SimulatorProbe | None,
    ) -> None:
        """Allocate the run's state on ``fabric``."""
        fabric.simulators += 1
        self.fabric = fabric
        self.config = config or SimulatorConfig()
        self.probe = probe
        """Optional :class:`~repro.obs.probes.SimulatorProbe`: when attached,
        per-router occupancy/latency histograms are recorded at the shared
        buffer-mutation points and ``probe_*`` figures join :meth:`report`.
        The probe never changes any existing report figure or delivery cycle
        — both engines produce bit-identical output with it attached."""
        self.topology = fabric.topology
        self.technology = technology
        routers = len(fabric.nodes)
        ports = len(fabric.channels)
        self._queues: list[deque[int]] = [deque() for _ in range(ports)]
        """Per port id, its FIFO input queue of packet ids: a router's local
        injection queue is unbounded, every other one holds at most
        ``config.buffer_capacity_packets``, and its length gates a launch
        over the channel that feeds it and an arrival off that channel."""
        self._load: list[int] = [0] * routers
        """Per position, its buffered-packet count, maintained at the three
        buffer mutation points (injection, arrival, pop) so the cycle loop
        never scans every router's buffers to find work or decide drainage."""
        self._buffered_total = 0
        self._soon = 0
        """Bitmask of the positions woken for the cycle at
        :attr:`current_cycle`, the next executed cycle (a wake for the
        cycle after the one being executed)."""
        self._scheduled_wake: list[int | None] = [None] * routers
        """Per position, its earliest wake in :attr:`_wake_heap` (a later
        duplicate is never pushed: processing at the earlier cycle re-arms
        as needed); setting its :attr:`_soon` bit clears it."""
        self._wake_heap: list[tuple[int, int]] = []  # (cycle, position), later wakes
        # per channel id
        self._free_at: list[int] = [0] * ports
        """Per channel id, the cycle it is free again."""
        self._claims: list[int] = [0] * ports
        """Per channel id, the number of the router visit that last claimed
        it: only the channel's source router claims it, so a stamp equal to
        the current visit means an earlier head of this visit won it."""
        self._visits = 0  # router visits so far (the claim stamps' clock)
        # batched accounting: per-channel busy cycles and link bits, plus
        # the ids launched on since the last flush in first-launch order;
        # the flush folds them into statistics.channel_busy_cycles and the
        # EnergyAccount in that order (see _flush_energy_batches)
        self._busy: list[int] = [0] * ports
        self._bits: list[int] = [0] * ports
        self._launched: list[int] = []
        self._switch_bits = 0
        self._arrivals: dict[int, list[tuple[int, int, int]]] = {}
        """Packets traversing a channel, by arrival cycle: each bucket holds
        ``(launch sequence, packet id, channel id)`` in sequence order, which
        keeps every channel's packets in launch order."""
        self._arrival_cycles: list[int] = []  # heap of the buckets' cycles
        self._parked: dict[int, list[tuple[int, int, int]]] = {}
        """Per channel id, the arrivals that found its downstream queue
        full, in sequence order; the pop that frees space re-queues them for
        the next cycle (only non-empty lists are kept)."""
        self._launches = 0  # launch sequence numbers handed out so far
        self.energy = EnergyAccount(technology=technology)
        self.current_cycle = 0
        self.cycles_stepped = 0
        """Cycles actually executed: ``current_cycle`` minus the idle cycles
        the event engine skipped."""
        self._pending: list[tuple[int, int, int, tuple[tuple[int, Sequence[int]], ...]]] = []
        """Scheduled injections: a heap with one ``(cycle, first packet id,
        packet count, per-source offsets)`` entry per scheduling call, whose
        packets carry consecutive ids; popping entries in ``(cycle, first
        id)`` order injects in ``(cycle, packet id)`` order.  The
        per-source part lists ``(source position, its packets' offsets
        from the first id)`` in order of each source's first packet, so an
        injection extends each source's local queue once."""
        self._leakage_charged_until = 0
        # the buffer-capacity certificate (engine_info): whether a space
        # test (launch, re-arm or arrival) ever failed, and the largest
        # input-buffer occupancy any arrival produced
        self._blocked = False
        self._peak_occupancy = 0
        self._packets = PacketTable(fabric.nodes, fabric.positions, fabric.hops, fabric.targets)
        self.statistics = SimulationStatistics(packets=self._packets)
        self._layout = (fabric.nodes, self.config.flit_width_bits)
        self._batch = None
        if self.config.engine == ENGINE_BATCH:
            from repro.noc.batch import BatchSimulator

            self._batch = BatchSimulator(
                fabric.topology, fabric.routing, [self.config], technologies=[technology]
            )
            # the single batch cell owns the live counters; re-binding its
            # result objects keeps statistics/energy the public surface
            self.statistics = self._batch.statistics(0)
            self.energy = self._batch.energy(0)
            if probe is not None:
                self._batch.attach_probe(0, probe)

    def stuck_packets(self) -> list[tuple[Packet, NodeId]]:
        """Every undelivered packet with the router it is at (or flying to).

        Used by the drain-budget error so routing-loop and deadlock triage
        can name the culprits (id, position, destination, hops so far)
        without a debugger.  Sorted by packet id for stable messages; the
        packets are views (:meth:`PacketTable.view`, or the batch engine's
        :meth:`~repro.noc.batch.BatchSimulator.stuck_packets`).
        """
        if self._batch is not None:
            return self._batch.stuck_packets(0)
        nodes = self.fabric.nodes
        targets = self.fabric.targets
        stuck = [
            (packet, nodes[targets[port]])
            for port, queue in enumerate(self._queues)
            for packet in queue
        ]
        for flights in (*self._arrivals.values(), *self._parked.values()):
            stuck.extend((packet, nodes[targets[channel]]) for _, packet, channel in flights)
        stuck.sort()
        return [(self._packets.view(packet), node) for packet, node in stuck]

    def attach_probe(self, probe: SimulatorProbe) -> SimulatorProbe:
        """Attach an observability probe (idempotent; returns the probe)."""
        self.probe = probe
        if self._batch is not None:
            self._batch.attach_probe(0, probe)
        return probe

    # ------------------------------------------------------------------
    # traffic scheduling
    # ------------------------------------------------------------------
    def schedule_message(self, message: Message, cycle: int | None = None) -> int:
        """Queue a message for injection at ``cycle`` (default: now);
        returns its packet id.

        A message between wired routers, not in the past, is appended to
        the packet table as its own pending entry, without compiling a
        one-message batch; any other goes through :meth:`_schedule`, which
        raises its error.
        """
        if cycle is not None:
            require_int(cycle, "the schedule cycle")
        if self._batch is not None:
            # the batch core repeats the validations of _schedule verbatim
            # and records the injection on the shared statistics object
            return self._batch.schedule_message(0, message, cycle).packet_id
        if cycle is None:
            cycle = self.current_cycle
        positions = self.fabric.positions
        source = positions.get(message.source)
        destination = positions.get(message.destination)
        if source is None or destination is None or cycle < self.current_cycle:
            self._schedule((message,), cycle)
            return len(self._packets.messages) - 1
        size = message.size_bits
        packet = self._packets.append(
            cycle, message, destination, max(1, math.ceil(size / self.config.flit_width_bits)), size
        )
        heappush(self._pending, (cycle, packet, 1, ((source, (0,)),)))
        self.statistics.injected_count += 1
        return packet

    def schedule_messages(
        self,
        messages: Iterable[Message],
        cycle: int | None = None,
        memo: dict | None = None,
    ) -> None:
        """Queue messages for injection at ``cycle`` (default: now), in order.

        ``memo`` keeps the compiled form of a tuple of messages (its
        endpoints' router positions and its flit counts) for every
        simulator of the same router order and flit width that schedules
        the same tuple; a caller replaying one traffic program on many
        simulators passes the program's dict (the DSE pipeline does).
        """
        if cycle is not None:
            require_int(cycle, "the schedule cycle")
        with get_tracer().span("noc.schedule"):
            if self._batch is not None:
                for message in messages:
                    self._batch.schedule_message(0, message, cycle)
                return
            self._schedule(messages, cycle, memo)

    def _schedule(
        self, messages: Iterable[Message], cycle: int | None, memo: dict | None = None
    ) -> None:
        """Queue the messages as packets with consecutive ids, in one
        pending entry.

        Sources and destinations must be wired routers (a router added to
        the topology after construction is unknown).  On an unknown router
        the messages before it stay queued, exactly as if they had been
        scheduled one call at a time.
        """
        if cycle is None:
            cycle = self.current_cycle
        if cycle < self.current_cycle:
            raise SimulationError("cannot schedule a message in the past")
        if memo is None or type(messages) is not tuple:
            compiled = self._compile(messages)
        else:
            key = (id(messages), self._layout)
            kept = memo.get(key)
            if kept is None:
                # keeping the tuple alive keeps its id from being reused
                kept = memo[key] = (messages, self._compile(messages))
            compiled = kept[1]
        kept_messages, destinations, flits, bits, groups, error = compiled
        if kept_messages:
            first = self._packets.add(cycle, kept_messages, destinations, flits, bits)
            heappush(self._pending, (cycle, first, len(kept_messages), groups))
            self.statistics.injected_count += len(kept_messages)
        if error is not None:
            raise SimulationError(error)

    def _compile(self, messages: Iterable[Message]) -> tuple:
        """The kernel's form of a message sequence on this fabric:
        ``(messages, destination positions, flit counts, sizes in bits,
        per-source offsets, error)``.

        It depends only on the router order and the flit width.  Each
        distinct message size is converted to flits once.  The per-source
        offsets list ``(source position, offsets of its messages)`` in
        order of each source's first message.  On an unknown router the
        messages stop before it and ``error`` names it (else ``None``).
        """
        messages = tuple(messages)
        order = self.fabric.positions
        flit_width = self.config.flit_width_bits
        destinations: list[int] = []
        flits: list[int] = []
        bits: list[int] = []
        by_source: dict[int, list[int]] = {}
        flits_of: dict[int, int] = {}
        error = None
        for offset, message in enumerate(messages):
            source = order.get(message.source)
            if source is None:
                error = f"unknown source router {message.source!r}"
                break
            destination = order.get(message.destination)
            if destination is None:
                error = f"unknown destination router {message.destination!r}"
                break
            size = message.size_bits
            num_flits = flits_of.get(size)
            if num_flits is None:
                num_flits = flits_of[size] = max(1, math.ceil(size / flit_width))
            destinations.append(destination)
            flits.append(num_flits)
            bits.append(size)
            by_source.setdefault(source, []).append(offset)
        if error is not None:
            messages = messages[: len(destinations)]
        return messages, destinations, flits, bits, tuple(by_source.items()), error

    # ------------------------------------------------------------------
    # the cycle loop of the event engine
    # ------------------------------------------------------------------
    def _advance(self, until: int | None, budget: int = 0) -> None:
        """Run the cycle loop to the window end ``until``, or until drained.

        Each executed cycle injects, delivers arrivals, arbitrates and
        forwards.  Only the next cycle at which anything can progress is
        executed (every cycle while an arrival is parked: the model retries
        a blocked arrival each cycle, and ``cycles_stepped`` counts those
        cycles), and only the routers that might progress are visited:
        those injected into, arrived into or due a wake, armed on entry for
        every loaded router.  A wake for the next cycle is a bit
        of the ``soon`` mask, which the next executed cycle ORs into its
        active set; only later wakes (a busy channel's release) go through
        the wake heap.  They are processed
        in the fixed router order, lowest position first off a bitmask of
        active positions; a router woken mid-cycle by an upstream-space
        release joins this cycle's mask when its turn has not passed yet
        (exactly the routers a cycle-by-cycle loop would still visit) and is
        deferred to the next cycle otherwise.  Per visit, the
        input ports are scanned round-robin from ``cycle mod ports`` and
        the first head requesting an output wins it
        (``docs/simulator.md``); the same scan works out when a
        still-loaded router must be visited again.

        A window run stops before the first next cycle at or past
        ``until`` (or when nothing is left to happen) and sets the clock
        to ``until``: idle tails are analytic, their leakage is charged in
        one call at finalize.  A drain (``until=None``) stops once nothing
        is pending, buffered, in flight or parked; if the next cycle lies
        more than ``budget`` past the start, or never comes, the clock
        lands where a cycle-by-cycle crawl would raise,
        ``start + budget + 1``, and the drain-budget error is raised.  The
        fabric state is bound once per call and every counter is written
        back in one ``finally``, so a routing function raising mid-visit
        leaves the clock on the failing cycle, uncounted in
        ``cycles_stepped``, and the moves before it counted.
        """
        start = cycle = self.current_cycle
        fabric = self.fabric
        nodes = fabric.nodes
        orders = fabric.scan_orders
        hops_of = fabric.hops
        targets = fabric.targets
        sources = fabric.sources
        local_ports = fabric.local_ports
        route = fabric.route
        queues = self._queues
        no_port = len(queues)  # above every port id: "no head is ready"
        loads = self._load
        free_at = self._free_at
        claims = self._claims
        busy = self._busy
        bits = self._bits
        launched = self._launched
        pending = self._pending
        arrivals = self._arrivals
        arrival_cycles = self._arrival_cycles
        parked = self._parked
        wake_heap = self._wake_heap
        scheduled = self._scheduled_wake
        probe = self.probe
        table = self._packets
        destination_of = table.destinations
        flits_of = table.flits
        size_of = table.bits
        injected = table.injected
        hop_count = table.hops
        delivered_at = table.delivered_at
        delivered = table.delivered
        capacity = self.config.buffer_capacity_packets
        unfull = capacity - 1  # a bounded queue's length after a pop from full
        delay = self.config.router_pipeline_delay_cycles
        buffered = self._buffered_total
        soon = self._soon
        launches = self._launches
        visit = self._visits
        switch_bits = self._switch_bits
        peak = self._peak_occupancy
        blocked = self._blocked
        stepped = self.cycles_stepped
        overrun = False
        if buffered:
            # a routing error cuts a cycle short, dropping the wakes of the
            # routers not yet visited; run again, the cycle is executed
            # anew, visiting every loaded router
            for index, load in enumerate(loads):
                if load:
                    soon |= 1 << index
                    scheduled[index] = None
        try:
            while True:
                if parked or soon:
                    due = cycle
                else:
                    due = pending[0][0] if pending else None
                    if arrival_cycles and (due is None or arrival_cycles[0] < due):
                        due = arrival_cycles[0]
                    if wake_heap and (due is None or wake_heap[0][0] < due):
                        due = wake_heap[0][0]
                    if due is not None and due < cycle:
                        due = cycle
                if until is not None:
                    if due is None or due >= until:
                        break
                elif not (pending or buffered or arrival_cycles or parked):
                    break
                elif due is None or due - start > budget:
                    overrun = True
                    break
                cycle = due
                next_cycle = cycle + 1
                active = 0  # bitmask of the positions to visit this cycle
                # inject every due packet into its source's local queue,
                # then deliver the due arrivals in (arrival, launch) order;
                # both activate the receiving router
                while pending and pending[0][0] <= cycle:
                    _, base, count, groups = heappop(pending)
                    for index, offsets in groups:
                        queues[local_ports[index]].extend(map(base.__add__, offsets))
                        load = loads[index]
                        loads[index] = load + len(offsets)
                        active |= 1 << index
                        if probe is not None:
                            source = nodes[index]
                            for occupancy in range(load + 1, load + len(offsets) + 1):
                                probe.record_enqueue(source, occupancy)
                    buffered += count
                while arrival_cycles and arrival_cycles[0] <= cycle:
                    for flight in arrivals.pop(heappop(arrival_cycles)):
                        channel = flight[2]
                        queue = queues[channel]
                        if len(queue) >= capacity:
                            # full: park until a pop from this queue frees space
                            blocked = True
                            parked.setdefault(channel, []).append(flight)
                            continue
                        queue.append(flight[1])
                        if len(queue) > peak:
                            peak = len(queue)
                        target = targets[channel]
                        loads[target] += 1
                        if probe is not None:
                            probe.record_enqueue(nodes[target], loads[target])
                        active |= 1 << target
                        buffered += 1
                active |= soon
                soon = 0
                while wake_heap and wake_heap[0][0] <= cycle:
                    wake_cycle, index = heappop(wake_heap)
                    if scheduled[index] == wake_cycle:
                        scheduled[index] = None
                    active |= 1 << index
                while active:
                    lowest = active & -active
                    active ^= lowest
                    index = lowest.bit_length() - 1
                    # stop the scan once every queued packet is seen: no
                    # queue grows during a visit, so the ports left are empty
                    unseen = loads[index]
                    if not unseen:
                        continue  # speculative wake of an emptied router: a no-op
                    rotations = orders[index]
                    hops = hops_of[index]
                    visit += 1  # stamps the channels this visit claims
                    ejected = False  # whether a head won the local output
                    popped = []  # the ports popped this visit
                    # what the heads that stay ask of the next visit: the
                    # lowest port of one that can move next cycle (a
                    # router's port ids rise in port order), and the
                    # earliest busy-channel release (a full channel asks for
                    # neither)
                    ready = no_port
                    wake = None
                    # scan from port cycle mod ports, wrapping around
                    for port in rotations[cycle % len(rotations)]:
                        if not unseen:
                            break
                        queue = queues[port]
                        if not queue:
                            continue
                        unseen -= len(queue)
                        packet = queue[0]
                        destination = destination_of[packet]
                        if destination == index:
                            if ejected:
                                if port < ready:
                                    ready = port
                                continue
                            ejected = True
                            queue.popleft()
                            delivered_at[packet] = cycle
                            delivered.append(packet)
                            if probe is not None:
                                probe.record_delivery(nodes[index], cycle - injected[packet])
                        else:
                            channel = hops[destination]
                            if channel is None:
                                channel = route(index, destination)
                            release = free_at[channel]
                            if claims[channel] == visit:
                                # lost to an earlier head, which left the
                                # channel busy (it launched or waits) or full
                                if release > cycle and (wake is None or release < wake):
                                    wake = release
                                continue
                            claims[channel] = visit
                            if release > cycle:
                                if wake is None or release < wake:
                                    wake = release
                                continue
                            if len(queues[channel]) >= capacity:
                                blocked = True
                                continue
                            queue.popleft()
                            flits = flits_of[packet]
                            free_at[channel] = cycle + flits
                            hop_count[packet] += 1
                            # launches land two or more cycles ahead:
                            # appending keeps every bucket in sequence order
                            arrival = cycle + flits + delay
                            bucket = arrivals.get(arrival)
                            if bucket is None:
                                arrivals[arrival] = [(launches, packet, channel)]
                                heappush(arrival_cycles, arrival)
                            else:
                                bucket.append((launches, packet, channel))
                            launches += 1
                            if not bits[channel]:
                                launched.append(channel)
                            bits[channel] += size_of[packet]
                            busy[channel] += flits
                        # one switch traversal per move (the final one ejects)
                        switch_bits += size_of[packet]
                        buffered -= 1
                        loads[index] -= 1
                        popped.append(port)
                        upstream = sources[port]
                        if upstream is None:
                            continue  # the local queue: unbounded, fed by nobody
                        # a pop from a bounded buffer frees space: the
                        # arrivals parked on its channel fall due next cycle,
                        # and a loaded upstream router may launch into it
                        if parked and len(queue) == unfull:
                            waiting = parked.pop(port, None)
                            if waiting is not None:
                                bucket = arrivals.get(next_cycle)
                                if bucket is None:
                                    arrivals[next_cycle] = waiting
                                    heappush(arrival_cycles, next_cycle)
                                else:
                                    for flight in waiting:
                                        insort(bucket, flight)
                        if loads[upstream]:
                            if upstream > index:
                                active |= 1 << upstream
                            else:
                                soon |= 1 << upstream
                                scheduled[upstream] = None
                    if not loads[index]:
                        continue
                    # re-arm a still-loaded router at the earliest of its
                    # heads' conditions: next cycle (eject, routing error,
                    # free channel with downstream space), a busy channel's
                    # release, or none (backpressure: the downstream pop
                    # wakes it).  The heads that stayed were classified by
                    # the scan; a popped queue's new head is examined here,
                    # in port order up to the first ready head, and a full
                    # one before it blocks the run.  (No router earlier in
                    # the order can have woken this one for next cycle.)
                    if len(popped) > 1:
                        popped.sort()
                    for port in popped:
                        if port > ready:
                            break
                        queue = queues[port]
                        if not queue:
                            continue
                        destination = destination_of[queue[0]]
                        if destination == index:
                            ready = port
                            break
                        channel = hops[destination]
                        if channel is None:
                            try:
                                channel = route(index, destination)
                            except Exception:  # raised again by next cycle's scan
                                ready = port
                                break
                        release = free_at[channel]
                        if release > cycle:
                            if wake is None or release < wake:
                                wake = release
                            continue
                        if len(queues[channel]) < capacity:
                            ready = port
                            break
                        blocked = True
                    if ready < no_port or wake == next_cycle:
                        soon |= 1 << index
                        scheduled[index] = None
                    elif wake is not None and (scheduled[index] is None or scheduled[index] > wake):
                        scheduled[index] = wake
                        heappush(wake_heap, (wake, index))
                stepped += 1
                cycle = next_cycle
        finally:
            # kept exact even when a routing function raises mid-visit
            self.current_cycle = cycle
            self.cycles_stepped = stepped
            self._buffered_total = buffered
            self._soon = soon
            self._launches = launches
            self._visits = visit
            self._switch_bits = switch_bits
            self._peak_occupancy = peak
            self._blocked = blocked
        if until is not None:
            self.current_cycle = until
        elif overrun:
            self.current_cycle = start + budget + 1
            raise self._drain_budget_error(budget)

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Run for a fixed number of cycles."""
        require_int(cycles, "the cycles to run")
        if cycles < 0:
            raise SimulationError("cannot run a negative number of cycles")
        tracer = get_tracer()
        with tracer.span("noc.run") as span:
            if self._batch is not None:
                self._batch.enqueue(0, RunOp(cycles))
                self._execute_batch()  # the batch core finalizes per op
            else:
                self._advance(self.current_cycle + cycles)
                self._finalize()
            if tracer.enabled:
                span.annotate(
                    engine=self.config.engine,
                    cycles=cycles,
                    cycles_stepped=self.cycles_stepped,
                )

    def run_until_drained(self, max_cycles: int | None = None) -> int:
        """Run until all scheduled traffic has been delivered.

        Returns the cycle count at which the network drained.  Raises
        :class:`SimulationError` naming the stuck packets if the budget is
        exhausted first (which would indicate a routing loop or deadlock).
        """
        budget = max_cycles if max_cycles is not None else self.config.max_cycles
        require_int(budget, "the drain budget")
        if budget < 0:
            raise SimulationError(f"the drain budget cannot be negative ({budget})")
        start = self.current_cycle
        tracer = get_tracer()
        with tracer.span("noc.run_until_drained") as span:
            if self._batch is not None:
                self._batch.enqueue(0, DrainOp(max_cycles))
                self._execute_batch()  # the batch core finalizes per op
            else:
                self._advance(None, budget=budget)
                self._finalize()
            if tracer.enabled:
                span.annotate(
                    engine=self.config.engine,
                    cycles_drained=self.current_cycle - start,
                    cycles_stepped=self.cycles_stepped,
                )
        return self.current_cycle

    def _execute_batch(self) -> None:
        """Drive the single-cell batch core, mirroring its counters back.

        The core captures per-cell failures; re-raising here reproduces the
        event engine's raise-from-``run*()`` behaviour (including the
        post-failure cycle counters, which the ``finally`` keeps in sync).
        """
        try:
            self._batch.execute(raise_errors=True)
        finally:
            self.current_cycle = self._batch.current_cycle(0)
            self.cycles_stepped = self._batch.cycles_stepped(0)

    def _drain_budget_error(self, budget: int) -> SimulationError:
        """The drain-failure error, naming the packets that are stuck."""
        stuck = self.stuck_packets()
        named = ", ".join(
            f"#{packet.packet_id} at {where!r} -> {packet.destination!r} "
            f"({packet.hops} hops)"
            for packet, where in stuck[:_STUCK_PACKETS_NAMED]
        )
        if len(stuck) > _STUCK_PACKETS_NAMED:
            named += f", and {len(stuck) - _STUCK_PACKETS_NAMED} more"
        return SimulationError(
            f"network did not drain within {budget} cycles "
            f"({len(stuck)} packets stuck: {named})"
        )

    def _flush_energy_batches(self) -> None:
        """Fold the batched traversal counters into the energy account and
        the per-channel busy cycles into ``statistics.channel_busy_cycles``.

        Bits are accumulated as exact integers, and channels flush in
        first-launch order, so the flushed totals are independent of which
        cycles were skipped, and a channel joins
        ``channel_busy_cycles`` in the order of its first launch.
        """
        if self._switch_bits:
            self.energy.charge_switch(self._switch_bits)
            self._switch_bits = 0
        launched = self._launched
        if launched:
            channels = self.fabric.channels
            lengths = self.fabric.lengths
            bits = self._bits
            busy = self._busy
            busy_cycles = self.statistics.channel_busy_cycles
            for channel in launched:
                self.energy.charge_link(bits[channel], lengths[channel])
                bits[channel] = 0
                busy_cycles[channels[channel]] = busy[channel]
            launched.clear()

    def _finalize(self) -> None:
        self.statistics.total_cycles = self.current_cycle
        self._flush_energy_batches()
        # leakage is charged once per finalize over the cycles simulated
        # since the previous finalize — including any skipped idle span
        span = self.current_cycle - self._leakage_charged_until
        if span > 0:
            self.energy.charge_leakage(len(self.fabric.nodes), span)
            self._leakage_charged_until = self.current_cycle

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def average_power_mw(self) -> float:
        return self.energy.average_power_mw(max(self.statistics.total_cycles, 1))

    def engine_info(self) -> dict[str, object]:
        """Engine provenance: which engine ran and how much dead time it
        skipped.  Deliberately not part of :meth:`report`, whose output is
        engine-independent by contract.

        The event engine adds the buffer-capacity certificate:
        ``blocked`` (a launch, re-arm or arrival space test failed) and
        ``peak_occupancy`` (the fullest any input buffer got).  An
        unblocked run is bit-identical at every buffer capacity above its
        peak, ``cycles_stepped`` included, because capacity enters the
        model through those three tests alone (``docs/simulator.md``).
        """
        info: dict[str, object] = {
            "engine": self.config.engine,
            "cycles_total": self.current_cycle,
            "cycles_stepped": self.cycles_stepped,
            "cycles_skipped": self.current_cycle - self.cycles_stepped,
        }
        if self._batch is None:
            info["blocked"] = self._blocked
            info["peak_occupancy"] = self._peak_occupancy
        return info

    def report(self) -> dict[str, float]:
        """Combined performance + energy summary of the run so far.

        With a probe attached, deterministic ``probe_*`` figures are
        appended; the pre-existing keys are byte-for-byte unaffected, so
        probed and unprobed runs agree on everything but the extra keys.
        """
        # catch up the batched traversal counters so runs that raised
        # before finalize still read complete figures
        if self._batch is not None:
            self._batch.flush_energy(0)
        self._flush_energy_batches()
        report = dict(self.statistics.summary())
        report.update(self.energy.summary())
        report["average_power_mw"] = self.average_power_mw()
        report["total_energy_uj"] = self.energy.total_energy_uj
        if self.probe is not None:
            report.update(self.probe.report_figures(self.statistics))
        return report

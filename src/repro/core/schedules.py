"""Communication schedules for the primitives in the library.

Figure 1 of the paper annotates every implementation graph with the round
numbers of an *optimal schedule*: the sequence of pairwise transfers that
completes the primitive's communication problem (gossiping, broadcasting, ...)
in the minimum number of rounds, under the constraint that **any processor
can participate in at most one communication transaction per round**.

These schedules serve two purposes in the flow:

1. they certify that an implementation graph really is a minimum gossip /
   broadcast graph (the library validation replays the schedule and checks
   that every node ends up with the required information in the
   theoretical minimum number of rounds), and
2. they seed the routing tables of the synthesized architecture
   (Section 4.5): if the optimal schedule delivers node 1's message to
   node 4 through node 3, then the routing table of node 1 lists node 3 as
   the next hop towards node 4.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.core.graph import DiGraph, Node
from repro.exceptions import ScheduleError


@dataclass(frozen=True)
class Transfer:
    """A single directed message transfer within one round."""

    sender: Node
    receiver: Node

    def reversed(self) -> "Transfer":
        """The same transfer in the opposite direction."""
        return Transfer(self.receiver, self.sender)

    def __repr__(self) -> str:
        return f"{self.sender!r}->{self.receiver!r}"


@dataclass(frozen=True)
class Round:
    """One communication round: a set of transfers that happen in parallel.

    The telephone-model constraint of Figure 1 requires every node to appear
    in at most one transfer per round (counting both ends).
    """

    transfers: tuple[Transfer, ...]

    @classmethod
    def of(cls, *pairs: tuple[Node, Node]) -> "Round":
        """A round of one-way transfers, one per (sender, receiver) pair."""
        return cls(tuple(Transfer(sender, receiver) for sender, receiver in pairs))

    @classmethod
    def exchanges(cls, *pairs: tuple[Node, Node]) -> "Round":
        """Build a round of bidirectional exchanges (used by gossip)."""
        transfers: list[Transfer] = []
        for first, second in pairs:
            transfers.append(Transfer(first, second))
            transfers.append(Transfer(second, first))
        return cls(tuple(transfers))

    def is_telephone_legal(self) -> bool:
        """Each node participates in at most one *pairwise* transaction.

        A bidirectional exchange between the same pair counts as a single
        transaction, matching the full-duplex assumption of gossip schedules.
        """
        pair_of: dict[Node, frozenset[Node]] = {}
        for transfer in self.transfers:
            pair = frozenset((transfer.sender, transfer.receiver))
            for node in (transfer.sender, transfer.receiver):
                if node in pair_of and pair_of[node] != pair:
                    return False
                pair_of[node] = pair
        return True

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self.transfers)

    def __len__(self) -> int:
        return len(self.transfers)


@dataclass(frozen=True)
class CommunicationSchedule:
    """An ordered sequence of rounds implementing a communication primitive."""

    rounds: tuple[Round, ...]

    @classmethod
    def from_rounds(cls, rounds: Iterable[Round]) -> "CommunicationSchedule":
        """Assemble a schedule from an iterable of rounds."""
        return cls(tuple(rounds))

    @property
    def num_rounds(self) -> int:
        """Number of rounds in the schedule."""
        return len(self.rounds)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_against_graph(self, implementation: DiGraph) -> None:
        """Every scheduled transfer must use an edge of the implementation graph."""
        for index, round_ in enumerate(self.rounds):
            if not round_.is_telephone_legal():
                raise ScheduleError(
                    f"round {index}: a node participates in more than one transaction"
                )
            for transfer in round_:
                if not implementation.has_edge(transfer.sender, transfer.receiver):
                    raise ScheduleError(
                        f"round {index}: transfer {transfer!r} uses a link that is "
                        "not present in the implementation graph"
                    )

    def simulate_knowledge(self, nodes: Sequence[Node]) -> dict[Node, set[Node]]:
        """Replay the schedule in the gossip model.

        Every node starts knowing only its own token; a transfer forwards the
        sender's *entire accumulated knowledge* to the receiver (the standard
        gossip/broadcast dissemination model).  Returns the final knowledge
        sets.  Transfers within one round use the knowledge available at the
        *start* of the round, so simultaneous exchanges are order-independent.
        """
        knowledge: dict[Node, set[Node]] = {node: {node} for node in nodes}
        for round_ in self.rounds:
            snapshot = {node: set(known) for node, known in knowledge.items()}
            for transfer in round_:
                if transfer.sender not in knowledge or transfer.receiver not in knowledge:
                    raise ScheduleError(
                        f"transfer {transfer!r} references a node outside the primitive"
                    )
                knowledge[transfer.receiver] |= snapshot[transfer.sender]
        return knowledge

    def completes_gossip(self, nodes: Sequence[Node]) -> bool:
        """True when, after the schedule, every node knows every token."""
        universe = set(nodes)
        knowledge = self.simulate_knowledge(nodes)
        return all(knowledge[node] == universe for node in nodes)

    def completes_broadcast(self, root: Node, nodes: Sequence[Node]) -> bool:
        """True when every node has learned the root's token."""
        knowledge = self.simulate_knowledge(nodes)
        return all(root in knowledge[node] for node in nodes)


# ----------------------------------------------------------------------
# theoretical lower bounds (telephone model)
# ----------------------------------------------------------------------
def broadcast_round_lower_bound(num_nodes: int) -> int:
    """Minimum rounds to broadcast to ``num_nodes`` nodes: ceil(log2 n)."""
    if num_nodes < 1:
        raise ScheduleError("broadcast needs at least one node")
    return math.ceil(math.log2(num_nodes)) if num_nodes > 1 else 0


def gossip_round_lower_bound(num_nodes: int) -> int:
    """Minimum rounds for all-to-all gossip in the telephone model.

    The classical result (Knodel): ``ceil(log2 n)`` rounds for even ``n`` and
    ``ceil(log2 n) + 1`` for odd ``n`` (``n >= 4``); 1 round for ``n == 2``.
    """
    if num_nodes < 2:
        raise ScheduleError("gossip needs at least two nodes")
    base = math.ceil(math.log2(num_nodes))
    if num_nodes == 2:
        return 1
    return base if num_nodes % 2 == 0 else base + 1


# ----------------------------------------------------------------------
# schedule generators for the standard primitives
# ----------------------------------------------------------------------
def hypercube_gossip_schedule(nodes: Sequence[Node]) -> CommunicationSchedule:
    """Optimal gossip schedule on a hypercube of ``2^k`` nodes.

    Round ``d`` exchanges information across dimension ``d``: node ``i``
    exchanges with node ``i XOR 2^d``.  After ``k = log2(n)`` rounds every
    node knows everything, which matches the telephone-model lower bound for
    even ``n``; the 4-node case reduces exactly to the MGG-4 schedule
    described in Section 4.5 of the paper ((1,3),(2,4) then (1,2),(3,4) with
    the paper's node labelling).
    """
    count = len(nodes)
    if count < 2 or count & (count - 1):
        raise ScheduleError("hypercube gossip requires a power-of-two node count >= 2")
    dimensions = count.bit_length() - 1
    rounds: list[Round] = []
    # Iterate dimensions from the highest to the lowest so that the 4-node
    # case reproduces the paper's MGG-4 schedule verbatim: (1,3),(2,4) in the
    # first round and (1,2),(3,4) in the second.
    for dimension in reversed(range(dimensions)):
        pairs: list[tuple[Node, Node]] = []
        for index in range(count):
            partner = index ^ (1 << dimension)
            if index < partner:
                pairs.append((nodes[index], nodes[partner]))
        rounds.append(Round.exchanges(*pairs))
    return CommunicationSchedule.from_rounds(rounds)


def pair_exchange_schedule(first: Node, second: Node) -> CommunicationSchedule:
    """Gossip between two nodes: a single bidirectional exchange."""
    return CommunicationSchedule.from_rounds([Round.exchanges((first, second))])


def binomial_broadcast_schedule(nodes: Sequence[Node]) -> CommunicationSchedule:
    """Optimal broadcast from ``nodes[0]`` using the binomial-tree doubling scheme.

    In round ``r`` every node that already holds the message forwards it to a
    node that does not, so the number of informed nodes doubles each round and
    broadcast finishes in ``ceil(log2 n)`` rounds — the lower bound.
    """
    if not nodes:
        raise ScheduleError("broadcast needs at least one node")
    informed: list[Node] = [nodes[0]]
    waiting: list[Node] = list(nodes[1:])
    rounds: list[Round] = []
    while waiting:
        pairs: list[tuple[Node, Node]] = []
        senders = list(informed)
        for sender in senders:
            if not waiting:
                break
            receiver = waiting.pop(0)
            pairs.append((sender, receiver))
            informed.append(receiver)
        rounds.append(Round.of(*pairs))
    return CommunicationSchedule.from_rounds(rounds)


def ring_schedule(nodes: Sequence[Node], closed: bool) -> CommunicationSchedule:
    """Pipelined neighbour-to-neighbour forwarding along a path or loop.

    Odd-indexed edges and even-indexed edges alternate rounds so that the
    telephone constraint holds; the schedule is repeated enough times for a
    token injected at the head to traverse the whole structure.
    """
    count = len(nodes)
    if count < 2:
        raise ScheduleError("a path or loop needs at least two nodes")
    edges: list[tuple[Node, Node]] = [(nodes[i], nodes[i + 1]) for i in range(count - 1)]
    if closed:
        edges.append((nodes[-1], nodes[0]))
    # Greedy edge colouring: place every edge in the first phase where neither
    # endpoint is already busy.  A path needs two phases; an odd cycle three.
    phases: list[list[tuple[Node, Node]]] = []
    for edge in edges:
        for phase in phases:
            if all(edge[0] not in other and edge[1] not in other for other in phase):
                phase.append(edge)
                break
        else:
            phases.append([edge])
    repetitions = count - 1
    rounds: list[Round] = []
    for _ in range(repetitions):
        for phase in phases:
            rounds.append(Round.of(*phase))
    return CommunicationSchedule.from_rounds(rounds)

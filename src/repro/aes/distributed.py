"""Distributed AES-128 over a network of 16 byte-slice nodes (Section 5.2).

The paper distributes the AES operations to 16 identical nodes, each
processing one byte of the 128-bit input block.  This module implements that
byte-slice execution model in a way that serves two purposes at once:

1. **functional correctness** — the distributed execution produces the same
   ciphertext as the monolithic reference in :mod:`repro.aes.aes_core`
   (tests assert bit-exactness against the FIPS-197 vector), and
2. **communication tracing** — every inter-node byte transfer is recorded as
   a :class:`~repro.noc.packet.Message`, grouped into *phases* that respect
   the data dependencies between AES steps (a node cannot MixColumns before
   it received the ShiftRows bytes of its column).  The phase list is what
   the NoC simulator replays to measure cycles/block on the mesh and on the
   customized architecture.

Node mapping (matches the paper's Figure 6a labels): the node that owns
state byte ``(row, column)`` is ``4 * row + column + 1``, so row ``r`` owns
nodes ``4r+1 .. 4r+4`` and column ``c`` owns nodes ``{c+1, c+5, c+9, c+13}``.
The inter-node traffic is then

* **ShiftRows** — row ``r`` rotates by ``r``: row 1 and row 3 become 4-node
  loops, row 2 becomes two disjoint swaps, row 0 stays silent; and
* **MixColumns** — every node needs the other three bytes of its column:
  all-to-all (gossip) within each column.

These are exactly the four column MGG-4s, the two row loops and the
remainder (row 2 swaps) that the paper's decomposition finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aes.aes_core import (
    BLOCK_SIZE_BYTES,
    NUM_ROUNDS,
    S_BOX,
    expand_key,
    mix_single_column,
)
from repro.exceptions import WorkloadError
from repro.noc.packet import Message

BYTE_BITS = 8


def node_of(row: int, column: int) -> int:
    """Network node that owns state byte ``(row, column)`` (1-based, paper labels)."""
    if not (0 <= row < 4 and 0 <= column < 4):
        raise WorkloadError("state coordinates must be within the 4x4 grid")
    return 4 * row + column + 1


def column_nodes(column: int) -> list[int]:
    """The four nodes holding state column ``column`` (e.g. column 0 -> [1, 5, 9, 13])."""
    return [node_of(row, column) for row in range(4)]


def row_nodes(row: int) -> list[int]:
    """The four nodes holding state row ``row`` (e.g. row 0 -> [1, 2, 3, 4])."""
    return [node_of(row, column) for column in range(4)]


@dataclass
class DistributedTrace:
    """The outcome of one distributed block encryption."""

    ciphertext: bytes
    phases: list[list[Message]] = field(default_factory=list)
    phase_labels: list[str] = field(default_factory=list)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def num_messages(self) -> int:
        return sum(len(phase) for phase in self.phases)

    @property
    def total_bits(self) -> int:
        return sum(message.size_bits for phase in self.phases for message in phase)

    def messages(self) -> list[Message]:
        return [message for phase in self.phases for message in phase]

    def traffic_volumes(self) -> dict[tuple[int, int], int]:
        """Aggregate bits exchanged per (source, destination) pair for one block."""
        volumes: dict[tuple[int, int], int] = {}
        for message in self.messages():
            key = (message.source, message.destination)
            volumes[key] = volumes.get(key, 0) + message.size_bits
        return volumes


class DistributedAES:
    """Byte-slice distributed AES-128 encryption with communication tracing."""

    def __init__(self, key: bytes) -> None:
        self.round_keys = expand_key(key)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def encrypt_block(self, plaintext: bytes) -> DistributedTrace:
        """Encrypt one block, returning the ciphertext and the message phases."""
        if len(plaintext) != BLOCK_SIZE_BYTES:
            raise WorkloadError(f"AES blocks are {BLOCK_SIZE_BYTES} bytes")
        # byte_at[node] is the single state byte the node currently owns
        byte_at: dict[int, int] = {}
        for row in range(4):
            for column in range(4):
                byte_at[node_of(row, column)] = plaintext[row + 4 * column]

        trace = DistributedTrace(ciphertext=b"")

        # initial AddRoundKey (local, no communication)
        self._add_round_key(byte_at, 0)

        for round_index in range(1, NUM_ROUNDS + 1):
            self._sub_bytes(byte_at)
            shift_messages = self._shift_rows(byte_at)
            if shift_messages:
                trace.phases.append(shift_messages)
                trace.phase_labels.append(f"round{round_index}_shiftrows")
            if round_index != NUM_ROUNDS:
                mix_messages = self._mix_columns(byte_at)
                trace.phases.append(mix_messages)
                trace.phase_labels.append(f"round{round_index}_mixcolumns")
            self._add_round_key(byte_at, round_index)

        ciphertext = bytes(
            byte_at[node_of(row, column)] for column in range(4) for row in range(4)
        )
        trace.ciphertext = ciphertext
        return trace

    # ------------------------------------------------------------------
    # per-step node behaviour
    # ------------------------------------------------------------------
    def _add_round_key(self, byte_at: dict[int, int], round_index: int) -> None:
        key = self.round_keys[round_index]
        for row in range(4):
            for column in range(4):
                node = node_of(row, column)
                byte_at[node] ^= key[row][column]

    @staticmethod
    def _sub_bytes(byte_at: dict[int, int]) -> None:
        for node, value in byte_at.items():
            byte_at[node] = S_BOX[value]

    @staticmethod
    def _shift_rows(byte_at: dict[int, int]) -> list[Message]:
        """Row ``r`` rotates left by ``r``; returns the inter-node messages."""
        messages: list[Message] = []
        new_values: dict[int, int] = dict(byte_at)
        for row in range(1, 4):
            for column in range(4):
                source_column = (column + row) % 4
                sender = node_of(row, source_column)
                receiver = node_of(row, column)
                new_values[receiver] = byte_at[sender]
                if sender != receiver:
                    messages.append(
                        Message(
                            source=sender,
                            destination=receiver,
                            size_bits=BYTE_BITS,
                            tag=f"shiftrows_row{row}",
                        )
                    )
        byte_at.update(new_values)
        return messages

    @staticmethod
    def _mix_columns(byte_at: dict[int, int]) -> list[Message]:
        """Gossip within every column, then each node computes its output byte."""
        messages: list[Message] = []
        new_values: dict[int, int] = {}
        for column in range(4):
            nodes = column_nodes(column)
            column_bytes = [byte_at[node] for node in nodes]
            for sender in nodes:
                for receiver in nodes:
                    if sender != receiver:
                        messages.append(
                            Message(
                                source=sender,
                                destination=receiver,
                                size_bits=BYTE_BITS,
                                tag=f"mixcolumns_col{column}",
                            )
                        )
            mixed = mix_single_column(column_bytes)
            for row, node in enumerate(nodes):
                new_values[node] = mixed[row]
        byte_at.update(new_values)
        return messages

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

#!/usr/bin/env python3
"""Section 5.2 end to end: distributed AES, customized architecture, prototype
comparison against the 4x4 mesh.

Reproduces, on the simulation substrate:
* the decomposition listing (4x MGG4 columns + 2x L4 rows + remainder, COST 28),
* the synthesized customized architecture of Figure 6b,
* the throughput / latency / power / energy comparison table of Section 5.2.

Run with:  python examples/aes_synthesis.py
"""

from __future__ import annotations

from repro.aes.aes_core import FIPS197_CIPHERTEXT, FIPS197_KEY, FIPS197_PLAINTEXT
from repro.aes.distributed import DistributedAES
from repro.experiments import run_aes_synthesis, run_prototype_comparison


def main() -> None:
    # 1. the application itself: distributed AES is functionally correct
    trace = DistributedAES(FIPS197_KEY).encrypt_block(FIPS197_PLAINTEXT)
    assert trace.ciphertext == FIPS197_CIPHERTEXT
    print(
        f"Distributed AES-128 over 16 byte-slice nodes: {trace.num_phases} communication "
        f"phases, {trace.num_messages} messages, {trace.total_bits} bits per block "
        f"(ciphertext matches FIPS-197)."
    )
    print()

    # 2. decomposition + synthesis (Figure 6)
    synthesis = run_aes_synthesis()
    print(synthesis.describe())
    print()

    # 3. prototype-style comparison (Section 5.2 table)
    comparison = run_prototype_comparison(blocks=2, synthesis=synthesis)
    print(comparison.describe())


if __name__ == "__main__":
    main()

"""AES-128 and its distributed 16-node byte-slice execution model."""

from repro.aes.acg import (
    build_aes_acg,
    expected_aes_edges,
    expected_column_gossip_edges,
    expected_row_shift_edges,
)
from repro.aes.aes_core import (
    BLOCK_SIZE_BYTES,
    FIPS197_CIPHERTEXT,
    FIPS197_KEY,
    FIPS197_PLAINTEXT,
    decrypt_block,
    encrypt_block,
    encrypt_ecb,
    expand_key,
)
from repro.aes.distributed import (
    DistributedAES,
    DistributedTrace,
    column_nodes,
    node_of,
    row_nodes,
)

__all__ = [
    "BLOCK_SIZE_BYTES",
    "encrypt_block",
    "decrypt_block",
    "encrypt_ecb",
    "expand_key",
    "FIPS197_PLAINTEXT",
    "FIPS197_KEY",
    "FIPS197_CIPHERTEXT",
    "DistributedAES",
    "DistributedTrace",
    "node_of",
    "column_nodes",
    "row_nodes",
    "build_aes_acg",
    "expected_aes_edges",
    "expected_column_gossip_edges",
    "expected_row_shift_edges",
]

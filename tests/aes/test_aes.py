"""Unit tests for AES-128, its distributed byte-slice model and the AES ACG."""

from __future__ import annotations

import pytest

from repro.aes.acg import (
    build_aes_acg,
    expected_aes_edges,
    expected_column_gossip_edges,
    expected_row_shift_edges,
)
from repro.aes.aes_core import (
    FIPS197_CIPHERTEXT,
    FIPS197_KEY,
    FIPS197_PLAINTEXT,
    bytes_to_state,
    decrypt_block,
    encrypt_block,
    encrypt_ecb,
    expand_key,
    gf_multiply,
    mix_columns,
    inv_mix_columns,
    shift_rows,
    inv_shift_rows,
    state_to_bytes,
    xtime,
)
from repro.aes.distributed import DistributedAES, column_nodes, node_of, row_nodes
from repro.exceptions import WorkloadError


class TestAesCore:
    def test_fips197_vector(self):
        assert encrypt_block(FIPS197_PLAINTEXT, FIPS197_KEY) == FIPS197_CIPHERTEXT

    def test_nist_appendix_c_vector(self):
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert encrypt_block(plaintext, key) == expected

    def test_decrypt_inverts_encrypt(self):
        for seed in range(4):
            block = bytes((seed * 17 + i * 7) % 256 for i in range(16))
            key = bytes((seed * 29 + i * 11) % 256 for i in range(16))
            assert decrypt_block(encrypt_block(block, key), key) == block

    def test_block_and_key_length_validation(self):
        with pytest.raises(WorkloadError):
            encrypt_block(b"short", FIPS197_KEY)
        with pytest.raises(WorkloadError):
            expand_key(b"short")
        with pytest.raises(WorkloadError):
            encrypt_ecb(b"123", FIPS197_KEY)

    def test_ecb_multi_block(self):
        data = FIPS197_PLAINTEXT * 3
        ciphertext = encrypt_ecb(data, FIPS197_KEY)
        assert ciphertext == FIPS197_CIPHERTEXT * 3

    def test_state_round_trip(self):
        state = bytes_to_state(FIPS197_PLAINTEXT)
        assert state_to_bytes(state) == FIPS197_PLAINTEXT

    def test_gf_arithmetic(self):
        assert xtime(0x57) == 0xAE
        assert gf_multiply(0x57, 0x13) == 0xFE  # FIPS-197 example
        assert gf_multiply(0x01, 0xAB) == 0xAB

    def test_shift_rows_inverse(self):
        state = bytes_to_state(FIPS197_PLAINTEXT)
        reference = [row[:] for row in state]
        shift_rows(state)
        inv_shift_rows(state)
        assert state == reference

    def test_mix_columns_inverse(self):
        state = bytes_to_state(FIPS197_PLAINTEXT)
        reference = [row[:] for row in state]
        mix_columns(state)
        inv_mix_columns(state)
        assert state == reference

    def test_key_expansion_produces_11_round_keys(self):
        round_keys = expand_key(FIPS197_KEY)
        assert len(round_keys) == 11
        # first round key is the cipher key itself (column-major)
        assert state_to_bytes(round_keys[0]) == FIPS197_KEY


class TestNodeMapping:
    def test_node_of_matches_paper_numbering(self):
        assert node_of(0, 0) == 1
        assert node_of(1, 0) == 5
        assert node_of(3, 3) == 16

    def test_column_and_row_nodes(self):
        assert column_nodes(0) == [1, 5, 9, 13]  # the paper's first column
        assert row_nodes(0) == [1, 2, 3, 4]
        assert row_nodes(2) == [9, 10, 11, 12]

    def test_bounds_checked(self):
        with pytest.raises(WorkloadError):
            node_of(4, 0)


class TestDistributedAES:
    def test_matches_reference_on_fips_vector(self):
        trace = DistributedAES(FIPS197_KEY).encrypt_block(FIPS197_PLAINTEXT)
        assert trace.ciphertext == FIPS197_CIPHERTEXT

    def test_matches_reference_on_random_blocks(self):
        key = bytes(range(16))
        distributed = DistributedAES(key)
        for seed in range(3):
            block = bytes((seed * 31 + i * 13) % 256 for i in range(16))
            assert distributed.encrypt_block(block).ciphertext == encrypt_block(block, key)

    def test_phase_structure(self):
        trace = DistributedAES(FIPS197_KEY).encrypt_block(FIPS197_PLAINTEXT)
        # 10 ShiftRows phases + 9 MixColumns phases
        assert trace.num_phases == 19
        shift_phases = [label for label in trace.phase_labels if "shiftrows" in label]
        mix_phases = [label for label in trace.phase_labels if "mixcolumns" in label]
        assert len(shift_phases) == 10
        assert len(mix_phases) == 9

    def test_message_counts_per_phase(self):
        trace = DistributedAES(FIPS197_KEY).encrypt_block(FIPS197_PLAINTEXT)
        for label, phase in zip(trace.phase_labels, trace.phases):
            if "shiftrows" in label:
                assert len(phase) == 12  # rows 1-3 move, row 0 is silent
            else:
                assert len(phase) == 48  # 4 columns x 12 gossip messages

    def test_total_traffic_volume(self):
        trace = DistributedAES(FIPS197_KEY).encrypt_block(FIPS197_PLAINTEXT)
        # 10*12 + 9*48 = 552 byte messages
        assert trace.num_messages == 552
        assert trace.total_bits == 552 * 8

    def test_traffic_stays_within_rows_and_columns(self):
        trace = DistributedAES(FIPS197_KEY).encrypt_block(FIPS197_PLAINTEXT)
        for label, phase in zip(trace.phase_labels, trace.phases):
            for message in phase:
                # nodes are numbered row-major from 1 (node_of)
                source_row, source_col = divmod(message.source - 1, 4)
                dest_row, dest_col = divmod(message.destination - 1, 4)
                if "shiftrows" in label:
                    assert source_row == dest_row
                else:
                    assert source_col == dest_col

    def test_block_length_validation(self):
        with pytest.raises(WorkloadError):
            DistributedAES(FIPS197_KEY).encrypt_block(b"short")


class TestAesAcg:
    def test_structure_matches_figure6a(self, aes_acg):
        assert aes_acg.num_nodes == 16
        assert set(aes_acg.edges()) == expected_aes_edges()
        assert aes_acg.num_edges == 60  # 48 gossip + 12 shift edges

    def test_expected_edge_helpers(self):
        gossip = expected_column_gossip_edges()
        shift = expected_row_shift_edges()
        assert len(gossip) == 48
        assert len(shift) == 12
        assert not gossip & shift

    def test_column_volumes_reflect_nine_mixcolumns_rounds(self, aes_acg):
        # each gossip edge carries 8 bits in each of the 9 MixColumns rounds
        assert aes_acg.volume(1, 5) == pytest.approx(72.0)

    def test_row_volumes_reflect_ten_shiftrows_rounds(self, aes_acg):
        # row-1 loop edge: 8 bits x 10 rounds
        assert aes_acg.volume(6, 5) == pytest.approx(80.0)

    def test_floorplan_attached(self, aes_acg):
        assert all(aes_acg.has_position(node) for node in aes_acg.nodes())
        # nodes 1 and 2 are adjacent in the 4x4 grid of 2 mm tiles
        assert aes_acg.link_length(1, 2) == pytest.approx(2.0)

    def test_blocks_scale_volumes(self):
        double = build_aes_acg(blocks=2, floorplanned=False)
        single = build_aes_acg(blocks=1, floorplanned=False)
        assert double.volume(1, 5) == pytest.approx(2 * single.volume(1, 5))

"""Tests for the published embedded-benchmark ACGs and the
degree-sequence-controlled random generators."""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.benchmarks import (
    embedded_benchmark_acg,
    embedded_benchmark_names,
    embedded_benchmark_suite,
)
from repro.workloads.random_acg import (
    degree_sequence_acg,
    power_law_out_degrees,
    scale_free_acg,
)


class TestEmbeddedBenchmarks:
    def test_catalogue(self):
        names = embedded_benchmark_names()
        assert names == ["h263enc_mp3dec", "mpeg4", "mwd", "vopd"]
        assert len(embedded_benchmark_suite()) == 4
        with pytest.raises(WorkloadError):
            embedded_benchmark_acg("jpeg2000")

    def test_all_benchmarks_are_floorplanned_12_core_acgs(self):
        for acg in embedded_benchmark_suite():
            assert acg.num_nodes == 12
            assert acg.num_edges >= 12
            assert all(acg.has_position(node) for node in acg.nodes())
            assert all(acg.volume(s, t) > 0 for s, t in acg.edges())

    def test_mpeg4_is_sdram_hub_dominated(self):
        acg = embedded_benchmark_acg("mpeg4")
        hub_degree = acg.degree("sdram")
        assert hub_degree == max(acg.degree(node) for node in acg.nodes())
        assert hub_degree >= 8

    def test_vopd_pipeline_and_feedback(self):
        acg = embedded_benchmark_acg("vopd")
        assert acg.has_edge("vld", "run_le_dec")
        # the stripe-memory feedback loop around AC/DC prediction
        assert acg.has_edge("acdc_pred", "stripe_mem")
        assert acg.has_edge("stripe_mem", "acdc_pred")

    def test_volumes_scale_with_bits_per_mbs(self):
        small = embedded_benchmark_acg("vopd", bits_per_mbs=1.0)
        large = embedded_benchmark_acg("vopd", bits_per_mbs=8.0)
        assert large.volume("iquant", "idct") == pytest.approx(
            8.0 * small.volume("iquant", "idct")
        )

    def test_builds_are_deterministic(self):
        first = embedded_benchmark_acg("mpeg4")
        second = embedded_benchmark_acg("mpeg4")
        assert first.edges(data=True) == second.edges(data=True)


class TestDegreeSequenceGenerators:
    def test_exact_out_degree_sequence(self):
        degrees = [3, 2, 2, 1, 1, 0]
        acg = degree_sequence_acg(degrees, seed=5)
        assert [acg.out_degree(node) for node in sorted(acg.nodes())] == degrees
        assert acg.num_edges == sum(degrees)

    def test_seed_is_mandatory_and_reproducible(self):
        with pytest.raises(TypeError):
            degree_sequence_acg([1, 1, 1])  # no seed -> explicit TypeError
        first = degree_sequence_acg([2, 2, 1, 1], seed=9)
        second = degree_sequence_acg([2, 2, 1, 1], seed=9)
        assert first.edges(data=True) == second.edges(data=True)
        different = degree_sequence_acg([2, 2, 1, 1], seed=10)
        assert first.edges() != different.edges()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            degree_sequence_acg([1], seed=0)
        with pytest.raises(WorkloadError):
            degree_sequence_acg([5, 1, 1], seed=0)  # degree > n-1
        with pytest.raises(WorkloadError):
            degree_sequence_acg([-1, 1, 1], seed=0)
        with pytest.raises(WorkloadError):
            degree_sequence_acg([1, 1], seed=0, min_volume_bits=64, max_volume_bits=32)

    def test_power_law_sequence_shape(self):
        degrees = power_law_out_degrees(20, exponent=2.0, max_out_degree=6)
        assert len(degrees) == 20
        assert degrees[0] == 6  # rank-1 hub takes the cap
        assert degrees[-1] == 1  # the tail flattens to leaves
        assert sorted(degrees, reverse=True) == degrees
        with pytest.raises(WorkloadError):
            power_law_out_degrees(10, exponent=1.0)

    def test_scale_free_acg(self):
        acg = scale_free_acg(16, seed=3, max_out_degree=4)
        assert acg.num_nodes == 16
        degrees = sorted((acg.out_degree(node) for node in acg.nodes()), reverse=True)
        assert degrees[0] == 4
        assert degrees[-1] == 1
        clone = scale_free_acg(16, seed=3, max_out_degree=4)
        assert acg.edges(data=True) == clone.edges(data=True)

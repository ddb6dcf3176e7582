"""Tests for the phase recovery study."""

import numpy as np
import pytest

from repro.analysis.phase_recovery import (
    cluster_homogeneity,
    phase_recovery_study,
)


class TestHomogeneity:
    def test_perfect(self):
        clusters = [0, 0, 1, 1]
        truth = ["a", "a", "b", "b"]
        assert cluster_homogeneity(clusters, truth) == 1.0

    def test_refinement_still_perfect(self):
        """Splitting one true phase into two clusters keeps homogeneity 1."""
        clusters = [0, 1, 2, 2]
        truth = ["a", "a", "b", "b"]
        assert cluster_homogeneity(clusters, truth) == 1.0

    def test_mixed_cluster_penalised(self):
        clusters = [0, 0, 0, 0]
        truth = ["a", "a", "b", "b"]
        assert cluster_homogeneity(clusters, truth) == 0.5


class TestStudy:
    def test_labels_align_with_frames(self):
        from repro.workloads.benchmarks import benchmark_spec
        from repro.workloads.generator import GameWorkloadGenerator

        spec = benchmark_spec("hcr").scaled(0.02)
        trace, labels = GameWorkloadGenerator(spec).generate_labeled()
        assert len(labels) == trace.frame_count
        assert set(labels) <= {p.name for p in spec.phases}

    def test_recovery_on_small_benchmarks(self):
        study = phase_recovery_study(aliases=("hcr", "jjo"), scale=0.05)
        results = study.data["results"]
        assert len(results) == 2
        for result in results:
            # Clusters should track the true phases far better than chance
            # and each cluster should be dominated by one phase.
            assert result.ari > 0.2, result.alias
            assert result.homogeneity > 0.7, result.alias
        assert "ARI" in study.report

"""Tests for the per-benchmark evaluation runner."""

import pytest

from repro.analysis.runner import clear_cache, evaluate_benchmark
from repro.gpu.stats import KEY_METRICS

SCALE = 0.02  # keep runner tests fast


@pytest.fixture(scope="module")
def evaluation():
    clear_cache()
    return evaluate_benchmark("hcr", scale=SCALE)


class TestEvaluation:
    def test_components_consistent(self, evaluation):
        assert evaluation.alias == "hcr"
        assert evaluation.plan.total_frames == evaluation.profile.frame_count
        assert len(evaluation.full.frame_ids) == evaluation.plan.total_frames

    def test_representatives_simulated(self, evaluation):
        assert evaluation.representatives.frame_ids == (
            evaluation.plan.representative_frames
        )

    def test_reduction_factor(self, evaluation):
        assert evaluation.reduction_factor > 1.0

    def test_relative_errors_cover_key_metrics(self, evaluation):
        errors = evaluation.relative_errors()
        assert set(errors) == set(KEY_METRICS)
        assert all(e >= 0 for e in errors.values())

    def test_metric_vector_matches_totals(self, evaluation):
        cycles = evaluation.metric_vector("cycles")
        assert cycles.sum() == pytest.approx(evaluation.totals.cycles)

    def test_time_speedup_positive(self, evaluation):
        assert evaluation.time_speedup > 1.0


class TestCache:
    def test_cache_returns_same_object(self, evaluation):
        again = evaluate_benchmark("hcr", scale=SCALE)
        assert again is evaluation

    def test_bypass_cache(self, evaluation):
        fresh = evaluate_benchmark("hcr", scale=SCALE, use_cache=False)
        assert fresh is not evaluation

    def test_clear_cache(self, evaluation):
        clear_cache()
        fresh = evaluate_benchmark("hcr", scale=SCALE)
        assert fresh is not evaluation

"""Tests for the ablation studies."""

import pytest

from repro.analysis.ablation import threshold_sweep, weight_ablation
from repro.analysis.runner import clear_cache

SCALE = 0.02


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestWeightAblation:
    def test_all_variants_run(self):
        result = weight_ablation("hcr", scale=SCALE)
        points = result.data["points"]
        assert len(points) == 4
        assert "uniform" in result.report
        for point in points:
            assert point.selected_frames >= 1
            assert all(e >= 0 for e in point.errors.values())


class TestRenderingModeStudy:
    def test_modes_compared(self):
        from repro.analysis.ablation import rendering_mode_study

        result = rendering_mode_study("hcr", scale=SCALE)
        by_mode = {p.mode: p for p in result.data["points"]}
        assert set(by_mode) == {"tbr", "tbdr", "imr"}
        assert by_mode["tbdr"].fragments_shaded < by_mode["tbr"].fragments_shaded
        assert "Rendering-mode study" in result.report


class TestScaleConvergence:
    def test_reduction_grows_with_length(self):
        from repro.analysis.ablation import scale_convergence_study

        result = scale_convergence_study("hcr", scale=0.2)
        points = result.data["points"]
        assert points[-1].reduction > points[0].reduction
        assert "convergence" in result.report


class TestThresholdSweep:
    def test_monotone_frames_in_threshold(self):
        result = threshold_sweep(
            "hcr", thresholds=(0.3, 0.85, 1.0), scale=SCALE
        )
        frames = [p.selected_frames for p in result.data["points"]]
        assert frames == sorted(frames)

    def test_report_mentions_tradeoff(self):
        result = threshold_sweep("hcr", thresholds=(0.85,), scale=SCALE)
        assert "T=0.85" in result.report

"""Tests for the experiment registry (every paper table/figure)."""

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    fig3_correlation,
    fig4_power,
    fig5_similarity,
    fig6_clusters,
    fig7_accuracy,
    run_experiment,
    table1_config,
    table2_benchmarks,
    table3_reduction,
    table4_random,
)
from repro.analysis.runner import clear_cache
from repro.errors import AnalysisError
from repro.workloads.benchmarks import benchmark_aliases

SCALE = 0.02


@pytest.fixture(scope="module", autouse=True)
def warm_cache():
    """All experiments at one scale share cached evaluations."""
    clear_cache()
    yield
    clear_cache()


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig3", "fig4", "fig5", "fig6", "fig7", "speedup",
            "backend_compare", "adversarial",
            "weight_ablation", "threshold_sweep", "cluster_method_study",
            "warmup_study", "rendering_mode_study",
            "scale_convergence_study", "phase_recovery_study",
            "parallel_scaling",
        }

    def test_unknown_experiment(self):
        with pytest.raises(AnalysisError):
            run_experiment("fig99")


class TestTable1:
    def test_report_contains_key_parameters(self):
        report = table1_config().report
        assert "600 MHz" in report
        assert "1440x720" in report
        assert "32x32 pixels" in report
        assert "256 KiB" in report


class TestTable2:
    def test_covers_all_benchmarks(self):
        result = table2_benchmarks(scale=SCALE)
        assert set(result.data) == set(benchmark_aliases())

    def test_shader_counts_match_paper(self):
        result = table2_benchmarks(scale=SCALE)
        assert result.data["asp"]["vertex_shaders"] == 42
        assert result.data["bbr1"]["fragment_shaders"] == 62


class TestFig3:
    def test_shader_correlation_dominates_prim(self):
        """The paper's core Figure 3 finding."""
        result = fig3_correlation(scale=SCALE)
        average = result.data["average"]
        assert average["shaders"] > 0.9
        assert average["shaders"] > average["prim"]


class TestFig4:
    def test_raster_dominates(self):
        result = fig4_power(scale=SCALE)
        geometry, raster, tiling = result.data["average"]
        assert raster > 0.5
        assert raster > geometry
        assert raster > tiling

    def test_fractions_sum_to_one(self):
        result = fig4_power(scale=SCALE)
        for fractions in result.data["per_benchmark"].values():
            assert sum(fractions.values()) == pytest.approx(1.0)


class TestFig5:
    def test_heatmap_rendered(self):
        result = fig5_similarity(alias="bbr1", frames=50, scale=SCALE, width=20)
        lines = result.report.splitlines()
        assert len([l for l in lines if len(l) == 20]) == 20

    def test_distance_matrix_shape(self):
        result = fig5_similarity(alias="bbr1", frames=30, scale=SCALE)
        assert result.data["distances"].shape == (30, 30)


class TestFig6:
    def test_cluster_strip(self):
        result = fig6_clusters(alias="bbr1", frames=50, scale=SCALE, width=25)
        assert result.data["k"] >= 1
        assert len(result.data["labels"]) == 50
        assert result.report.splitlines()[-1]  # the symbol strip


class TestTable3:
    def test_reductions_positive(self):
        result = table3_reduction(scale=SCALE)
        for alias in benchmark_aliases():
            assert result.data[alias]["reduction"] > 1.0
        assert result.data["average_reduction"] > 1.0


class TestFig7:
    def test_errors_reported_for_all_metrics(self):
        result = fig7_accuracy(scale=SCALE)
        for alias in benchmark_aliases():
            assert set(result.data["per_benchmark"][alias]) == {
                "cycles", "dram_accesses", "l2_accesses", "tile_cache_accesses"
            }

    def test_report_includes_paper_reference(self):
        result = fig7_accuracy(scale=SCALE)
        assert "(paper avg)" in result.report


class TestSpeedup:
    def test_speedup_positive(self):
        from repro.analysis.experiments import speedup

        result = speedup(scale=SCALE)
        assert result.data["overall_speedup"] > 1.0
        assert "Total" in result.report


class TestTable4:
    def test_small_run(self):
        result = table4_random(
            scale=SCALE, megsim_trials=3, random_trials=50, max_k=10
        )
        for alias in benchmark_aliases():
            entry = result.data[alias]
            assert entry["megsim_frames"] >= 1
            assert entry["random_frames"] >= 1

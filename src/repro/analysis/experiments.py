"""One function per table/figure of the paper's evaluation.

Every experiment returns an :class:`ExperimentResult` holding structured
``data`` (for tests and further analysis) and a rendered text ``report``
(what ``megsim run`` prints and ``megsim bench --reports`` writes).
Paper reference values are embedded so reports show paper-vs-measured
side by side.  :data:`EXPERIMENTS` also registers the ablation and
extension studies (:mod:`repro.analysis.ablation`,
:mod:`repro.analysis.phase_recovery`, imported on their first run) and
the parallel-scaling measurement, so every experiment runs through one
registry.

The ``scale`` argument shortens every sequence while preserving its phase
structure; ``scale=1.0`` reproduces the paper's full frame counts (used for
EXPERIMENTS.md), smaller values keep the bench suites fast.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.random_study import (
    megsim_error_distribution,
    random_frames_for_error,
)
from repro.analysis.metrics import percentile_abs_error
from repro.analysis.runner import evaluate_benchmark
from repro.analysis.tables import render_bars, render_grouped_bars, render_table
from repro.core.correlation import multiple_correlation, pearson_correlation
from repro.core.features import build_feature_matrix
from repro.core.sampler import MEGsimOptions
from repro.core.similarity import render_similarity_matrix, similarity_matrix
from repro.errors import AnalysisError, ConfigError
from repro.gpu.config import default_config
from repro.gpu.stats import KEY_METRICS
from repro.obs import span
from repro.pipeline import PipelineRequest, materialize_stage
from repro.store import get_store
from repro.workloads.benchmarks import BENCHMARKS, benchmark_aliases

#: Paper reference numbers, used in side-by-side reports.
PAPER_TABLE2 = {
    # alias: (frames, vertex shaders, fragment shaders, cycles [millions], IPC)
    "asp": (4000, 42, 45, 107811, 4.34),
    "bbr1": (2500, 73, 62, 39839, 4.91),
    "bbr2": (4000, 66, 59, 58317, 4.95),
    "hcr": (2000, 5, 5, 10111, 6.51),
    "hwh": (4000, 30, 30, 86791, 4.71),
    "jjo": (5000, 4, 5, 41219, 5.61),
    "pvz": (5000, 4, 5, 39534, 4.66),
    "spd": (5000, 16, 26, 75938, 6.10),
}
PAPER_TABLE3 = {
    # alias: (MEGsim frames, reduction factor)
    "asp": (23, 174), "bbr1": (40, 63), "bbr2": (47, 85), "hcr": (27, 74),
    "hwh": (30, 133), "jjo": (28, 179), "pvz": (30, 167), "spd": (37, 135),
}
PAPER_TABLE4 = {
    # alias: (max rel error %, MEGsim frames, random frames, reduction)
    "asp": (1.49, 23, 1262, 54.9), "bbr1": (2.53, 40, 349, 8.7),
    "bbr2": (1.91, 47, 418, 8.9), "hcr": (0.11, 27, 1960, 72.6),
    "hwh": (1.11, 30, 1243, 41.4), "jjo": (0.30, 28, 3193, 114.0),
    "pvz": (0.09, 30, 4852, 161.7), "spd": (3.86, 37, 213, 5.8),
}
#: Figure 7 paper averages per metric (percent).
PAPER_FIG7_AVG = {
    "cycles": 0.84,
    "dram_accesses": 0.99,
    "l2_accesses": 1.2,
    "tile_cache_accesses": 0.86,
}
#: Figure 4 paper average power fractions (Geometry, Raster, Tiling).
PAPER_FIG4_AVG = (0.108, 0.745, 0.147)


@dataclass(frozen=True)
class ExperimentResult:
    """Structured data plus a printable report for one experiment."""

    name: str
    data: dict
    report: str


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}%"


# ----------------------------------------------------------------------
# Table I.
# ----------------------------------------------------------------------

def table1_config() -> ExperimentResult:
    """Table I: the baseline GPU simulation parameters."""
    config = default_config()
    rows = [
        ["Frequency", f"{config.frequency_mhz} MHz"],
        ["Voltage", f"{config.voltage} V"],
        ["Technology node", f"{config.technology_nm} nm"],
        ["Screen Resolution", f"{config.screen_width}x{config.screen_height}"],
        ["Tile Size", f"{config.tile_size}x{config.tile_size} pixels"],
        ["DRAM Frequency", f"{config.dram.frequency_mhz} MHz"],
        ["DRAM Latency",
         f"{config.dram.min_latency_cycles}-{config.dram.max_latency_cycles} cycles"],
        ["DRAM Bandwidth", f"{config.dram.bandwidth_bytes_per_cycle} B/cycle"],
        ["DRAM Line Size", f"{config.dram.line_bytes} bytes"],
        ["DRAM Size", f"{config.dram.size_bytes >> 30} GiB, {config.dram.banks} banks"],
        ["Vertex Cache", f"{config.vertex_cache.size_bytes >> 10} KiB"],
        ["Texture Caches (x4)", f"{config.texture_cache.size_bytes >> 10} KiB"],
        ["Tile Cache", f"{config.tile_cache.size_bytes >> 10} KiB"],
        ["L2 Cache",
         f"{config.l2_cache.size_bytes >> 10} KiB, {config.l2_cache.banks} banks, "
         f"{config.l2_cache.latency_cycles} cycles"],
        ["Vertex Processors", str(config.vertex_processors)],
        ["Fragment Processors", str(config.fragment_processors)],
        ["Early Z-Test", f"{config.early_z_inflight_quads} in-flight quad-fragments"],
    ]
    report = render_table(["Parameter", "Value"], rows,
                          title="Table I: GPU simulation parameters")
    return ExperimentResult("table1", {"config": config}, report)


# ----------------------------------------------------------------------
# Table II.
# ----------------------------------------------------------------------

def table2_benchmarks(scale: float = 1.0) -> ExperimentResult:
    """Table II: the benchmark set and its simulated characteristics."""
    rows = []
    data = {}
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        totals = evaluation.totals
        spec = BENCHMARKS[alias]
        cycles_m = totals.cycles / 1e6
        paper = PAPER_TABLE2[alias]
        data[alias] = {
            "frames": evaluation.plan.total_frames,
            "vertex_shaders": spec.vertex_shader_count,
            "fragment_shaders": spec.fragment_shader_count,
            "cycles_millions": cycles_m,
            "ipc": totals.ipc,
        }
        rows.append([
            alias, spec.game_type, str(evaluation.plan.total_frames),
            str(spec.vertex_shader_count), str(spec.fragment_shader_count),
            f"{cycles_m:.0f}", f"{paper[3] * scale:.0f}",
            f"{totals.ipc:.2f}", f"{paper[4]:.2f}",
        ])
    report = render_table(
        ["bench", "type", "frames", "VS", "FS",
         "cycles(M)", "paper(M)", "IPC", "paperIPC"],
        rows,
        title=f"Table II: evaluated benchmark set (scale={scale})",
    )
    return ExperimentResult("table2", data, report)


# ----------------------------------------------------------------------
# Figure 3.
# ----------------------------------------------------------------------

def fig3_correlation(scale: float = 1.0) -> ExperimentResult:
    """Figure 3: correlation of the input parameters with total cycles."""
    data = {}
    rows = []
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        profile = evaluation.profile
        cycles = evaluation.metric_vector("cycles")
        vscv = profile.vscv_matrix() * profile.vertex_shader_weights
        fscv = profile.fscv_matrix() * profile.fragment_shader_weights
        shaders = np.concatenate([vscv, fscv], axis=1)
        entry = {
            "vscv": multiple_correlation(vscv, cycles),
            "fscv": multiple_correlation(fscv, cycles),
            "shaders": multiple_correlation(shaders, cycles),
            "prim": pearson_correlation(profile.prim_vector(), cycles),
        }
        data[alias] = entry
        rows.append([alias] + [f"{entry[k]:.3f}" for k in ("vscv", "fscv", "shaders", "prim")])
    means = {
        key: float(np.mean([data[a][key] for a in data]))
        for key in ("vscv", "fscv", "shaders", "prim")
    }
    rows.append(["Average"] + [f"{means[k]:.3f}" for k in ("vscv", "fscv", "shaders", "prim")])
    report = render_table(
        ["bench", "R(VSCV)", "R(FSCV)", "R(shaders)", "r(PRIM)"],
        rows,
        title=(
            "Figure 3: correlation of input parameters with total cycles\n"
            "(multiple correlation for shader count vectors, Pearson for PRIM;\n"
            " paper finding: shader counts correlate strongly, PRIM more weakly)"
        ),
    )
    return ExperimentResult("fig3", {"per_benchmark": data, "average": means}, report)


# ----------------------------------------------------------------------
# Figure 4.
# ----------------------------------------------------------------------

def fig4_power(scale: float = 1.0) -> ExperimentResult:
    """Figure 4: power fraction of the Geometry / Tiling / Raster phases."""
    data = {}
    geometry, raster, tiling = [], [], []
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        g, r, t = evaluation.totals.power_fractions()
        data[alias] = {"geometry": g, "raster": r, "tiling": t}
        geometry.append(g)
        raster.append(r)
        tiling.append(t)
    average = (
        float(np.mean(geometry)), float(np.mean(raster)), float(np.mean(tiling))
    )
    chart = render_grouped_bars(
        list(data) + ["Average"],
        {
            "Geometry": geometry + [average[0]],
            "Raster": raster + [average[1]],
            "Tiling": tiling + [average[2]],
        },
        title=(
            "Figure 4: fraction of dissipated power per pipeline phase\n"
            f"(paper average G/R/T = {PAPER_FIG4_AVG[0]}/{PAPER_FIG4_AVG[1]}/"
            f"{PAPER_FIG4_AVG[2]}; these averages become the MEGsim feature weights)"
        ),
    )
    return ExperimentResult(
        "fig4", {"per_benchmark": data, "average": average}, chart
    )


# ----------------------------------------------------------------------
# Figures 5 and 6.
# ----------------------------------------------------------------------

#: Frames of the bbr prefix the paper's Figures 5 and 6 analyse.
FIG56_FRAMES = 900
#: Fewest frames a scaled Figure 5/6 prefix analyses.
MIN_SCALED_FRAMES = 40


def scaled_frames(frames: int, scale: float) -> int:
    """Scale a paper frame count to a run's ``scale`` (at least
    :data:`MIN_SCALED_FRAMES`)."""
    return max(MIN_SCALED_FRAMES, round(frames * scale))


def _prefix_features(
    alias: str, frames: int | None, scale: float
) -> tuple[np.ndarray, int]:
    """The feature matrix of the first ``frames`` frames, for Figures 5/6.

    Reads only the ``profile`` stage through the active store — no cycle
    simulation runs.  ``frames`` defaults to the paper's 900 scaled by
    ``scale`` and is capped at the sequence length.

    Raises:
        ConfigError: when ``frames`` is below 1 (naming ``--frames``,
            the flag ``megsim figures`` passes it through).
    """
    if frames is None:
        frames = scaled_frames(FIG56_FRAMES, scale)
    if frames < 1:
        raise ConfigError(f"--frames must be >= 1, got {frames}")
    request = PipelineRequest.create(alias, scale=scale)
    profile = materialize_stage(request, "profile", store=get_store())
    features, _ = build_feature_matrix(profile)
    frames = min(frames, features.shape[0])
    return features[:frames], frames


def fig5_similarity(alias: str = "bbr1", frames: int | None = None,
                    scale: float = 1.0, width: int = 60) -> ExperimentResult:
    """Figure 5: the similarity matrix of a bbr sequence prefix.

    ``frames`` defaults to the paper's 900 scaled by ``scale``.
    """
    features, frames = _prefix_features(alias, frames, scale)
    distances = similarity_matrix(features, upper_only=False)
    art = render_similarity_matrix(distances, width=width)
    report = (
        f"Figure 5: similarity matrix for {alias} ({frames} frames analysed).\n"
        "Denser characters = more similar frame pairs (the paper plots them darker).\n"
        + art
    )
    return ExperimentResult(
        "fig5", {"alias": alias, "frames": frames, "distances": distances}, report
    )


def fig6_clusters(alias: str = "bbr1", frames: int | None = None,
                  scale: float = 1.0, width: int = 90) -> ExperimentResult:
    """Figure 6: k-means clusters drawn along the matrix diagonal.

    ``frames`` defaults to the paper's 900 scaled by ``scale``.
    """
    from repro.core.cluster_search import search_clustering

    features, frames = _prefix_features(alias, frames, scale)
    search = search_clustering(features)
    labels = search.clustering.labels
    # Down-sample the diagonal into `width` character cells; each cell shows
    # the dominant cluster of its frame span.
    edges = np.linspace(0, frames, width + 1).astype(int)
    symbols = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    cells = []
    for i in range(width):
        span = labels[edges[i]: edges[i + 1]]
        dominant = int(np.bincount(span).argmax()) if span.size else 0
        cells.append(symbols[dominant % len(symbols)])
    report = (
        f"Figure 6: clusters found by k-means for {alias} "
        f"({frames} frames, k={search.chosen_k} chosen by BIC).\n"
        "Diagonal of the similarity matrix, one symbol per cluster:\n"
        + "".join(cells)
    )
    return ExperimentResult(
        "fig6",
        {"alias": alias, "frames": frames, "k": search.chosen_k,
         "labels": labels, "bic_by_k": search.bic_by_k},
        report,
    )


# ----------------------------------------------------------------------
# Table III.
# ----------------------------------------------------------------------

def table3_reduction(scale: float = 1.0) -> ExperimentResult:
    """Table III: reduction factor in the number of simulated frames."""
    rows = []
    data = {}
    total_frames = 0
    total_selected = 0
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        actual = evaluation.plan.total_frames
        selected = evaluation.plan.selected_frame_count
        total_frames += actual
        total_selected += selected
        paper = PAPER_TABLE3[alias]
        data[alias] = {
            "actual_frames": actual,
            "megsim_frames": selected,
            "reduction": evaluation.reduction_factor,
            "time_speedup": evaluation.time_speedup,
        }
        rows.append([
            alias, str(actual), str(selected),
            f"{evaluation.reduction_factor:.0f}x", f"{paper[1]}x",
        ])
    average_reduction = total_frames / total_selected
    rows.append([
        "Average", f"{total_frames // len(data)}", f"{total_selected / len(data):.0f}",
        f"{average_reduction:.0f}x", "126x",
    ])
    report = render_table(
        ["bench", "actual frames", "MEGsim frames", "reduction", "paper"],
        rows,
        title=f"Table III: reduction factor in the number of frames (scale={scale})",
    )
    data["average_reduction"] = average_reduction
    return ExperimentResult("table3", data, report)


# ----------------------------------------------------------------------
# Figure 7.
# ----------------------------------------------------------------------

def fig7_accuracy(scale: float = 1.0) -> ExperimentResult:
    """Figure 7: relative error of the four key metrics per benchmark."""
    data = {}
    rows = []
    sums = {metric: 0.0 for metric in KEY_METRICS}
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        errors = evaluation.relative_errors()
        data[alias] = errors
        for metric in KEY_METRICS:
            sums[metric] += errors[metric]
        rows.append([alias] + [_pct(errors[m]) for m in KEY_METRICS])
    averages = {m: sums[m] / len(data) for m in KEY_METRICS}
    rows.append(
        ["Average"] + [_pct(averages[m]) for m in KEY_METRICS]
    )
    rows.append(
        ["(paper avg)"] + [f"{PAPER_FIG7_AVG[m]:.2f}%" for m in KEY_METRICS]
    )
    report = render_table(
        ["bench", "cycles", "DRAM acc.", "L2 acc.", "Tile acc."],
        rows,
        title=f"Figure 7: relative error of the key metrics (scale={scale})",
    )
    return ExperimentResult(
        "fig7", {"per_benchmark": data, "average": averages}, report
    )


# ----------------------------------------------------------------------
# Table IV.
# ----------------------------------------------------------------------

def table4_random(
    scale: float = 1.0,
    megsim_trials: int = 100,
    random_trials: int = 1000,
    max_k: int | None = None,
    restarts: int = 3,
) -> ExperimentResult:
    """Table IV: frames needed by random sub-sampling to match MEGsim.

    ``restarts`` matches the default MEGsim configuration (best-of-3
    k-means per candidate k) so the error distribution describes the same
    methodology Table III and Figure 7 evaluate; the seed still varies
    per trial, which is the variability the paper measures.
    """
    rows = []
    data = {}
    megsim_total = 0.0
    random_total = 0.0
    error_total = 0.0
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        features = evaluation.plan.features
        cycles = evaluation.metric_vector("cycles")
        errors, selected = megsim_error_distribution(
            features, cycles, trials=megsim_trials, max_k=max_k,
            restarts=restarts,
        )
        megsim_error = percentile_abs_error(errors, 95.0)
        megsim_frames = float(selected.mean())
        random_frames = random_frames_for_error(
            cycles, megsim_error, trials=random_trials
        )
        reduction = random_frames / megsim_frames
        paper = PAPER_TABLE4[alias]
        data[alias] = {
            "megsim_error_95": megsim_error,
            "megsim_frames": megsim_frames,
            "random_frames": random_frames,
            "reduction": reduction,
        }
        megsim_total += megsim_frames
        random_total += random_frames
        error_total += megsim_error
        rows.append([
            alias, _pct(megsim_error), f"{paper[0]:.2f}%",
            f"{megsim_frames:.0f}", str(random_frames),
            f"{reduction:.1f}x", f"{paper[3]}x",
        ])
    count = len(data)
    rows.append([
        "Average", _pct(error_total / count), "1.43%",
        f"{megsim_total / count:.1f}", f"{random_total / count:.1f}",
        f"{random_total / megsim_total:.1f}x", "58.5x",
    ])
    report = render_table(
        ["bench", "max err(95%)", "paper err", "MEGsim frames",
         "random frames", "reduction", "paper"],
        rows,
        title=(
            f"Table IV: random sub-sampling vs MEGsim at equal accuracy "
            f"(scale={scale}, {megsim_trials} MEGsim trials, "
            f"{random_trials} random trials)"
        ),
    )
    data["average_reduction"] = random_total / megsim_total
    return ExperimentResult("table4", data, report)


# ----------------------------------------------------------------------
# Simulation-time speedup (the paper's headline framing: "from several
# days to a few hours").
# ----------------------------------------------------------------------

def speedup(scale: float = 1.0) -> ExperimentResult:
    """Wall-clock simulation-time comparison: full sequence vs MEGsim.

    MEGsim's end-to-end cost is the fast functional pass over every frame
    plus cycle-accurate simulation of the representatives only; the
    baseline is cycle-accurate simulation of the whole sequence.
    """
    rows = []
    data = {}
    total_full = total_sampled = 0.0
    for alias in benchmark_aliases():
        evaluation = evaluate_benchmark(alias, scale=scale)
        full_seconds = evaluation.full.elapsed_seconds
        sampled_seconds = (
            evaluation.profile.elapsed_seconds
            + evaluation.representatives.elapsed_seconds
        )
        total_full += full_seconds
        total_sampled += sampled_seconds
        ratio = full_seconds / sampled_seconds if sampled_seconds else float("inf")
        data[alias] = {
            "full_seconds": full_seconds,
            "megsim_seconds": sampled_seconds,
            "speedup": ratio,
            "frame_reduction": evaluation.reduction_factor,
        }
        rows.append([
            alias, f"{full_seconds:.2f}s", f"{sampled_seconds:.2f}s",
            f"{ratio:.0f}x", f"{evaluation.reduction_factor:.0f}x",
        ])
    overall = total_full / total_sampled if total_sampled else float("inf")
    rows.append([
        "Total", f"{total_full:.2f}s", f"{total_sampled:.2f}s",
        f"{overall:.0f}x", "-",
    ])
    report = render_table(
        ["bench", "full cycle-sim", "MEGsim (profile + reps)",
         "time speedup", "frame reduction"],
        rows,
        title=(
            f"Simulation-time speedup (scale={scale}): MEGsim = functional "
            "pass over all frames + cycle-accurate simulation of the "
            "representatives only"
        ),
    )
    data["overall_speedup"] = overall
    return ExperimentResult("speedup", data, report)


# ----------------------------------------------------------------------
# Adversarial scripted workloads: stress the BIC k-selection.
# ----------------------------------------------------------------------

#: Worst tolerated estimated relative error (any key metric, any
#: adversarial workload).  The paper's Table IV puts MEGsim's worst
#: per-benchmark error near 4%; the hostile scripts must stay inside
#: that envelope for the accuracy claim to survive adversarial phase
#: structure.
ADVERSARIAL_ENVELOPE = 0.04


def adversarial(
    scale: float = 1.0, envelope: float = ADVERSARIAL_ENVELOPE
) -> ExperimentResult:
    """Accuracy of MEGsim on the adversarial scripted catalog.

    Evaluates every :mod:`repro.workloads.scripted` workload end to end
    (oscillating, phase-flip and drifting scripts — each engineered to
    mislead the BIC cluster-count search) and checks that the estimated
    key metrics stay within the paper's accuracy envelope.

    Raises:
        AnalysisError: when any workload's worst key-metric relative
            error exceeds ``envelope`` — a quiet accuracy collapse on
            hostile phase structure must fail loudly.
    """
    from repro.workloads.scripted import scripted_keys

    rows = []
    data = {}
    worst_key, worst_error = "", 0.0
    for key in scripted_keys():
        evaluation = evaluate_benchmark(key, scale=scale)
        errors = evaluation.relative_errors()
        max_error = max(abs(errors[m]) for m in KEY_METRICS)
        data[key] = {
            "errors": errors,
            "max_rel_error": max_error,
            "megsim_frames": evaluation.plan.selected_frame_count,
            "reduction": evaluation.reduction_factor,
        }
        if max_error > worst_error:
            worst_key, worst_error = key, max_error
        rows.append([
            key, str(evaluation.plan.total_frames),
            str(evaluation.plan.selected_frame_count),
            f"{evaluation.reduction_factor:.0f}x",
            _pct(max_error),
        ])
    if worst_error > envelope:
        raise AnalysisError(
            f"adversarial workload {worst_key!r} broke the accuracy "
            f"envelope: max key-metric relative error {worst_error:.2%} "
            f"exceeds {envelope:.2%}"
        )
    report = render_table(
        ["workload", "frames", "MEGsim frames", "reduction", "max err"],
        rows,
        title=(
            f"Adversarial scripted workloads (scale={scale}): estimated "
            f"error under hostile phase structure (envelope {envelope:.0%})"
        ),
    )
    data["max_rel_error"] = worst_error
    data["envelope"] = envelope
    return ExperimentResult("adversarial", data, report)


# ----------------------------------------------------------------------
# Engine parity: the cycle-sim engine vs the scalar reference oracle.
# ----------------------------------------------------------------------

def backend_compare(scale: float = 1.0, max_frames: int = 16) -> ExperimentResult:
    """Engine-vs-reference parity check over every benchmark.

    Runs the cycle-simulation engine and the scalar reference loop on a
    deterministic frame sample of each benchmark trace and verifies
    bit-identical :class:`~repro.gpu.stats.FrameStats`, recording the
    measured wall-clock speedup alongside (timing only — never gated
    across machines).

    Raises:
        AnalysisError: listing every mismatching field when any
            benchmark breaks parity — a broken engine must fail
            loudly, not average out.
    """
    from repro.gpu.parity import check_backend_parity
    from repro.workloads.benchmarks import make_benchmark

    rows = []
    data = {}
    failures: list[str] = []
    for alias in benchmark_aliases():
        trace = make_benchmark(alias, scale=scale)
        report = check_backend_parity(trace, max_frames=max_frames)
        data[alias] = {
            "identical": report.identical,
            "frames_checked": len(report.frame_ids),
            "mismatches": list(report.mismatches),
            "speedup": report.speedup,
        }
        failures.extend(
            f"{alias}: {mismatch}" for mismatch in report.mismatches
        )
        rows.append([
            alias,
            str(len(report.frame_ids)),
            "yes" if report.identical else "NO",
            f"{report.speedup:.2f}x",
        ])
    if failures:
        raise AnalysisError(
            "engine parity broken: " + "; ".join(failures[:10])
        )
    report_text = render_table(
        ["bench", "frames", "bit-identical", "engine speedup"],
        rows,
        title=(
            f"Engine parity (scale={scale}): cycle-sim engine vs scalar "
            f"reference, {max_frames}-frame deterministic sample"
        ),
    )
    data["all_identical"] = True
    return ExperimentResult("backend_compare", data, report_text)


# ----------------------------------------------------------------------
# Parallel scaling of the pooled functional-profiling pass.
# ----------------------------------------------------------------------

#: Worker counts the scaling measurement compares (1 is the reference).
SCALING_WORKERS = (1, 2, 4)
#: Timing rounds per worker count; the best round is kept.
SCALING_ROUNDS = 3


def parallel_scaling() -> ExperimentResult:
    """Wall-clock scaling of the functional profile at 1, 2 and 4 workers.

    Profiles hcr at scale 0.26 (520 frames with its full phase
    structure; the ``parallel_scaling`` bench spec requires at least 512)
    with :func:`~repro.parallel.profile_parallel`, keeping the best of
    :data:`SCALING_ROUNDS` rounds per worker count.  The timings are
    facts of the measuring machine; ``data["cpus"]`` records how many
    CPUs it had (docs/parallelism.md).
    """
    from repro.parallel import ParallelConfig, available_cpus, profile_parallel
    from repro.workloads.benchmarks import make_benchmark

    trace = make_benchmark("hcr", scale=0.26)
    cpus = available_cpus()
    seconds = {}
    for jobs in SCALING_WORKERS:
        best = math.inf
        for _ in range(SCALING_ROUNDS):
            with span("parallel_scaling.round", jobs=jobs) as timing:
                profile_parallel(trace, parallel=ParallelConfig(jobs=jobs))
            best = min(best, timing.elapsed_seconds)
        seconds[jobs] = best
    speedups = {
        jobs: seconds[1] / seconds[jobs] if seconds[jobs] > 0 else math.inf
        for jobs in SCALING_WORKERS
    }
    lines = [
        "Parallel scaling (docs/parallelism.md)",
        f"trace: {trace.name}, {trace.frame_count} frames; "
        f"{cpus} CPU(s) available; best of {SCALING_ROUNDS} rounds",
        "",
        "functional profile:",
    ]
    lines += [
        f"  jobs={jobs}: {seconds[jobs] * 1e3:8.1f} ms   "
        f"speedup {speedups[jobs]:4.2f}x"
        for jobs in SCALING_WORKERS
    ]
    return ExperimentResult(
        "parallel_scaling",
        {"frames": trace.frame_count, "cpus": cpus, "seconds": seconds,
         "speedup": speedups},
        "\n".join(lines),
    )


def _study(module: str, name: str) -> Callable[..., ExperimentResult]:
    """Register a study of ``repro.analysis.<module>`` without importing
    it: the module loads on the first run, not with this registry."""
    def run(scale: float = 1.0, **kwargs) -> ExperimentResult:
        study = getattr(
            importlib.import_module(f"repro.analysis.{module}"), name
        )
        return study(scale=scale, **kwargs)
    run.__name__ = run.__qualname__ = name
    return run


#: Experiment registry: name -> callable.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1_config,
    "table2": table2_benchmarks,
    "fig3": fig3_correlation,
    "fig4": fig4_power,
    "fig5": fig5_similarity,
    "fig6": fig6_clusters,
    "table3": table3_reduction,
    "fig7": fig7_accuracy,
    "table4": table4_random,
    "speedup": speedup,
    "adversarial": adversarial,
    "backend_compare": backend_compare,
    "weight_ablation": _study("ablation", "weight_ablation"),
    "threshold_sweep": _study("ablation", "threshold_sweep"),
    "cluster_method_study": _study("ablation", "cluster_method_study"),
    "warmup_study": _study("ablation", "warmup_study"),
    "rendering_mode_study": _study("ablation", "rendering_mode_study"),
    "scale_convergence_study": _study("ablation", "scale_convergence_study"),
    "phase_recovery_study": _study("phase_recovery", "phase_recovery_study"),
    "parallel_scaling": parallel_scaling,
}


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by name."""
    if name not in EXPERIMENTS:
        raise AnalysisError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    with span("experiment", experiment=name):
        return EXPERIMENTS[name](**kwargs)

"""Ablation and extension studies beyond the paper's headline results.

The paper motivates two design choices without sweeping them:

* the power-derived feature **weights** (Section III-C) — ablated here
  against uniform weights and against disabling instruction scaling;
* the BIC-spread **threshold T = 0.85** (Section III-F) — swept here to
  expose the accuracy-vs-frames trade-off the paper describes.

It also claims (Section IV-A) that the methodology extends to other GPU
architectures because the characterisation parameters are architecture
independent; :func:`rendering_mode_study` checks that claim against the
TBDR (deferred, Hidden Surface Removal) and IMR variants of the GPU model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.experiments import ExperimentResult
from repro.analysis.runner import evaluate_benchmark
from repro.analysis.tables import render_table
from repro.core.features import FeatureOptions, PAPER_WEIGHTS
from repro.core.sampler import MEGsimOptions
from repro.gpu.config import default_config
from repro.gpu.stats import KEY_METRICS


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation sweep and its outcome."""

    label: str
    selected_frames: int
    reduction: float
    errors: dict[str, float]


def _point(label: str, evaluation) -> AblationPoint:
    """One sweep point from a finished benchmark evaluation."""
    return AblationPoint(
        label=label,
        selected_frames=evaluation.plan.selected_frame_count,
        reduction=evaluation.reduction_factor,
        errors=evaluation.relative_errors(),
    )


def _sweep_result(
    name: str, alias: str, points: list[AblationPoint], first_column: str,
    title: str, frames_column: str = "frames",
) -> ExperimentResult:
    """The shared report table of every :class:`AblationPoint` sweep."""
    rows = [
        [p.label, str(p.selected_frames), f"{p.reduction:.0f}x"]
        + [f"{100 * p.errors[m]:.2f}%" for m in KEY_METRICS]
        for p in points
    ]
    report = render_table(
        [first_column, frames_column, "reduction", "cycles err", "DRAM err",
         "L2 err", "Tile err"],
        rows,
        title=title,
    )
    return ExperimentResult(name, {"alias": alias, "points": points}, report)


def weight_ablation(alias: str = "bbr1", scale: float = 1.0) -> ExperimentResult:
    """Compare the paper's power weights against simpler alternatives."""
    variants = [
        ("paper (0.108/0.745/0.147)", FeatureOptions()),
        ("uniform (1/3 each)", FeatureOptions(weights=(1 / 3, 1 / 3, 1 / 3))),
        ("raster-only (0/1/0)", FeatureOptions(weights=(0.0, 1.0, 0.0))),
        ("no instruction scaling",
         FeatureOptions(weights=PAPER_WEIGHTS, instruction_scaling=False)),
    ]
    points = [
        _point(label, evaluate_benchmark(
            alias, scale=scale, options=MEGsimOptions(features=features)
        ))
        for label, features in variants
    ]
    return _sweep_result(
        "weight_ablation", alias, points, "weights",
        f"Weight ablation on {alias} (scale={scale})",
    )


def threshold_sweep(
    alias: str = "jjo",
    thresholds: tuple[float, ...] = (0.5, 0.7, 0.85, 0.95, 1.0),
    scale: float = 1.0,
) -> ExperimentResult:
    """Sweep the BIC-spread threshold T (paper default 0.85)."""
    points = [
        _point(f"T={threshold}", evaluate_benchmark(
            alias, scale=scale, options=MEGsimOptions(threshold=threshold)
        ))
        for threshold in thresholds
    ]
    return _sweep_result(
        "threshold_sweep", alias, points, "T",
        f"BIC threshold sweep on {alias} (scale={scale}): higher T -> "
        "more clusters -> lower error (Section III-F trade-off)",
    )


def cluster_method_study(
    alias: str = "pvz", scale: float = 1.0
) -> ExperimentResult:
    """Compare cluster-count selection strategies on one benchmark.

    The paper's linear BIC sweep against x-means recursive splitting and a
    Ward-linkage hierarchy cut by the same BIC rule — three ways to answer
    "how many frame phases does this sequence have?".
    """
    # X-means gets the k_max bound of its original formulation (Pelleg &
    # Moore sweep k in [k_min, k_max]): its local 2-split BIC test
    # over-splits elongated drifting phases when left unbounded.
    variants = [
        ("bic-search (paper)", MEGsimOptions()),
        ("xmeans (k_max=64)", MEGsimOptions(cluster_method="xmeans", max_k=64)),
        ("agglomerative", MEGsimOptions(cluster_method="agglomerative")),
        ("bic-search + projection(16)", MEGsimOptions(projection_dims=16)),
    ]
    points = [
        _point(label, evaluate_benchmark(alias, scale=scale, options=options))
        for label, options in variants
    ]
    points.append(_streaming_point(alias, scale))
    return _sweep_result(
        "cluster_method_study", alias, points, "strategy",
        f"Cluster-selection strategy study on {alias} (scale={scale})",
    )


def _streaming_point(alias: str, scale: float) -> AblationPoint:
    """Evaluate the single-pass streaming sampler on one benchmark."""
    from repro.core.extrapolation import extrapolate_statistics
    from repro.core.streaming import streaming_plan

    evaluation = evaluate_benchmark(alias, scale=scale)
    clusters = streaming_plan(evaluation.plan.features)
    stats_by_frame = {
        fid: stats
        for fid, stats in zip(
            evaluation.full.frame_ids, evaluation.full.frame_stats
        )
    }
    representative_stats = {
        c.representative: stats_by_frame[c.representative] for c in clusters
    }
    estimate = extrapolate_statistics(clusters, representative_stats)
    truth = evaluation.totals
    errors = {
        metric: abs(getattr(estimate, metric) - getattr(truth, metric))
        / getattr(truth, metric)
        for metric in KEY_METRICS
    }
    return AblationPoint(
        label="streaming (single pass)",
        selected_frames=len(clusters),
        reduction=evaluation.plan.total_frames / len(clusters),
        errors=errors,
    )


#: The convergence sweep's sequence lengths, as fractions of the run's
#: ``scale`` (at scale 1.0: 10%, 25%, 50% and 100% of Table II).
CONVERGENCE_FRACTIONS = (0.1, 0.25, 0.5, 1.0)


def scale_convergence_study(
    alias: str = "jjo", scale: float = 1.0
) -> ExperimentResult:
    """How sampling behaves as the sequence grows.

    Longer sequences revisit their phases more often, so clusters gain
    members without gaining representatives — the reduction factor should
    *grow* with sequence length while the error stays bounded.  This is
    the scaling argument behind the paper's claim that MEGsim turns
    days-long simulations into hours: the longer the capture, the bigger
    the win.

    The sequence lengths are :data:`CONVERGENCE_FRACTIONS` of ``scale``.
    """
    points = []
    for fraction in CONVERGENCE_FRACTIONS:
        length = round(fraction * scale, 6)
        evaluation = evaluate_benchmark(alias, scale=length)
        points.append(_point(
            f"scale={length} ({evaluation.trace.frame_count} frames)",
            evaluation,
        ))
    return _sweep_result(
        "scale_convergence_study", alias, points, "sequence",
        f"Sequence-length convergence on {alias}: representatives "
        "saturate while sequences grow, so the reduction factor scales "
        "with capture length",
        frames_column="frames selected",
    )


def warmup_study(
    alias: str = "hwh",
    warmups: tuple[int, ...] = (0, 1, 2, 4),
    scale: float = 1.0,
) -> ExperimentResult:
    """Sweep cache warm-up frames before each representative (ASSI study).

    MEGsim simulates representatives with cold caches; frames deep inside
    a sequence run warm.  Simulating a few discarded frames before each
    representative rebuilds an approximate starting image (Section II-C's
    fast-forwarding, at frame granularity) at a proportional cost in
    simulated frames.
    """
    from repro.gpu.cycle_sim import CycleAccurateSimulator

    evaluation = evaluate_benchmark(alias, scale=scale)
    plan = evaluation.plan
    truth = evaluation.totals
    simulator = CycleAccurateSimulator()
    points = []
    for warmup in warmups:
        reps = simulator.simulate(
            evaluation.trace,
            frame_ids=list(plan.representative_frames),
            warmup_frames=warmup,
        )
        estimate = plan.estimate(dict(zip(reps.frame_ids, reps.frame_stats)))
        errors = {}
        for metric in KEY_METRICS:
            reference = getattr(truth, metric)
            errors[metric] = abs(getattr(estimate, metric) - reference) / reference
        simulated = plan.selected_frame_count * (1 + warmup)
        points.append(
            AblationPoint(
                label=f"warmup={warmup}",
                selected_frames=simulated,
                reduction=plan.total_frames / simulated,
                errors=errors,
            )
        )
    return _sweep_result(
        "warmup_study", alias, points, "ASSI warmup",
        f"Warm-up (ASSI) study on {alias} (scale={scale}): frames "
        "simulated before each representative, statistics discarded",
        frames_column="frames simulated",
    )


@dataclass(frozen=True)
class ModeStudyPoint:
    """MEGsim's behaviour on one rendering architecture."""

    mode: str
    cycles: float
    dram_accesses: float
    fragments_shaded: float
    selected_frames: int
    errors: dict[str, float]

    @property
    def label(self) -> str:
        """The row label shared with :class:`AblationPoint`."""
        return self.mode


def rendering_mode_study(
    alias: str = "bbr1", scale: float = 1.0
) -> ExperimentResult:
    """Run MEGsim against the TBR, TBDR and IMR GPU variants.

    Checks two things at once: the Section II-A architecture claims (TBDR
    shades less, IMR moves more memory) and the Section IV-A claim that
    MEGsim stays accurate on other architectures because its features are
    architecture independent.
    """
    points = []
    for mode in ("tbr", "tbdr", "imr"):
        config = dataclasses.replace(default_config(), rendering_mode=mode)
        evaluation = evaluate_benchmark(alias, scale=scale, config=config)
        totals = evaluation.totals
        points.append(
            ModeStudyPoint(
                mode=mode,
                cycles=totals.cycles,
                dram_accesses=totals.dram_accesses,
                fragments_shaded=totals.fragments_shaded,
                selected_frames=evaluation.plan.selected_frame_count,
                errors=evaluation.relative_errors(),
            )
        )
    rows = [
        [
            p.mode, f"{p.cycles:.3e}", f"{p.dram_accesses:.3e}",
            f"{p.fragments_shaded:.3e}", str(p.selected_frames),
            f"{100 * p.errors['cycles']:.2f}%",
            f"{100 * p.errors['dram_accesses']:.2f}%",
        ]
        for p in points
    ]
    report = render_table(
        ["mode", "cycles", "DRAM acc.", "frags shaded", "MEGsim frames",
         "cycles err", "DRAM err"],
        rows,
        title=(
            f"Rendering-mode study on {alias} (scale={scale}): MEGsim applied "
            "to TBR / TBDR (HSR) / IMR GPU variants"
        ),
    )
    return ExperimentResult(
        "rendering_mode_study", {"alias": alias, "points": points}, report
    )

"""The benchmark registry: named, parameterized, suite-tagged specs.

Each :class:`BenchSpec` wraps one experiment of the paper's evaluation
(tables, figures, ablation and extension studies) and is the one place
that experiment's parameters live.  A spec knows how to distil its
:class:`~repro.analysis.experiments.ExperimentResult` into a
:class:`BenchOutcome` — the split between what is *deterministic*
(histogram samples, accuracy deltas, work counts: byte-comparable across
runs and worker counts) and what is *timing* (wall-clock facts, only
comparable on the same machine) — and which paper-shape
:class:`Claim` checks the result must pass.

The registry is module-level and keyed by name so pool workers can be
handed a spec name instead of a pickled callable; `megsim bench --list`
prints it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.experiments import (
    PAPER_FIG4_AVG,
    ExperimentResult,
    run_experiment,
)
from repro.errors import BenchError, ConfigError
from repro.gpu.stats import KEY_METRICS

#: The suites a spec can belong to.
SUITES = ("smoke", "full")

#: Default sequence-length scale per suite: ``smoke`` finishes in well
#: under a minute; ``full`` runs every experiment at a fifth of the
#: Table II frame counts, keeping each benchmark's phase structure.
SUITE_SCALES: dict[str, float] = {"smoke": 0.05, "full": 0.2}


def suite_scale(suite: str, override: float | None = None) -> float:
    """The sequence-length scale for one suite run.

    An explicit ``--scale`` override wins; otherwise the suite default
    from :data:`SUITE_SCALES` applies (1.0 for unknown suites).
    """
    if override is not None:
        return float(override)
    return SUITE_SCALES.get(suite, 1.0)


def artifact_name(suite: str) -> str:
    """Canonical artifact file name for a suite (``BENCH_<suite>.json``)."""
    return f"BENCH_{suite}.json"


_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Claim:
    """One paper-shape assertion about an experiment's result.

    Attributes:
        text: the measured quantity in words (named on failure).
        measure: ``(data, scale) -> value`` over
            ``ExperimentResult.data``; ``None`` when the claim does not
            apply to this run (too small a scale, or a host with fewer
            CPUs than the claim needs).
        op: how ``value`` must compare with ``bound``: ``<``, ``<=``,
            ``>``, ``>=`` or ``==``.
        bound: a number, or ``scale -> number`` for a scale-aware bound.
    """

    text: str
    measure: Callable[[dict, float], float | None]
    op: str
    bound: float | Callable[[float], float]

    def enforce(self, spec: str, data: dict, scale: float) -> None:
        """Raise unless the claim holds (or does not apply to this run).

        Raises:
            BenchError: naming the spec, the claim, the measured value
                and the bound it missed.
        """
        value = self.measure(data, scale)
        if value is None:
            return
        bound = self.bound(scale) if callable(self.bound) else self.bound
        if not _OPS[self.op](value, bound):
            raise BenchError(
                f"benchmark {spec!r}: claim {self.text!r} fails at scale "
                f"{scale:g}: measured {value:.4g}, needs {self.op} "
                f"{bound:.4g}"
            )


@dataclass(frozen=True)
class BenchOutcome:
    """The distilled, artifact-ready outputs of one benchmark run.

    Attributes:
        metrics: ``metric -> samples`` fed into per-benchmark histograms
            (namespaced ``<bench>/<metric>`` in the registry).  Must be
            deterministic, finite and non-negative.
        accuracy: deterministic accuracy deltas vs. full simulation
            (relative errors); what ``--compare`` gates hardest.
        info: free-form deterministic scalars worth recording.
        timing_info: wall-clock-derived values (speedups, seconds) —
            excluded from every byte-identity comparison.
    """

    metrics: dict[str, list[float]] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    timing_info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark: an experiment plus its outcome extractor.

    Attributes:
        name: registry key and artifact section name.
        experiment: :data:`~repro.analysis.experiments.EXPERIMENTS` key.
        suites: which suites include this benchmark.
        description: one line for ``megsim bench --list``.
        params: extra keyword arguments for the experiment (recorded in
            the artifact, so parameterized variants are attributable).
        scaled: whether the experiment accepts a ``scale`` argument.
        wall_clock: its claims compare wall-clock times, so a suite runs
            it alone, in the calling process, after every other spec has
            finished (see :func:`repro.bench.harness.run_suite`).
        extract: ``ExperimentResult -> BenchOutcome``.
        claims: paper-shape checks :meth:`check_claims` runs on the result.
    """

    name: str
    experiment: str
    suites: tuple[str, ...]
    description: str
    params: dict = field(default_factory=dict)
    scaled: bool = True
    wall_clock: bool = False
    extract: Callable[[ExperimentResult], BenchOutcome] = (
        lambda result: BenchOutcome()
    )
    claims: tuple[Claim, ...] = ()

    def run(self, scale: float) -> tuple[ExperimentResult, BenchOutcome]:
        """Run the wrapped experiment and distil its outcome."""
        kwargs = dict(self.params)
        if self.scaled:
            kwargs["scale"] = scale
        result = run_experiment(self.experiment, **kwargs)
        return result, self.extract(result)

    def check_claims(self, result: ExperimentResult, scale: float) -> None:
        """Check every claim against ``result``.

        Raises:
            BenchError: listing every claim that does not hold, one per
                line.
        """
        failures = []
        for claim in self.claims:
            try:
                claim.enforce(self.name, result.data, scale)
            except BenchError as exc:
                failures.append(str(exc))
        if failures:
            raise BenchError("\n".join(failures))


# ----------------------------------------------------------------------
# Extractors: ExperimentResult.data -> BenchOutcome.
# ----------------------------------------------------------------------

def _per_alias(data: dict) -> dict:
    """The per-benchmark-alias rows of an experiment's data dict."""
    return {alias: row for alias, row in data.items()
            if isinstance(row, dict)}


def _extract_table2(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "ipc": [row["ipc"] for row in rows.values()],
            "cycles_millions": [row["cycles_millions"]
                                for row in rows.values()],
        },
        info={"benchmarks": len(rows)},
    )


def _extract_fig3(result: ExperimentResult) -> BenchOutcome:
    per = result.data["per_benchmark"]
    return BenchOutcome(
        # Shader-count correlations are expected in [0, 1]; PRIM's
        # Pearson r can be negative, so it stays out of the histograms,
        # and the clamp keeps a pathological anti-correlation from
        # violating the histograms' non-negative domain.
        metrics={"correlation_shaders": [max(0.0, row["shaders"])
                                         for row in per.values()]},
        info={"average": result.data["average"]},
    )


def _extract_fig4(result: ExperimentResult) -> BenchOutcome:
    per = result.data["per_benchmark"]
    geometry, raster, tiling = result.data["average"]
    return BenchOutcome(
        metrics={
            "power_fraction_geometry": [r["geometry"] for r in per.values()],
            "power_fraction_raster": [r["raster"] for r in per.values()],
            "power_fraction_tiling": [r["tiling"] for r in per.values()],
        },
        info={"average_geometry": geometry, "average_raster": raster,
              "average_tiling": tiling},
    )


def _extract_fig5(result: ExperimentResult) -> BenchOutcome:
    return BenchOutcome(
        info={"alias": result.data["alias"],
              "frames_analysed": result.data["frames"]},
    )


def _extract_fig6(result: ExperimentResult) -> BenchOutcome:
    return BenchOutcome(
        metrics={"chosen_k": [float(result.data["k"])]},
        info={"alias": result.data["alias"],
              "frames_analysed": result.data["frames"],
              "chosen_k": result.data["k"]},
    )


def _extract_table3(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "reduction": [row["reduction"] for row in rows.values()],
            "megsim_frames": [float(row["megsim_frames"])
                              for row in rows.values()],
        },
        info={"average_reduction": result.data["average_reduction"]},
    )


def _extract_fig7(result: ExperimentResult) -> BenchOutcome:
    per = result.data["per_benchmark"]
    average = result.data["average"]
    return BenchOutcome(
        metrics={"rel_error": [row[metric] for row in per.values()
                               for metric in KEY_METRICS]},
        accuracy={f"rel_error.{metric}": average[metric]
                  for metric in KEY_METRICS},
    )


def _extract_table4(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "reduction": [row["reduction"] for row in rows.values()],
            "megsim_frames": [row["megsim_frames"]
                              for row in rows.values()],
        },
        accuracy={"megsim_error_95": sum(
            row["megsim_error_95"] for row in rows.values()
        ) / len(rows)},
        info={"average_reduction": result.data["average_reduction"]},
    )


def _extract_speedup(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={"frame_reduction": [row["frame_reduction"]
                                     for row in rows.values()]},
        timing_info={
            "overall_speedup": result.data["overall_speedup"],
            "per_benchmark_speedup": {alias: row["speedup"]
                                      for alias, row in rows.items()},
        },
    )


def _extract_adversarial(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={
            "max_rel_error": [row["max_rel_error"] for row in rows.values()],
            "reduction": [row["reduction"] for row in rows.values()],
        },
        # The worst key-metric error across the whole catalog: the value
        # --compare gates, so an accuracy collapse on hostile phase
        # structure regresses the suite even inside the hard envelope.
        accuracy={"adversarial.max_rel_error": result.data["max_rel_error"]},
        info={"envelope": result.data["envelope"]},
    )


def _extract_backend_compare(result: ExperimentResult) -> BenchOutcome:
    rows = _per_alias(result.data)
    return BenchOutcome(
        metrics={"frames_checked": [float(row["frames_checked"])
                                    for row in rows.values()]},
        # 1.0 when every benchmark's FrameStats matched bit for bit; the
        # experiment raises before getting here otherwise, so any value
        # below 1.0 in an artifact marks a partially-written run.
        accuracy={"parity.identical": float(
            all(row["identical"] for row in rows.values())
        )},
        timing_info={
            "vector_speedup": {alias: row["speedup"]
                               for alias, row in rows.items()},
        },
    )


def _extract_sweep(result: ExperimentResult) -> BenchOutcome:
    points = result.data["points"]
    return BenchOutcome(
        metrics={"rel_error_cycles": [p.errors["cycles"] for p in points]},
        info={"alias": result.data["alias"],
              "selected_frames": {p.label: p.selected_frames
                                  for p in points}},
    )


def _extract_phase_recovery(result: ExperimentResult) -> BenchOutcome:
    rows = result.data["results"]
    return BenchOutcome(
        # The adjusted Rand index can be negative, so it stays out of
        # the (non-negative) histograms.
        metrics={"homogeneity": [row.homogeneity for row in rows]},
        info={"ari": {row.alias: row.ari for row in rows}},
    )


def _extract_parallel_scaling(result: ExperimentResult) -> BenchOutcome:
    data = result.data
    return BenchOutcome(
        info={"frames": data["frames"]},
        timing_info={
            "cpus": data["cpus"],
            "seconds": {str(jobs): s for jobs, s in data["seconds"].items()},
            "speedup": {str(jobs): s for jobs, s in data["speedup"].items()},
        },
    )


# ----------------------------------------------------------------------
# Claim measures and scale-aware bounds: (ExperimentResult.data, scale)
# -> value.
# ----------------------------------------------------------------------

def _smallest(key: str) -> Callable[[dict, float], float]:
    """The smallest per-benchmark ``key`` of an experiment's rows."""
    return lambda data, scale: min(
        row[key] for row in _per_alias(data).values()
    )


def _from_scale(
    minimum: float, measure: Callable[[dict, float], float]
) -> Callable[[dict, float], float | None]:
    """``measure``, applicable only at ``scale >= minimum``."""
    return lambda data, scale: (
        measure(data, scale) if scale >= minimum else None
    )


def _cycles_per_frame_3d_over_2d(data: dict, scale: float) -> float:
    """asp's cycles per frame over the heaviest 2D game's (Table II)."""
    per_frame = {alias: row["cycles_millions"] / row["frames"]
                 for alias, row in _per_alias(data).items()}
    return per_frame["asp"] / max(per_frame[a] for a in ("hcr", "jjo", "pvz"))


def _diagonal_band(data: dict, scale: float) -> float:
    """Mean adjacent-frame distance over the mean distance of all pairs."""
    distances = data["distances"]
    upper = distances[np.triu_indices(distances.shape[0], k=1)]
    return float(np.diagonal(distances, offset=1).mean() / upper.mean())


def _label_changes(data: dict, scale: float) -> float:
    """Cluster-label changes along the diagonal, per analysed frame."""
    labels = data["labels"]
    return int(np.count_nonzero(np.diff(labels))) / len(labels)


def _reduction_floor(scale: float) -> float:
    """Table III's per-benchmark floor: reachable reduction shrinks with
    the sequence length."""
    return max(5.0, 40.0 * scale)


def _fig7_budget(scale: float) -> float:
    """Figure 7's per-metric average-error budget: short sequences
    cluster less cleanly, so the budget loosens below full scale."""
    return 0.035 if scale >= 1.0 else 0.06


def _points_min(
    attr: str, rows: str = "points"
) -> Callable[[dict, float], float]:
    """The smallest ``attr`` over a study's row objects."""
    return lambda data, scale: min(getattr(row, attr) for row in data[rows])


def _worst_cycles_error(data: dict, scale: float) -> float:
    return max(p.errors["cycles"] for p in data["points"])


def _frame_drops(data: dict, scale: float) -> int:
    """Sweep steps where the selected frame count decreases."""
    frames = [p.selected_frames for p in data["points"]]
    return sum(after < before for before, after in zip(frames, frames[1:]))


def _ratio(attr: str, label: str, over: str) -> Callable[[dict, float], float]:
    """``attr`` of the ``label`` point over that of the ``over`` point."""
    def measure(data: dict, scale: float) -> float:
        by_label = {p.label: p for p in data["points"]}
        return getattr(by_label[label], attr) / getattr(by_label[over], attr)
    return measure


def _last_over_first(attr: str) -> Callable[[dict, float], float]:
    return lambda data, scale: (getattr(data["points"][-1], attr)
                                / getattr(data["points"][0], attr))


def _dram_error_growth(data: dict, scale: float) -> float:
    """DRAM error at the largest warm-up minus the error with none."""
    first, last = data["points"][0], data["points"][-1]
    return last.errors["dram_accesses"] - first.errors["dram_accesses"]


def _speedup_at_4(data: dict, scale: float) -> float | None:
    """The 4-worker speedup, measurable only on hosts with 4+ CPUs."""
    return data["speedup"][4] if data["cpus"] >= 4 else None


#: The shipped registry, in run order.
BENCHES: dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            name="table1", experiment="table1", suites=("full",),
            description="Table I: GPU simulation parameters",
            scaled=False,
        ),
        BenchSpec(
            name="table2", experiment="table2", suites=("full",),
            description="Table II: per-benchmark cycles and IPC",
            extract=_extract_table2,
            claims=(
                Claim("asp cycles/frame over the heaviest 2D game's",
                      _cycles_per_frame_3d_over_2d, ">", 1.0),
            ),
        ),
        BenchSpec(
            name="fig3", experiment="fig3", suites=("full",),
            description="Figure 3: input-parameter correlation with cycles",
            extract=_extract_fig3,
            claims=(
                Claim("average R(shaders)",
                      lambda d, s: d["average"]["shaders"], ">", 0.9),
                Claim("average r(PRIM) minus average R(shaders)",
                      lambda d, s: (d["average"]["prim"]
                                    - d["average"]["shaders"]),
                      "<", 0.0),
            ),
        ),
        BenchSpec(
            name="fig4", experiment="fig4", suites=("full",),
            description="Figure 4: per-phase power fractions",
            extract=_extract_fig4,
            claims=(
                Claim("average raster power fraction",
                      lambda d, s: d["average"][1], ">", 0.6),
                *(
                    Claim(f"|average {phase} fraction - paper "
                          f"{PAPER_FIG4_AVG[index]}|",
                          lambda d, s, i=index: abs(d["average"][i]
                                                 - PAPER_FIG4_AVG[i]),
                          "<", bound)
                    for index, phase, bound in (
                        (1, "raster", 0.12), (0, "geometry", 0.06),
                        (2, "tiling", 0.06),
                    )
                ),
            ),
        ),
        BenchSpec(
            name="fig5", experiment="fig5", suites=("full",),
            description="Figure 5: similarity matrix (bbr1 prefix)",
            params={"alias": "bbr1"},
            extract=_extract_fig5,
            claims=(
                Claim("adjacent-frame over mean pair distance",
                      _diagonal_band, "<", 0.5),
            ),
        ),
        BenchSpec(
            name="fig6", experiment="fig6", suites=("full",),
            description="Figure 6: k-means clusters on the diagonal",
            params={"alias": "bbr1"},
            extract=_extract_fig6,
            claims=(
                Claim("clusters chosen by BIC", lambda d, s: d["k"], ">=", 2),
                Claim("cluster-label changes per frame",
                      _label_changes, "<", 0.25),
            ),
        ),
        BenchSpec(
            name="table3", experiment="table3", suites=("smoke", "full"),
            description="Table III: frame-reduction factor",
            extract=_extract_table3,
            claims=(
                Claim("smallest per-benchmark reduction",
                      _smallest("reduction"), ">", _reduction_floor),
                Claim("average reduction",
                      lambda d, s: d["average_reduction"], ">",
                      lambda scale: 2 * _reduction_floor(scale)),
            ),
        ),
        BenchSpec(
            name="fig7", experiment="fig7", suites=("smoke", "full"),
            description="Figure 7: relative error of the key metrics",
            extract=_extract_fig7,
            claims=tuple(
                Claim(f"average {metric} relative error",
                      lambda d, s, m=metric: d["average"][m], "<",
                      _fig7_budget)
                for metric in KEY_METRICS
            ),
        ),
        BenchSpec(
            name="table4", experiment="table4", suites=("full",),
            description="Table IV: random sub-sampling at equal accuracy",
            params={"megsim_trials": 20, "random_trials": 1000, "max_k": 48},
            extract=_extract_table4,
            claims=(
                Claim("average random/MEGsim frame ratio",
                      lambda d, s: d["average_reduction"], ">", 2.0),
                Claim("smallest per-benchmark random/MEGsim frame ratio",
                      _from_scale(1.0, _smallest("reduction")), ">", 1.0),
            ),
        ),
        BenchSpec(
            name="speedup", experiment="speedup", suites=("smoke", "full"),
            description="Headline wall-clock speedup: full vs MEGsim",
            extract=_extract_speedup,
            wall_clock=True,
            # Wall-clock claims: fixed clustering cost dominates tiny
            # sequences, so they hold from the full suite's scale up.
            claims=(
                Claim("smallest per-benchmark wall-clock speedup",
                      _from_scale(0.2, _smallest("speedup")), ">", 3.0),
                Claim("overall wall-clock speedup",
                      _from_scale(0.2, lambda d, s: d["overall_speedup"]),
                      ">", 5.0),
            ),
        ),
        BenchSpec(
            name="adversarial", experiment="adversarial",
            suites=("smoke", "full"),
            description="Adversarial scripted workloads inside the "
                        "paper's accuracy envelope",
            extract=_extract_adversarial,
        ),
        BenchSpec(
            name="parity", experiment="backend_compare",
            suites=("smoke", "full"),
            description="Cycle-sim engine vs scalar reference, bit for bit",
            extract=_extract_backend_compare,
        ),
        BenchSpec(
            name="ablation_weights", experiment="weight_ablation",
            suites=("full",),
            description="Ablation: power-derived feature weights vs "
                        "simpler schemes",
            params={"alias": "bbr1"},
            extract=_extract_sweep,
            claims=(
                Claim("smallest reduction across weightings",
                      _points_min("reduction"), ">", 1.0),
            ),
        ),
        BenchSpec(
            name="ablation_threshold", experiment="threshold_sweep",
            suites=("full",),
            description="Ablation: BIC-spread threshold T sweep",
            params={"alias": "jjo"},
            extract=_extract_sweep,
            claims=(
                Claim("T steps where the selected frames drop",
                      _frame_drops, "==", 0),
            ),
        ),
        BenchSpec(
            name="ablation_clustering", experiment="cluster_method_study",
            suites=("full",),
            description="Extension: cluster-selection strategies",
            params={"alias": "pvz"},
            extract=_extract_sweep,
            claims=(
                Claim("strategies compared",
                      lambda d, s: len(d["points"]), "==", 5),
                Claim("smallest reduction across strategies",
                      _points_min("reduction"), ">", 3.0),
                Claim("largest cycles error across strategies",
                      _worst_cycles_error, "<", 0.10),
                Claim("bic-search frames over streaming frames",
                      _ratio("selected_frames", "bic-search (paper)",
                             "streaming (single pass)"),
                      "<=", 1.0),
            ),
        ),
        BenchSpec(
            name="ablation_warmup", experiment="warmup_study",
            suites=("full",),
            description="Extension: cache warm-up (ASSI) before each "
                        "representative",
            params={"alias": "hwh"},
            extract=_extract_sweep,
            claims=(
                Claim("simulated frames, largest warm-up over none",
                      _last_over_first("selected_frames"), ">", 1.0),
                Claim("DRAM error growth, largest warm-up over none",
                      _dram_error_growth, "<", 0.02),
            ),
        ),
        BenchSpec(
            name="ablation_rendering_modes",
            experiment="rendering_mode_study", suites=("full",),
            description="Extension: MEGsim on TBR / TBDR / IMR",
            params={"alias": "bbr1"},
            extract=_extract_sweep,
            claims=(
                Claim("TBDR over TBR fragments shaded",
                      _ratio("fragments_shaded", "tbdr", "tbr"), "<", 1.0),
                Claim("TBDR over TBR cycles",
                      _ratio("cycles", "tbdr", "tbr"), "<", 1.0),
                Claim("IMR over TBR DRAM accesses",
                      _ratio("dram_accesses", "imr", "tbr"), ">", 0.3),
                Claim("largest cycles error across modes",
                      _worst_cycles_error, "<", 0.08),
            ),
        ),
        BenchSpec(
            name="ablation_convergence",
            experiment="scale_convergence_study", suites=("full",),
            description="Extension: reduction factor vs sequence length",
            params={"alias": "jjo"},
            extract=_extract_sweep,
            claims=(
                Claim("reduction, longest over shortest sequence",
                      _last_over_first("reduction"), ">", 1.0),
                Claim("largest cycles error across lengths",
                      _worst_cycles_error, "<", 0.08),
            ),
        ),
        BenchSpec(
            name="phase_recovery", experiment="phase_recovery_study",
            suites=("full",),
            description="Mechanism check: clusters vs ground-truth phases",
            extract=_extract_phase_recovery,
            claims=(
                Claim("lowest cluster homogeneity",
                      _points_min("homogeneity", "results"), ">", 0.7),
                Claim("lowest adjusted Rand index",
                      _points_min("ari", "results"), ">", 0.15),
            ),
        ),
        BenchSpec(
            name="parallel_scaling", experiment="parallel_scaling",
            suites=("full",),
            description="Functional-profile speedup at 1/2/4 workers",
            scaled=False,
            wall_clock=True,
            extract=_extract_parallel_scaling,
            claims=(
                Claim("profiled trace frames",
                      lambda d, s: d["frames"], ">=", 512),
                Claim("shortest best-round seconds",
                      lambda d, s: min(d["seconds"].values()), ">", 0.0),
                Claim("speedup at 4 workers", _speedup_at_4, ">=", 2.0),
            ),
        ),
    )
}


def bench_names(suite: str | None = None) -> list[str]:
    """Registry names, optionally filtered to one suite, in run order.

    Raises:
        ConfigError: on an unknown suite name.
    """
    if suite is None:
        return list(BENCHES)
    if suite not in SUITES:
        raise ConfigError(
            f"unknown suite {suite!r}; available: {', '.join(SUITES)}"
        )
    return [name for name, spec in BENCHES.items() if suite in spec.suites]

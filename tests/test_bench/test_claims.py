"""Detection power of the specs' paper-shape claims.

Every claim is fed a doctored :class:`ExperimentResult` that breaks it
and must raise :class:`BenchError` naming the claim; the undoctored
result passes every claim.  No simulation runs: the results are built by
hand, so the whole module takes milliseconds.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.analysis.ablation import AblationPoint, ModeStudyPoint
from repro.analysis.experiments import ExperimentResult
from repro.analysis.phase_recovery import PhaseRecoveryResult
from repro.bench.registry import BENCHES, Claim
from repro.errors import BenchError
from repro.gpu.stats import KEY_METRICS


def _errors(cycles: float = 0.01, dram: float = 0.01) -> dict[str, float]:
    errors = {metric: 0.01 for metric in KEY_METRICS}
    errors.update(cycles=cycles, dram_accesses=dram)
    return errors


def _point(label: str, frames: int = 10, reduction: float = 10.0,
           **errors) -> AblationPoint:
    return AblationPoint(label, frames, reduction, _errors(**errors))


def _replace(points: list, index: int, **changes) -> list:
    points = list(points)
    points[index] = dataclasses.replace(points[index], **changes)
    return points


def _set(path: tuple, value):
    """A doctoring step: set ``data[path[0]][path[1]]... = value``."""
    def doctor(data: dict) -> None:
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doctor


def _edit_points(key: str = "points", index: int = -1, **changes):
    def doctor(data: dict) -> None:
        data[key] = _replace(data[key], index, **changes)
    return doctor


def _line_distances(n: int = 30) -> np.ndarray:
    """Frames along a line: neighbours are close, far frames distant."""
    idx = np.arange(n, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


CLUSTERING = ["bic-search (paper)", "xmeans (k_max=64)", "agglomerative",
              "bic-search + projection(16)", "streaming (single pass)"]
MODES = [
    ModeStudyPoint("tbr", 100.0, 50.0, 1000.0, 10, _errors()),
    ModeStudyPoint("tbdr", 90.0, 45.0, 600.0, 10, _errors()),
    ModeStudyPoint("imr", 110.0, 80.0, 1000.0, 10, _errors()),
]

#: spec -> (scale, healthy data, {claim text: doctoring step}).
CASES = {
    "table2": (0.2, {
        "asp": {"cycles_millions": 200.0, "frames": 10},
        "hcr": {"cycles_millions": 50.0, "frames": 10},
        "jjo": {"cycles_millions": 40.0, "frames": 10},
        "pvz": {"cycles_millions": 30.0, "frames": 10},
    }, {
        "asp cycles/frame over the heaviest 2D game's":
            _set(("asp", "cycles_millions"), 40.0),
    }),
    "fig3": (0.2, {"average": {"shaders": 0.95, "prim": 0.4}}, {
        "average R(shaders)": _set(("average", "shaders"), 0.8),
        "average r(PRIM) minus average R(shaders)":
            _set(("average", "prim"), 0.97),
    }),
    "fig4": (0.2, {"average": (0.108, 0.745, 0.147)}, {
        "average raster power fraction": _set(("average",), (0.25, 0.5, 0.25)),
        "|average raster fraction - paper 0.745|":
            _set(("average",), (0.05, 0.88, 0.07)),
        "|average geometry fraction - paper 0.108|":
            _set(("average",), (0.2, 0.7, 0.1)),
        "|average tiling fraction - paper 0.147|":
            _set(("average",), (0.05, 0.7, 0.25)),
    }),
    "fig5": (0.2, {"distances": _line_distances()}, {
        "adjacent-frame over mean pair distance":
            _set(("distances",), np.ones((30, 30)) - np.eye(30)),
    }),
    "fig6": (0.2, {"k": 3, "labels": np.repeat([0, 1, 2], 10)}, {
        "clusters chosen by BIC": _set(("k",), 1),
        "cluster-label changes per frame":
            _set(("labels",), np.tile([0, 1], 15)),
    }),
    # At scale 0.2 the floor is max(5, 40 * 0.2) = 8.
    "table3": (0.2, {
        "bbr1": {"reduction": 20.0}, "hcr": {"reduction": 12.0},
        "average_reduction": 17.0,
    }, {
        "smallest per-benchmark reduction": _set(("hcr", "reduction"), 7.5),
        "average reduction": _set(("average_reduction",), 15.0),
    }),
    "fig7": (0.2, {"average": {metric: 0.01 for metric in KEY_METRICS}}, {
        f"average {metric} relative error": _set(("average", metric), 0.07)
        for metric in KEY_METRICS
    }),
    "table4": (1.0, {
        "bbr1": {"reduction": 9.0}, "spd": {"reduction": 5.0},
        "average_reduction": 7.0,
    }, {
        "average random/MEGsim frame ratio":
            _set(("average_reduction",), 1.5),
        "smallest per-benchmark random/MEGsim frame ratio":
            _set(("spd", "reduction"), 0.9),
    }),
    "speedup": (0.2, {
        "bbr1": {"speedup": 12.0}, "hcr": {"speedup": 8.0},
        "overall_speedup": 10.0,
    }, {
        "smallest per-benchmark wall-clock speedup":
            _set(("hcr", "speedup"), 2.5),
        "overall wall-clock speedup": _set(("overall_speedup",), 4.0),
    }),
    "ablation_weights": (0.2, {
        "points": [_point(f"w{i}", reduction=5.0) for i in range(4)],
    }, {
        "smallest reduction across weightings":
            _edit_points(reduction=0.9),
    }),
    "ablation_threshold": (0.2, {
        "points": [_point(f"T={t}", frames=f)
                   for t, f in ((0.5, 3), (0.85, 5), (1.0, 5))],
    }, {
        "T steps where the selected frames drop":
            _edit_points(index=-1, selected_frames=4),
    }),
    "ablation_clustering": (0.2, {
        "points": [_point(label, frames=8 if "streaming" in label else 6)
                   for label in CLUSTERING],
    }, {
        "strategies compared": lambda data: data["points"].pop(1),
        "smallest reduction across strategies":
            _edit_points(index=2, reduction=2.0),
        "largest cycles error across strategies":
            _edit_points(index=1, errors=_errors(cycles=0.2)),
        "bic-search frames over streaming frames":
            _edit_points(index=0, selected_frames=9),
    }),
    "ablation_warmup": (0.2, {
        "points": [_point("warmup=0", frames=10, dram=0.03),
                   _point("warmup=4", frames=50, dram=0.02)],
    }, {
        "simulated frames, largest warm-up over none":
            _edit_points(selected_frames=10),
        "DRAM error growth, largest warm-up over none":
            _edit_points(errors=_errors(dram=0.06)),
    }),
    "ablation_rendering_modes": (0.2, {"points": MODES}, {
        "TBDR over TBR fragments shaded":
            _edit_points(index=1, fragments_shaded=1200.0),
        "TBDR over TBR cycles": _edit_points(index=1, cycles=120.0),
        "IMR over TBR DRAM accesses": _edit_points(index=2, dram_accesses=10.0),
        "largest cycles error across modes":
            _edit_points(index=2, errors=_errors(cycles=0.1)),
    }),
    "ablation_convergence": (0.2, {
        "points": [_point("short", reduction=5.0),
                   _point("long", reduction=12.0)],
    }, {
        "reduction, longest over shortest sequence":
            _edit_points(reduction=4.0),
        "largest cycles error across lengths":
            _edit_points(index=0, errors=_errors(cycles=0.09)),
    }),
    "phase_recovery": (0.2, {
        "results": [PhaseRecoveryResult("hcr", 3, 5, 0.6, 0.95),
                    PhaseRecoveryResult("jjo", 4, 6, 0.4, 0.9)],
    }, {
        "lowest cluster homogeneity":
            _edit_points("results", homogeneity=0.6),
        "lowest adjusted Rand index": _edit_points("results", ari=0.1),
    }),
    "parallel_scaling": (0.2, {
        "frames": 520, "cpus": 4,
        "seconds": {1: 1.0, 2: 0.6, 4: 0.4},
        "speedup": {1: 1.0, 2: 1.67, 4: 2.5},
    }, {
        "profiled trace frames": _set(("frames",), 400),
        "shortest best-round seconds": _set(("seconds", 4), 0.0),
        "speedup at 4 workers": _set(("speedup", 4), 1.5),
    }),
}


def _result(spec: str, data: dict) -> ExperimentResult:
    return ExperimentResult(BENCHES[spec].experiment, data, "")


def test_every_claim_has_a_doctored_case():
    claimed = {name: {claim.text for claim in spec.claims}
               for name, spec in BENCHES.items() if spec.claims}
    assert {name: set(doctors) for name, (_, _, doctors) in CASES.items()} \
        == claimed


@pytest.mark.parametrize("spec", sorted(CASES))
def test_healthy_result_passes(spec):
    scale, data, _ = CASES[spec]
    BENCHES[spec].check_claims(_result(spec, copy.deepcopy(data)), scale)


@pytest.mark.parametrize("spec, claim", [
    (spec, claim) for spec, (_, _, doctors) in sorted(CASES.items())
    for claim in doctors
])
def test_doctored_result_breaks_its_claim(spec, claim):
    scale, data, doctors = CASES[spec]
    doctored = copy.deepcopy(data)
    doctors[claim](doctored)
    with pytest.raises(BenchError) as excinfo:
        BENCHES[spec].check_claims(_result(spec, doctored), scale)
    message = str(excinfo.value)
    assert repr(spec) in message
    assert repr(claim) in message
    assert "measured" in message


def test_every_broken_claim_is_listed():
    scale, data, doctors = CASES["fig3"]
    doctored = copy.deepcopy(data)
    for doctor in doctors.values():
        doctor(doctored)
    with pytest.raises(BenchError) as excinfo:
        BENCHES["fig3"].check_claims(_result("fig3", doctored), scale)
    lines = str(excinfo.value).splitlines()
    assert len(lines) == len(doctors)
    for claim, line in zip(doctors, lines):
        assert repr(claim) in line


class TestApplicability:
    def test_wall_clock_claims_do_not_apply_below_their_scale(self):
        scale, data, _ = CASES["speedup"]
        doctored = copy.deepcopy(data)
        doctored["overall_speedup"] = 1.0
        BENCHES["speedup"].check_claims(_result("speedup", doctored), 0.05)
        with pytest.raises(BenchError):
            BENCHES["speedup"].check_claims(_result("speedup", doctored), scale)

    def test_unmeasurable_claim_is_skipped(self):
        _, data, _ = CASES["parallel_scaling"]
        doctored = copy.deepcopy(data)
        doctored.update(cpus=2, speedup={1: 1.0, 2: 1.0, 4: 1.0})
        BENCHES["parallel_scaling"].check_claims(
            _result("parallel_scaling", doctored), 0.2
        )

    def test_scale_aware_bound(self):
        claim = Claim("x", lambda data, scale: data["x"], ">",
                      lambda scale: 10 * scale)
        claim.enforce("s", {"x": 5.0}, 0.4)
        with pytest.raises(BenchError, match="needs > 6"):
            claim.enforce("s", {"x": 5.0}, 0.6)

"""Correctness checks on a workload's outputs.

Every request's output is checked; each check that fails counts the
request as failed:

* **digest** — a hash of the simulated statistics (plan labels,
  representative frame statistics, the estimate and, where it exists,
  the ground-truth totals) must equal the digest recorded in
  ``reference.json`` for that benchmark seed, and must be the same in
  every round of a run.
* **ground truth** — ground-truth totals must equal the reference
  totals, which depend only on the workload key and scale.
* **envelope** — no key-metric error may exceed the workload's
  envelope: :data:`ENVELOPE_HEADROOM` times the worst error recorded
  in ``reference.json``.
* **service** — a knob-sweep result must equal the estimate the direct
  ``materialize_stage`` path computes (checked in ``workloads.py``).

The estimate-only workload simulates no ground truth; its error is
taken against the reference ground-truth totals.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy
from repro.analysis.metrics import relative_error
from repro.gpu.stats import KEY_METRICS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: A workload's envelope, the largest tolerated relative error of any
#: key metric of any request, is this multiple of the worst error
#: ``make_reference.py`` saw over every recorded seed.  The paper's
#: <1.5% mean and ~4% worst case hold for sequences of 2,000-5,000
#: frames; these workloads run 60-500 frames, so each cluster holds
#: fewer frames and one misassigned frame weighs more.  A change that
#: doubles every error breaks the envelope.
ENVELOPE_HEADROOM = 1.5

#: Significant digits kept when hashing floats: digests then survive
#: last-bit differences in summation order, never a changed statistic.
_DIGITS = 10


def rounded(value):
    """``value`` with every float cut to :data:`_DIGITS` significant digits."""
    if isinstance(value, float):
        return float(f"{value:.{_DIGITS}g}")
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    return value


def output_digest(plan, representatives, estimate, truth) -> str:
    """16-hex digest of one request's simulated statistics.

    Args:
        plan: the request's :class:`~repro.core.sampler.SamplingPlan`.
        representatives: its representatives' ``SequenceResult``.
        estimate: the extrapolated ``FrameStats``.
        truth: ground-truth totals (``FrameStats``) or ``None``.
    """
    document = {
        "labels": [[c.representative, list(c.members)] for c in plan.clusters],
        "representatives": [
            [frame_id, stats.to_dict()]
            for frame_id, stats in zip(
                representatives.frame_ids, representatives.frame_stats
            )
        ],
        "estimate": estimate.to_dict(),
        "truth": None if truth is None else truth.to_dict(),
    }
    text = json.dumps(rounded(document), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relative_errors_pct(
    estimate: dict[str, float], truth: dict[str, float]
) -> list[float]:
    """Per key metric |estimate - truth| / truth, in percent (0/0 -> 0)."""
    errors = []
    for metric in KEY_METRICS:
        actual, approx = truth[metric], estimate[metric]
        if actual == 0:
            errors.append(0.0 if approx == 0 else float("inf"))
        else:
            errors.append(relative_error(approx, actual) * 100.0)
    return errors


def platform_key() -> dict[str, str]:
    """What must match for recorded digests to be comparable here."""
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": ".".join(numpy.__version__.split(".")[:2]),
    }


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The reference document written by ``make_reference.py``."""
    return json.loads(path.read_text())


class Checker:
    """Checks every output of one workload run against the reference."""

    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        entry = reference["workloads"][workload]
        self.truth = entry["truth"]
        self.envelope = ENVELOPE_HEADROOM * entry["max_error_pct"]
        self.digests_comparable = reference["platform"] == platform_key()
        self.expected = (
            entry["digests"].get(str(seed)) if self.digests_comparable else None
        )
        self.first_round: list[str | None] | None = None

    @property
    def digest_status(self) -> str:
        """How the digests of this run were checked, for the report."""
        if not self.digests_comparable:
            return "not compared: reference recorded on another platform"
        if self.expected is None:
            return "not compared: seed not recorded (rounds compared)"
        return "compared with reference.json"

    def check(self, index: int, output) -> list[str]:
        """Every failed check of request ``index``'s output (empty = pass)."""
        problems = []
        reference_truth = self.truth.get(output.key)
        if reference_truth is None:
            return [f"{output.label}: no reference ground truth for {output.key}"]
        if output.truth is not None and rounded(output.truth) != reference_truth:
            problems.append(f"{output.label}: ground truth differs from reference")
        if self.expected is not None and (
            index >= len(self.expected) or output.digest != self.expected[index]
        ):
            problems.append(f"{output.label}: digest differs from reference")
        worst = max(relative_errors_pct(output.estimate, reference_truth))
        if worst > self.envelope:
            problems.append(
                f"{output.label}: key-metric error {worst:.2f}% exceeds the "
                f"{self.envelope:.1f}% envelope"
            )
        return problems

    def check_round(self, outputs: list) -> list[list[str]]:
        """Per request, the failed checks of one round (rounds must agree)."""
        digests = [None if o is None else o.digest for o in outputs]
        if self.first_round is None:
            self.first_round = digests
        results = []
        for index, output in enumerate(outputs):
            if output is None:
                results.append([])
                continue
            problems = self.check(index, output)
            if digests[index] != self.first_round[index]:
                problems.append(f"{output.label}: digest differs between rounds")
            results.append(problems)
        return results

    def errors_pct(self, outputs: list) -> list[float]:
        """Key-metric errors of every output, against reference truth."""
        errors = []
        for output in outputs:
            if output is not None and output.key in self.truth:
                errors.extend(
                    relative_errors_pct(output.estimate, self.truth[output.key])
                )
        return errors

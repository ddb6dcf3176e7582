"""Regenerate ``reference.json``: ground truth and output digests per seed.

    python3 perfbench/make_reference.py [--seeds 32]

Computes every request of every workload for benchmark seeds
``0 .. seeds-1`` through the direct pipeline path
(``materialize_stage`` on one shared in-memory store), and records

* the ground-truth totals of the four key metrics for every workload
  key at the workload's scale (they depend on neither seed nor knobs),
* for each seed, the digest of every request's simulated statistics,
  in request order,
* the largest key-metric error seen, from which ``check.py`` derives
  the envelopes.

Run it only when a change is meant to alter simulated statistics; a
speed-only change must leave the file as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path[:0] = [
    str(Path(__file__).resolve().parent.parent / "src"),
    str(Path(__file__).resolve().parent.parent),
]

from repro.gpu.stats import KEY_METRICS  # noqa: E402
from repro.pipeline import PipelineRequest, materialize_stage  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402

from perfbench.check import (  # noqa: E402
    REFERENCE_PATH,
    output_digest,
    platform_key,
    relative_errors_pct,
    rounded,
)
from perfbench.workloads import (  # noqa: E402
    SCALES,
    WORKLOADS,
    requests_for,
    workload_keys,
)


def reference_for(workload: str, seeds: int) -> dict:
    store = ArtifactStore(root=None, memory_entries=1_000_000)
    scale = SCALES[workload]
    truth = {}
    for key in workload_keys(workload):
        totals = materialize_stage(
            PipelineRequest.create(key, scale=scale), "ground_truth", store
        ).totals
        truth[key] = rounded({m: getattr(totals, m) for m in KEY_METRICS})
    with_truth = workload != "estimate-only"
    digests, worst = {}, 0.0
    for seed in range(seeds):
        row = []
        for spec in requests_for(workload, seed):
            request = spec.request()
            plan = materialize_stage(request, "plan", store)
            reps = materialize_stage(request, "representatives", store)
            estimate = materialize_stage(request, "estimate", store)
            totals = (
                materialize_stage(request, "ground_truth", store).totals
                if with_truth else None
            )
            row.append(output_digest(plan, reps, estimate, totals))
            errors = relative_errors_pct(
                {m: getattr(estimate, m) for m in KEY_METRICS}, truth[spec.key]
            )
            worst = max(worst, *errors)
        digests[str(seed)] = row
        print(f"{workload}: seed {seed} done", file=sys.stderr)
    return {
        "scale": scale,
        "truth": truth,
        "digests": digests,
        "max_error_pct": round(worst, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    document = {
        "platform": platform_key(),
        "seeds": args.seeds,
        "workloads": {w: reference_for(w, args.seeds) for w in WORKLOADS},
    }
    REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

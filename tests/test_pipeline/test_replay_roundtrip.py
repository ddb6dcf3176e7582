"""The replay round trip: export a synthetic benchmark, replay the
capture through the pipeline, and get the synthetic run's analysis back.

This is the ISSUE's acceptance test for the replay family: the capture
carries everything the methodology consumes, so clustering a replayed
capture recovers the synthetic run's phase structure exactly (rand
index 1.0), and a capture's fingerprints are stable run to run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.runner import evaluate_benchmark
from repro.core import adjusted_rand_index
from repro.core.sampler import SamplingPlan
from repro.pipeline import PipelineRequest, stage_fingerprints
from repro.store import ArtifactStore, store_scope
from repro.workloads import export_workload_file, make_benchmark
from repro.workloads.registry import _DYNAMIC, register_workload_file

SCALE = 0.05


@pytest.fixture(autouse=True)
def _isolated_dynamic_table():
    saved = dict(_DYNAMIC)
    yield
    _DYNAMIC.clear()
    _DYNAMIC.update(saved)


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    path = tmp_path_factory.mktemp("capture") / "hcr.jsonl"
    export_workload_file(make_benchmark("hcr", scale=SCALE), path)
    return path


def _labels(plan: SamplingPlan) -> np.ndarray:
    labels = np.zeros(plan.total_frames, dtype=np.int64)
    for row, cluster in enumerate(plan.clusters):
        labels[list(cluster.members)] = row
    return labels


def test_replayed_capture_recovers_the_synthetic_plan(capture, tmp_path):
    ref = register_workload_file(str(capture))
    with store_scope(ArtifactStore(tmp_path / "store")):
        synthetic = evaluate_benchmark("hcr", scale=SCALE)
        replayed = evaluate_benchmark(ref.name)

    assert replayed.plan.total_frames == synthetic.plan.total_frames
    assert replayed.plan.total_frames == synthetic.plan.total_frames
    # The capture is lossless, so the feature matrices — and therefore
    # the whole BIC search — coincide: identical cluster assignment.
    assert adjusted_rand_index(
        _labels(synthetic.plan), _labels(replayed.plan)
    ) == 1.0
    assert (
        replayed.plan.representative_frames
        == synthetic.plan.representative_frames
    )
    # End to end, the replayed estimate is the synthetic estimate.
    for metric, error in replayed.relative_errors().items():
        assert error == pytest.approx(
            synthetic.relative_errors()[metric], abs=1e-12
        )


def test_replay_fingerprints_are_stable_across_runs(capture):
    first = stage_fingerprints(PipelineRequest.create(
        register_workload_file(str(capture)).name
    ))
    _DYNAMIC.clear()
    second = stage_fingerprints(PipelineRequest.create(
        register_workload_file(str(capture)).name
    ))
    assert first == second


def test_replay_and_synthetic_address_different_artifacts(capture):
    ref = register_workload_file(str(capture))
    replay = stage_fingerprints(PipelineRequest.create(ref.name))
    synthetic = stage_fingerprints(
        PipelineRequest.create("hcr", scale=SCALE)
    )
    assert replay["trace"] != synthetic["trace"]

"""Request expansion and its three-way dedup."""

from __future__ import annotations

import json

import pytest

from repro.obs import collecting
from repro.pipeline import STAGES, materialize_stage, stage_fingerprints
from repro.pipeline.request import PipelineRequest
from repro.service.db import ResultsDB
from repro.service.scheduler import expand_request
from repro.store import ArtifactStore


#: The stages that get jobs: every one with a disk codec.
STORED = [stage for stage in STAGES if stage.stored]


@pytest.fixture
def db(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as handle:
        yield handle


def _insert(db: ResultsDB, request: PipelineRequest) -> int:
    return db.insert_request(
        "fp-eval", request.alias, request.scale, request.options.seed, "{}"
    )


def test_expansion_creates_one_job_per_stage(db):
    request = PipelineRequest.create("bbr1", scale=0.05)
    request_id = _insert(db, request)
    with collecting() as collector:
        jobs = expand_request(db, request_id, request)

    # Five jobs: the derived trace stage gets none.
    assert set(jobs) == {
        "profile", "plan", "ground_truth", "representatives", "estimate"
    }
    assert collector.counters["service.jobs.created"] == len(STORED) == 5
    fps = stage_fingerprints(request)
    for stage in STORED:
        row = db.job(jobs[stage.name])
        assert row["status"] == "pending"
        assert row["source"] == "computed"
        assert row["fingerprint"] == fps[stage.name]
    # Dependencies name stored upstreams only; the trace is never one.
    deps = {
        name: json.loads(db.job(job_id)["deps_json"])
        for name, job_id in jobs.items()
    }
    assert deps == {
        "profile": [],
        "ground_truth": [],
        "plan": [fps["profile"]],
        "representatives": [fps["plan"]],
        "estimate": [fps["plan"], fps["representatives"]],
    }
    linked = {row["stage"] for row in db.jobs_for_request(request_id)}
    assert linked == set(jobs)


def test_identical_request_dedupes_onto_inflight_jobs(db):
    request = PipelineRequest.create("bbr1", scale=0.05)
    first = _insert(db, request)
    expand_request(db, first, request)

    second = _insert(db, request)
    with collecting() as collector:
        jobs = expand_request(db, second, request)

    assert collector.counters["service.jobs.deduped.inflight"] == len(STORED)
    assert "service.jobs.created" not in collector.counters
    # Both requests share the same physical job rows.
    first_jobs = {row["id"] for row in db.jobs_for_request(first)}
    assert {db.job(job_id)["id"] for job_id in jobs.values()} == first_jobs


def test_done_jobs_dedupe_as_done(db):
    request = PipelineRequest.create("bbr1", scale=0.05)
    first = _insert(db, request)
    jobs = expand_request(db, first, request)
    for job_id in jobs.values():
        db.claim_job(job_id)
        db.finish_job(job_id)

    second = _insert(db, request)
    with collecting() as collector:
        expand_request(db, second, request)
    assert collector.counters["service.jobs.deduped.done"] == len(STORED)
    assert "service.jobs.created" not in collector.counters


def test_materialized_artifacts_dedupe_against_the_store(db, tmp_path):
    """Artifacts computed *outside* the service (e.g. by ``megsim run``)
    are adopted as jobs born done, with ``source='store'``."""
    store = ArtifactStore(root=tmp_path / "store")
    request = PipelineRequest.create("bbr1", scale=0.05)
    materialize_stage(request, "profile", store=store)
    materialize_stage(request, "ground_truth", store=store)

    request_id = _insert(db, request)
    with collecting() as collector:
        jobs = expand_request(db, request_id, request, store=store)

    assert collector.counters["service.jobs.deduped.store"] == 2
    assert collector.counters["service.jobs.created"] == len(STORED) - 2
    for name in ("profile", "ground_truth"):
        row = db.job(jobs[name])
        assert row["status"] == "done"
        assert row["source"] == "store"
    assert db.job(jobs["plan"])["status"] == "pending"


def test_expansion_requeues_failed_jobs(db):
    request = PipelineRequest.create("bbr1", scale=0.05)
    first = _insert(db, request)
    jobs = expand_request(db, first, request)
    db.claim_job(jobs["profile"])
    db.finish_job(jobs["profile"], error="TraceError: boom")

    second = _insert(db, request)
    with collecting() as collector:
        expand_request(db, second, request)
    assert collector.counters["service.jobs.retried"] == 1
    assert db.job(jobs["profile"])["status"] == "pending"
    assert db.job(jobs["profile"])["error"] is None


def test_downstream_jobs_wait_for_upstream_jobs(db):
    request = PipelineRequest.create("bbr1", scale=0.05)
    request_id = _insert(db, request)
    jobs = expand_request(db, request_id, request)

    ready = {row["id"] for row in db.ready_jobs()}
    # The trace's two consumers have no stored upstream: ready at once.
    assert ready == {jobs["profile"], jobs["ground_truth"]}

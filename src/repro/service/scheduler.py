"""Request expansion: one evaluation becomes five fingerprint-keyed jobs.

The scheduler half of the fuzzbench-style scheduler/dispatcher split
(:mod:`repro.service.daemon` is the dispatcher): :func:`expand_request`
walks the pipeline's stage graph, computes every stage's input-cone
fingerprint *without running anything*, and records one job row per
stored stage — the derived trace gets no job: a worker whose stage
misses regenerates it inside :func:`~repro.pipeline.materialize_stage`,
and that worker's memory tier keeps it for its later jobs.  Jobs are
deduplicated three ways before any work is enqueued:

* **already-done** — a job row with this fingerprint is already ``done``
  (an earlier request computed it): linked, not re-run
  (``service.jobs.deduped.done``).
* **in-flight** — a job row exists but is still ``pending``/``running``
  (a concurrent request wants the same artifact): linked, the one
  execution will serve both (``service.jobs.deduped.inflight``).
* **materialized** — no job row, but the content-addressed store already
  holds the artifact (computed outside the service, e.g. by ``megsim
  run``): the job is born ``done`` with ``source='store'``
  (``service.jobs.deduped.store``).

Everything else becomes a ``pending`` job (``service.jobs.created``)
whose ``deps_json`` lists its stored upstream fingerprints — the
readiness relation :meth:`~repro.service.db.ResultsDB.ready_jobs`
evaluates.  The profile and ground-truth jobs, whose only upstream is the
trace, are ready at once.
"""

from __future__ import annotations

from repro.obs import counter, span
from repro.pipeline import STAGES, stage_fingerprints
from repro.pipeline.request import PipelineRequest
from repro.service.db import ResultsDB
from repro.store import ArtifactStore


def _materialized(store: ArtifactStore | None, kind: str, fp: str) -> bool:
    """Whether the store's disk tier already holds this artifact.

    A cheap existence probe — no decode, no hash check.  A file that
    later turns out corrupt is dropped by the store on read and the
    executing worker recomputes it transparently, so a false positive
    here costs one recursive recompute, never a wrong result.
    """
    if store is None or store.disk is None:
        return False
    return store.disk.path(kind, fp).exists()


def expand_request(
    db: ResultsDB,
    request_id: int,
    request: PipelineRequest,
    store: ArtifactStore | None = None,
) -> dict[str, int]:
    """Create (or dedupe onto) the job rows of one request.

    Args:
        db: the results database.
        request_id: the request row the jobs belong to.
        request: the decoded evaluation request.
        store: consulted for already-materialized artifacts; ``None``
            skips the store-dedup pass.

    Returns:
        ``stage name -> job id`` for the five stored stages.
    """
    fps = stage_fingerprints(request)
    stored = {stage.name for stage in STAGES if stage.stored}
    jobs: dict[str, int] = {}
    with span(
        "service.schedule", benchmark=request.alias, request_id=request_id
    ):
        for stage in STAGES:
            if not stage.stored:
                continue
            fp = fps[stage.name]
            existing = db.job_by_fingerprint(fp)
            if existing is not None:
                job_id = int(existing["id"])
                if existing["status"] == "done":
                    counter("service.jobs.deduped.done")
                elif existing["status"] == "failed":
                    # A new request adopting a failed job re-queues it:
                    # failures are retryable, dedup is not a tombstone.
                    db.retry_job(job_id)
                    counter("service.jobs.retried")
                else:
                    counter("service.jobs.deduped.inflight")
            elif _materialized(store, stage.kind, fp):
                job_id, created = db.upsert_job(
                    fp, stage.name, deps=[], status="done", source="store"
                )
                counter(
                    "service.jobs.deduped.store" if created
                    else "service.jobs.deduped.done"
                )
            else:
                deps = [fps[name] for name in stage.requires if name in stored]
                job_id, created = db.upsert_job(fp, stage.name, deps=deps)
                counter(
                    "service.jobs.created" if created
                    else "service.jobs.deduped.inflight"
                )
            db.link_request_job(request_id, job_id, stage.name)
            jobs[stage.name] = job_id
    return jobs

"""The experiment service: job queue, worker pool and results database.

``repro.service`` turns one-shot pipeline runs into a queued,
deduplicated, queryable system (``docs/service.md`` is the full
reference):

* :class:`ResultsDB` — requests, fingerprint-keyed jobs and result
  documents in one WAL-mode SQLite file, schema-versioned with forward
  migrations (:data:`SCHEMA_VERSION`, :data:`MIGRATIONS`).
* :func:`expand_request` — the scheduler: one evaluation becomes five
  stored-stage jobs (the derived trace gets none), deduplicated against done/in-flight jobs and the
  content-addressed store before any work is enqueued.
* :func:`execute_job` — the worker: materializes exactly one stage
  artifact and records its own terminal job state.
* :func:`serve` — the dispatcher loop behind ``megsim serve``: claim,
  dispatch waves through :func:`~repro.parallel.parallel_map`,
  finalize (:func:`assemble_result`).
* :func:`build_requests` / :func:`submit_requests` /
  :func:`service_status` — the client half behind ``megsim submit`` /
  ``megsim status`` / ``megsim runs``.
* :func:`encode_request` / :func:`decode_request` — the JSON request
  document whose round-trip preserves fingerprints.

Quickstart::

    from repro.service import (
        ResultsDB, build_requests, serve, submit_requests,
    )

    with ResultsDB("/tmp/service.sqlite3") as db:
        submit_requests(db, build_requests(["bbr1"], scale=0.05))
    serve("/tmp/service.sqlite3", once=True)
"""

from repro.service.client import (
    build_requests,
    render_runs,
    render_status,
    service_status,
    submit_requests,
)
from repro.service.codec import decode_request, encode_request
from repro.service.daemon import assemble_result, serve
from repro.service.db import (
    DB_ENV_VAR,
    DEFAULT_DB_PATH,
    MIGRATIONS,
    SCHEMA_VERSION,
    ResultsDB,
    resolve_db_path,
)
from repro.service.scheduler import expand_request
from repro.service.worker import execute_job

__all__ = [
    "DB_ENV_VAR",
    "DEFAULT_DB_PATH",
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "ResultsDB",
    "assemble_result",
    "build_requests",
    "decode_request",
    "encode_request",
    "execute_job",
    "expand_request",
    "render_runs",
    "render_status",
    "resolve_db_path",
    "serve",
    "service_status",
    "submit_requests",
]

"""The results database: requests, jobs and results in SQLite.

:class:`ResultsDB` is the service's single source of truth — the job
queue *and* the run archive live in one SQLite file, so ``megsim
submit`` (a writer), ``megsim serve`` (reader + writer), pool workers
(writers) and ``megsim status``/``megsim runs`` (readers) coordinate
through nothing but the database.  The design follows fuzzbench's
``database/models.py`` (experiments → trials → snapshots) and
py_experimenter's parameter-grid experiment table: every row is a
queryable record, every state transition is a short transaction.

Concurrency: connections run in WAL mode with a generous busy timeout;
claims are optimistic ``UPDATE ... WHERE status = 'pending'`` statements
whose rowcount decides who won, so any number of workers can share the
file without an external lock.

Schema versioning: the ``schema_meta`` table stores the version, and
:data:`MIGRATIONS` maps each version to the forward DDL producing it.
Opening a database applies every migration past its recorded version,
inside one exclusive transaction per step — from day one, so a v1 file
created by an older build upgrades in place (see ``docs/service.md``
for the policy and the full schema reference).
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
from pathlib import Path

from repro.errors import ServiceError
from repro.obs import wall_clock

#: Environment variable naming the results-database file.
DB_ENV_VAR = "MEGSIM_DB"

#: Default database path when ``MEGSIM_DB`` and ``--db`` are absent
#: (beside the default artifact store, see ``repro.store.DEFAULT_ROOT``).
DEFAULT_DB_PATH = Path.home() / ".cache" / "megsim" / "service.sqlite3"

#: Current schema version; fresh databases are created at this version
#: and older files are migrated forward on open.
SCHEMA_VERSION = 3

#: Forward migrations: version -> DDL statements producing it from the
#: previous version.  Append-only — never edit a shipped entry; add a
#: new version instead (``docs/service.md``, "Migration policy").
MIGRATIONS: dict[int, tuple[str, ...]] = {
    # v1: the initial schema — requests, fingerprint-keyed jobs, the
    # request↔job mapping, and one result row per completed request.
    1: (
        """
        CREATE TABLE schema_meta (
            version INTEGER NOT NULL
        )
        """,
        """
        CREATE TABLE requests (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            fingerprint TEXT NOT NULL,
            benchmark TEXT NOT NULL,
            scale REAL NOT NULL,
            seed INTEGER NOT NULL,
            request_json TEXT NOT NULL,
            status TEXT NOT NULL DEFAULT 'pending',
            submitted_at REAL NOT NULL,
            started_at REAL,
            finished_at REAL
        )
        """,
        """
        CREATE TABLE jobs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            fingerprint TEXT NOT NULL UNIQUE,
            stage TEXT NOT NULL,
            deps_json TEXT NOT NULL DEFAULT '[]',
            status TEXT NOT NULL DEFAULT 'pending',
            source TEXT NOT NULL DEFAULT 'computed',
            created_at REAL NOT NULL,
            started_at REAL,
            finished_at REAL,
            error TEXT
        )
        """,
        """
        CREATE TABLE request_jobs (
            request_id INTEGER NOT NULL REFERENCES requests(id),
            job_id INTEGER NOT NULL REFERENCES jobs(id),
            stage TEXT NOT NULL,
            PRIMARY KEY (request_id, job_id)
        )
        """,
        """
        CREATE TABLE results (
            request_id INTEGER PRIMARY KEY REFERENCES requests(id),
            metrics_json TEXT NOT NULL,
            recorded_at REAL NOT NULL
        )
        """,
    ),
    # v2: retry accounting on jobs, a failure reason on requests, plus
    # the status indexes the polling queries lean on.  Exercises the
    # migration machinery from day one: a v1 file (or a fresh file
    # stopped at v1 in tests) upgrades in place with its rows intact.
    2: (
        "ALTER TABLE jobs ADD COLUMN attempts INTEGER NOT NULL DEFAULT 0",
        "ALTER TABLE requests ADD COLUMN error TEXT",
        "CREATE INDEX idx_jobs_status ON jobs(status)",
        "CREATE INDEX idx_requests_status ON requests(status)",
        "CREATE INDEX idx_requests_fingerprint ON requests(fingerprint)",
    ),
    # v3: end-to-end tracing — each request records the trace id its
    # submission minted (stamped on every span the request's jobs run
    # under), and each result can point at the persisted span-tree
    # artifact ``megsim report`` renders.  Both nullable: rows written
    # by older builds simply have no trace.
    3: (
        "ALTER TABLE requests ADD COLUMN trace_id TEXT",
        "ALTER TABLE results ADD COLUMN trace_path TEXT",
    ),
}

#: The request lifecycle (``docs/service.md`` has the full machine).
REQUEST_STATUSES = ("pending", "running", "completed", "failed")

#: The job lifecycle.
JOB_STATUSES = ("pending", "running", "done", "failed")


# megsim: ambient(env, filesystem)
def resolve_db_path(value: str | os.PathLike | None = None) -> Path:
    """The results-database path: ``--db`` wins, else ``MEGSIM_DB``, else
    :data:`DEFAULT_DB_PATH`."""
    if value:
        return Path(value).expanduser()
    env = os.environ.get(DB_ENV_VAR, "").strip()
    if env:
        return Path(env).expanduser()
    return DEFAULT_DB_PATH


class ResultsDB:
    """One connection to the service database, migrated to the newest schema.

    Safe to open concurrently from any number of processes; every public
    method is a single short transaction.  Use as a context manager or
    call :meth:`close` explicitly.
    """

    def __init__(  # megsim: ambient(filesystem)
        self,
        path: str | os.PathLike | None = None,
        target_version: int = SCHEMA_VERSION,
    ) -> None:
        """Open (creating and migrating as needed) the database at ``path``.

        Args:
            path: database file; ``None`` resolves via
                :func:`resolve_db_path`.  Parent directories are created.
            target_version: migrate up to this schema version — the
                default is always right in production; tests use lower
                values to materialize historical schemas.
        """
        if target_version < 1 or target_version > SCHEMA_VERSION:
            raise ServiceError(
                f"cannot target schema version {target_version}; known "
                f"versions are 1..{SCHEMA_VERSION}"
            )
        self.path = resolve_db_path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self.migrate(target_version)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "ResultsDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- schema --------------------------------------------------------

    def schema_version(self) -> int:
        """The version recorded in ``schema_meta`` (0 for an empty file)."""
        row = self._conn.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'table' AND name = 'schema_meta'"
        ).fetchone()
        if row is None:
            return 0
        row = self._conn.execute("SELECT version FROM schema_meta").fetchone()
        return 0 if row is None else int(row["version"])

    def migrate(self, target_version: int = SCHEMA_VERSION) -> int:
        """Apply every migration past the recorded version; returns the
        number of migration steps applied.

        Each step runs in its own exclusive transaction: concurrent
        openers serialize, and a migration that fails rolls back whole.

        Raises:
            ServiceError: when the file is *newer* than this build
                understands (downgrades are not supported), or when
                :data:`MIGRATIONS` is not exactly versions
                ``1..SCHEMA_VERSION``.
        """
        if sorted(MIGRATIONS) != list(range(1, SCHEMA_VERSION + 1)):
            raise ServiceError(
                f"migration chain has versions {sorted(MIGRATIONS)}; "
                f"expected exactly 1..{SCHEMA_VERSION}"
            )
        applied = 0
        current = self.schema_version()
        if current > SCHEMA_VERSION:
            raise ServiceError(
                f"database {self.path} is at schema version {current}, "
                f"newer than this build's {SCHEMA_VERSION}; upgrade the "
                "code instead of downgrading the database"
            )
        for version in range(current + 1, target_version + 1):
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                # Another opener may have migrated while we waited.
                if self.schema_version() >= version:
                    self._conn.execute("ROLLBACK")
                    continue
                for statement in MIGRATIONS[version]:
                    self._conn.execute(statement)
                if version == 1:
                    self._conn.execute(
                        "INSERT INTO schema_meta (version) VALUES (1)"
                    )
                else:
                    self._conn.execute(
                        "UPDATE schema_meta SET version = ?", (version,)
                    )
                self._conn.execute("COMMIT")
                applied += 1
            except sqlite3.Error as exc:
                with contextlib.suppress(sqlite3.Error):
                    self._conn.execute("ROLLBACK")
                raise ServiceError(
                    f"migration to schema version {version} failed: {exc}"
                ) from exc
        return applied

    # -- requests ------------------------------------------------------

    def insert_request(
        self,
        fingerprint: str,
        benchmark: str,
        scale: float,
        seed: int,
        request_json: str,
        trace_id: str | None = None,
    ) -> int:
        """Record a new pending request; returns its id.

        ``trace_id`` names the trace every span recorded on this
        request's behalf will carry (see ``repro.obs.new_trace_id``);
        submissions from older callers may omit it.  The column is only
        named when a value is given, so inserts keep working against
        pre-v3 files materialized by tests.
        """
        columns = "fingerprint, benchmark, scale, seed, request_json, " \
                  "status, submitted_at"
        values = [fingerprint, benchmark, scale, seed, request_json,
                  "pending", wall_clock()]
        if trace_id is not None:
            columns += ", trace_id"
            values.append(trace_id)
        with self._conn:
            cursor = self._conn.execute(
                f"INSERT INTO requests ({columns}) "
                f"VALUES ({', '.join('?' for _ in values)})",
                values,
            )
        return int(cursor.lastrowid)

    def claim_request(self, request_id: int) -> bool:
        """Move one request ``pending -> running``; False if lost the race."""
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE requests SET status = 'running', started_at = ? "
                "WHERE id = ? AND status = 'pending'",
                (wall_clock(), request_id),
            )
        return cursor.rowcount == 1

    def finish_request(
        self, request_id: int, status: str, error: str | None = None
    ) -> None:
        """Terminal transition: ``running -> completed | failed``."""
        if status not in ("completed", "failed"):
            raise ServiceError(
                f"terminal request status must be completed/failed, "
                f"got {status!r}"
            )
        with self._conn:
            self._conn.execute(
                "UPDATE requests SET status = ?, finished_at = ?, error = ? "
                "WHERE id = ?",
                (status, wall_clock(), error, request_id),
            )

    def pending_requests(self, limit: int = 64) -> list[sqlite3.Row]:
        """Oldest pending requests, up to ``limit``."""
        return self._conn.execute(
            "SELECT * FROM requests WHERE status = 'pending' "
            "ORDER BY id LIMIT ?",
            (limit,),
        ).fetchall()

    def request(self, request_id: int) -> sqlite3.Row | None:
        """One request row by id, or ``None``."""
        return self._conn.execute(
            "SELECT * FROM requests WHERE id = ?", (request_id,)
        ).fetchone()

    def requests_by_status(self, *statuses: str) -> list[sqlite3.Row]:
        """Every request in any of ``statuses``, oldest first."""
        marks = ",".join("?" for _ in statuses)
        return self._conn.execute(
            f"SELECT * FROM requests WHERE status IN ({marks}) ORDER BY id",
            statuses,
        ).fetchall()

    # -- jobs ----------------------------------------------------------

    def upsert_job(
        self,
        fingerprint: str,
        stage: str,
        deps: list[str],
        status: str = "pending",
        source: str = "computed",
    ) -> tuple[int, bool]:
        """Insert a job unless its fingerprint already exists.

        Returns ``(job_id, created)`` — ``created`` is False when an
        identical job row (same fingerprint, however submitted) already
        existed, which is exactly the in-flight/already-done dedup.
        """
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO jobs (fingerprint, stage, deps_json, status, "
                " source, created_at, finished_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(fingerprint) DO NOTHING",
                (fingerprint, stage, json.dumps(deps), status, source,
                 wall_clock(),
                 wall_clock() if status == "done" else None),
            )
            created = cursor.rowcount == 1
            row = self._conn.execute(
                "SELECT id FROM jobs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return int(row["id"]), created

    def link_request_job(self, request_id: int, job_id: int, stage: str) -> None:
        """Attach a job to a request (idempotent)."""
        with self._conn:
            self._conn.execute(
                "INSERT INTO request_jobs (request_id, job_id, stage) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(request_id, job_id) DO NOTHING",
                (request_id, job_id, stage),
            )

    def job(self, job_id: int) -> sqlite3.Row | None:
        """One job row by id, or ``None``."""
        return self._conn.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()

    def job_by_fingerprint(self, fingerprint: str) -> sqlite3.Row | None:
        """One job row by stage fingerprint, or ``None``."""
        return self._conn.execute(
            "SELECT * FROM jobs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()

    def ready_jobs(self, limit: int = 256) -> list[sqlite3.Row]:
        """Pending jobs whose upstream jobs are all done.

        Readiness is decided against the jobs table itself: a dependency
        fingerprint with no job row cannot become done, so its dependents
        simply never surface here (the scheduler always inserts whole
        closures, making that state unreachable in practice).
        """
        pending = self._conn.execute(
            "SELECT * FROM jobs WHERE status = 'pending' ORDER BY id LIMIT ?",
            (limit,),
        ).fetchall()
        if not pending:
            return []
        done = {
            row["fingerprint"]
            for row in self._conn.execute(
                "SELECT fingerprint FROM jobs WHERE status = 'done'"
            )
        }
        return [
            row for row in pending
            if all(dep in done for dep in json.loads(row["deps_json"]))
        ]

    def claim_job(self, job_id: int) -> bool:
        """Move one job ``pending -> running``; False if lost the race."""
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET status = 'running', started_at = ?, "
                " attempts = attempts + 1 "
                "WHERE id = ? AND status = 'pending'",
                (wall_clock(), job_id),
            )
        return cursor.rowcount == 1

    def finish_job(self, job_id: int, error: str | None = None) -> None:
        """Terminal transition: ``running -> done`` (or ``failed``)."""
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET status = ?, finished_at = ?, error = ? "
                "WHERE id = ?",
                ("failed" if error else "done", wall_clock(), error, job_id),
            )

    def retry_job(self, job_id: int) -> bool:
        """Re-queue a failed job (``failed -> pending``, error cleared)."""
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET status = 'pending', error = NULL, "
                " started_at = NULL, finished_at = NULL "
                "WHERE id = ? AND status = 'failed'",
                (job_id,),
            )
        return cursor.rowcount == 1

    def recover_running_jobs(self) -> int:
        """Re-queue jobs stranded ``running`` by a dead dispatcher.

        The service runs a single dispatcher per database (see
        ``docs/service.md``); on startup anything still marked running
        must be an orphan of a crashed predecessor.
        """
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE jobs SET status = 'pending', started_at = NULL "
                "WHERE status = 'running'"
            )
        return cursor.rowcount

    def job_request_json(self, job_id: int) -> str | None:
        """The request document of *some* request linked to a job.

        Any linked request works: the link was created from a matching
        stage fingerprint, which covers the stage's entire input cone —
        every linked request materializes the byte-identical artifact.
        """
        row = self._conn.execute(
            "SELECT requests.request_json FROM requests "
            "JOIN request_jobs ON request_jobs.request_id = requests.id "
            "WHERE request_jobs.job_id = ? ORDER BY requests.id LIMIT 1",
            (job_id,),
        ).fetchone()
        return None if row is None else str(row["request_json"])

    def job_request_row(self, job_id: int) -> sqlite3.Row | None:
        """The full row of *some* request linked to a job.

        Same first-linked-request rule as :meth:`job_request_json`; used
        by the dispatcher to stamp a job's spans with the request id and
        trace id it runs on behalf of.
        """
        return self._conn.execute(
            "SELECT requests.* FROM requests "
            "JOIN request_jobs ON request_jobs.request_id = requests.id "
            "WHERE request_jobs.job_id = ? ORDER BY requests.id LIMIT 1",
            (job_id,),
        ).fetchone()

    def jobs_for_request(self, request_id: int) -> list[sqlite3.Row]:
        """Every job linked to a request, in stage-graph insertion order."""
        return self._conn.execute(
            "SELECT jobs.* FROM jobs "
            "JOIN request_jobs ON request_jobs.job_id = jobs.id "
            "WHERE request_jobs.request_id = ? ORDER BY jobs.id",
            (request_id,),
        ).fetchall()

    # -- results -------------------------------------------------------

    def record_result(
        self,
        request_id: int,
        metrics: dict,
        trace_path: str | None = None,
    ) -> None:
        """Store (or replace) the metrics document of a completed request.

        ``trace_path`` points at the persisted ``megsim-trace`` span-tree
        artifact of the serve pass that completed the request (rendered
        by ``megsim report``), when one was written.  As with
        ``insert_request``, the column is only named when a value is
        given, so pre-v3 files stay writable.
        """
        if trace_path is None:
            statement = (
                "INSERT INTO results (request_id, metrics_json, recorded_at) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT(request_id) DO UPDATE SET "
                " metrics_json = excluded.metrics_json, "
                " recorded_at = excluded.recorded_at"
            )
            values = (request_id, json.dumps(metrics, sort_keys=True),
                      wall_clock())
        else:
            statement = (
                "INSERT INTO results "
                "(request_id, metrics_json, recorded_at, trace_path) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(request_id) DO UPDATE SET "
                " metrics_json = excluded.metrics_json, "
                " recorded_at = excluded.recorded_at, "
                " trace_path = excluded.trace_path"
            )
            values = (request_id, json.dumps(metrics, sort_keys=True),
                      wall_clock(), trace_path)
        with self._conn:
            self._conn.execute(statement, values)

    def result(self, request_id: int) -> dict | None:
        """The metrics document of one request, or ``None``."""
        row = self._conn.execute(
            "SELECT metrics_json FROM results WHERE request_id = ?",
            (request_id,),
        ).fetchone()
        return None if row is None else json.loads(row["metrics_json"])

    def runs(
        self,
        benchmark: str | None = None,
        status: str | None = None,
        limit: int = 50,
    ) -> list[dict]:
        """Joined request + result rows, newest first — ``megsim runs``."""
        clauses, params = [], []
        if benchmark is not None:
            clauses.append("requests.benchmark = ?")
            params.append(benchmark)
        if status is not None:
            clauses.append("requests.status = ?")
            params.append(status)
        where = ("WHERE " + " AND ".join(clauses)) if clauses else ""
        rows = self._conn.execute(
            "SELECT requests.*, results.metrics_json, results.recorded_at, "
            " results.trace_path "
            "FROM requests LEFT JOIN results "
            " ON results.request_id = requests.id "
            f"{where} ORDER BY requests.id DESC LIMIT ?",
            (*params, limit),
        ).fetchall()
        out = []
        for row in rows:
            entry = {key: row[key] for key in row.keys()
                     if key not in ("metrics_json", "request_json")}
            entry["metrics"] = (
                json.loads(row["metrics_json"])
                if row["metrics_json"] is not None else None
            )
            out.append(entry)
        return out

    # -- summaries -----------------------------------------------------

    def dedup_stats(self) -> dict:
        """How much work the scheduler's dedup machinery avoided.

        Returns job tallies grouped by provenance (``sources``: the
        ``source`` column crossed with status — ``store`` rows were
        adopted from the artifact store without running) and the
        link-sharing view (``links`` request↔job edges over ``jobs``
        distinct jobs; ``shared_jobs`` counts jobs serving more than one
        request — each extra link is one execution dedup saved).
        """
        sources: dict[str, dict[str, int]] = {}
        for row in self._conn.execute(
            "SELECT source, status, COUNT(*) AS n FROM jobs "
            "GROUP BY source, status ORDER BY source, status"
        ):
            sources.setdefault(str(row["source"]), {})[str(row["status"])] = (
                int(row["n"])
            )
        links = self._conn.execute(
            "SELECT COUNT(*) AS n FROM request_jobs"
        ).fetchone()
        jobs = self._conn.execute("SELECT COUNT(*) AS n FROM jobs").fetchone()
        shared = self._conn.execute(
            "SELECT COUNT(*) AS n FROM ("
            " SELECT job_id FROM request_jobs "
            " GROUP BY job_id HAVING COUNT(*) > 1)"
        ).fetchone()
        return {
            "sources": sources,
            "links": int(links["n"]),
            "jobs": int(jobs["n"]),
            "shared_jobs": int(shared["n"]),
        }

    def counts(self) -> dict:
        """Request/job tallies by status plus totals — ``megsim status``."""
        summary = {
            "requests": {status: 0 for status in REQUEST_STATUSES},
            "jobs": {status: 0 for status in JOB_STATUSES},
            "results": 0,
        }
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM requests GROUP BY status"
        ):
            summary["requests"][row["status"]] = int(row["n"])
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
        ):
            summary["jobs"][row["status"]] = int(row["n"])
        row = self._conn.execute("SELECT COUNT(*) AS n FROM results").fetchone()
        summary["results"] = int(row["n"])
        return summary

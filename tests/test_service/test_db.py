"""ResultsDB: schema creation, migrations, transitions, concurrency."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.service.db import (
    MIGRATIONS,
    SCHEMA_VERSION,
    ResultsDB,
    resolve_db_path,
)


def test_fresh_database_is_created_at_current_version(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        assert db.schema_version() == SCHEMA_VERSION


def test_fresh_database_has_all_tables(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        tables = {
            row["name"]
            for row in db._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    assert {"schema_meta", "requests", "jobs", "request_jobs",
            "results"} <= tables


def test_migrations_cover_every_version():
    assert sorted(MIGRATIONS) == list(range(1, SCHEMA_VERSION + 1))


def test_migration_chain_gap_is_rejected(tmp_path, monkeypatch):
    """A missing version fails the open with ServiceError before any
    transaction starts, instead of a bare KeyError mid-transaction."""
    gapped = {v: s for v, s in MIGRATIONS.items() if v != 2}
    monkeypatch.setattr("repro.service.db.MIGRATIONS", gapped)
    path = tmp_path / "svc.sqlite3"
    with pytest.raises(ServiceError, match="migration chain"):
        ResultsDB(path)
    monkeypatch.undo()
    with ResultsDB(path) as db:  # nothing half-applied is left behind
        assert db.schema_version() == SCHEMA_VERSION


def test_v1_to_v2_migration_preserves_rows(tmp_path):
    """The round-trip the migration policy promises: a v1 file upgrades
    in place with its rows intact and gains the v2 columns."""
    path = tmp_path / "svc.sqlite3"
    with ResultsDB(path, target_version=1) as db:
        assert db.schema_version() == 1
        request_id = db.insert_request("fp-req", "bbr1", 0.05, 1234, "{}")
        job_id, created = db.upsert_job("fp-job", "trace", deps=[])
        assert created
        db.link_request_job(request_id, job_id, "trace")
        # v1 has no attempts column yet.
        columns = {
            row["name"]
            for row in db._conn.execute("PRAGMA table_info(jobs)")
        }
        assert "attempts" not in columns

    with ResultsDB(path) as db:
        assert db.schema_version() == SCHEMA_VERSION
        row = db.request(request_id)
        assert row["benchmark"] == "bbr1"
        assert row["fingerprint"] == "fp-req"
        job = db.job(job_id)
        assert job["stage"] == "trace"
        assert job["attempts"] == 0  # the v2 column, with its default
        assert db.claim_job(job_id)
        assert db.job(job_id)["attempts"] == 1


def test_v2_to_v3_migration_preserves_rows(tmp_path):
    """A v2 file (pre-trace build) upgrades in place: rows intact, the
    trace columns appear NULL, and new writes may fill them."""
    path = tmp_path / "svc.sqlite3"
    with ResultsDB(path, target_version=2) as db:
        assert db.schema_version() == 2
        request_id = db.insert_request("fp-req", "bbr1", 0.05, 1234, "{}")
        db.claim_request(request_id)
        db.record_result(request_id, {"relative_errors": {}})
        db.finish_request(request_id, "completed")
        columns = {
            row["name"]
            for row in db._conn.execute("PRAGMA table_info(requests)")
        }
        assert "trace_id" not in columns

    with ResultsDB(path) as db:
        assert db.schema_version() == SCHEMA_VERSION
        row = db.request(request_id)
        assert row["benchmark"] == "bbr1"
        assert row["trace_id"] is None  # the v3 column, unfilled
        (run,) = db.runs()
        assert run["trace_path"] is None
        # New writes can use the migrated columns.
        second = db.insert_request("fp2", "hwh", 0.1, 1, "{}",
                                   trace_id="abcd" * 4)
        db.claim_request(second)
        db.record_result(second, {}, trace_path="/tmp/t.jsonl")
        db.finish_request(second, "completed")
        assert db.request(second)["trace_id"] == "abcd" * 4
        assert db.runs(benchmark="hwh")[0]["trace_path"] == "/tmp/t.jsonl"


def test_pre_v3_files_stay_writable_without_trace_values(tmp_path):
    """Writers that omit trace values never name the v3 columns, so a
    file pinned at an older schema accepts them unchanged."""
    with ResultsDB(tmp_path / "svc.sqlite3", target_version=1) as db:
        request_id = db.insert_request("fp", "asp", 0.1, 1, "{}")
        assert db.request(request_id)["benchmark"] == "asp"
    with ResultsDB(tmp_path / "v2.sqlite3", target_version=2) as db:
        request_id = db.insert_request("fp", "asp", 0.1, 1, "{}")
        db.claim_request(request_id)
        db.record_result(request_id, {"ok": True})
        assert db.result(request_id) == {"ok": True}


def test_job_request_row_picks_the_first_linked_request(tmp_path):
    """A shared job borrows its identity from the first request that
    linked it — lowest request id wins, deterministically."""
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        first = db.insert_request("fp-a", "bbr1", 0.1, 1, "{}",
                                  trace_id="aaaa")
        second = db.insert_request("fp-b", "bbr1", 0.1, 1, "{}",
                                   trace_id="bbbb")
        job_id, _ = db.upsert_job("fp-job", "trace", deps=[])
        db.link_request_job(second, job_id, "trace")
        db.link_request_job(first, job_id, "trace")
        row = db.job_request_row(job_id)
        assert row["id"] == first
        assert row["trace_id"] == "aaaa"
        assert db.job_request_row(job_id + 999) is None


def test_dedup_stats_summarizes_sources_and_sharing(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        first = db.insert_request("fp-a", "bbr1", 0.1, 1, "{}")
        second = db.insert_request("fp-b", "bbr1", 0.1, 1, "{}")
        shared, _ = db.upsert_job("fp-shared", "trace", deps=[],
                                  status="done")
        private, _ = db.upsert_job("fp-private", "profile", deps=[])
        adopted, _ = db.upsert_job("fp-store", "plan", deps=[],
                                   status="done", source="store")
        db.link_request_job(first, shared, "trace")
        db.link_request_job(second, shared, "trace")
        db.link_request_job(first, private, "profile")
        stats = db.dedup_stats()
    assert stats["sources"]["computed"]["done"] == 1
    assert stats["sources"]["computed"]["pending"] == 1
    assert stats["sources"]["store"]["done"] == 1
    assert stats["jobs"] == 3
    assert stats["links"] == 3
    assert stats["shared_jobs"] == 1


def test_migration_is_idempotent_across_reopens(tmp_path):
    path = tmp_path / "svc.sqlite3"
    with ResultsDB(path) as db:
        assert db.migrate() == 0  # nothing left to apply
    with ResultsDB(path) as db:
        assert db.schema_version() == SCHEMA_VERSION


def test_newer_schema_is_rejected(tmp_path):
    path = tmp_path / "svc.sqlite3"
    with ResultsDB(path) as db:
        db._conn.execute("UPDATE schema_meta SET version = ?",
                         (SCHEMA_VERSION + 1,))
        db._conn.commit()
    with pytest.raises(ServiceError, match="newer"):
        ResultsDB(path)


def test_invalid_target_version_is_rejected(tmp_path):
    with pytest.raises(ServiceError, match="cannot target"):
        ResultsDB(tmp_path / "svc.sqlite3", target_version=0)


def test_request_lifecycle(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        request_id = db.insert_request("fp", "hwh", 0.1, 1234, "{}")
        assert db.request(request_id)["status"] == "pending"
        assert db.claim_request(request_id)
        assert not db.claim_request(request_id)  # already running
        db.finish_request(request_id, "completed")
        row = db.request(request_id)
        assert row["status"] == "completed"
        assert row["finished_at"] is not None


def test_finish_request_rejects_non_terminal_status(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        request_id = db.insert_request("fp", "hwh", 0.1, 1234, "{}")
        with pytest.raises(ServiceError, match="terminal"):
            db.finish_request(request_id, "running")


def test_job_upsert_dedupes_on_fingerprint(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        first_id, created = db.upsert_job("fp", "trace", deps=[])
        assert created
        second_id, created = db.upsert_job("fp", "trace", deps=[])
        assert not created
        assert first_id == second_id


def test_ready_jobs_respect_dependencies(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        upstream, _ = db.upsert_job("fp-up", "trace", deps=[])
        downstream, _ = db.upsert_job("fp-down", "profile", deps=["fp-up"])
        ready = {row["id"] for row in db.ready_jobs()}
        assert ready == {upstream}

        assert db.claim_job(upstream)
        db.finish_job(upstream)
        ready = {row["id"] for row in db.ready_jobs()}
        assert ready == {downstream}


def test_failed_job_records_error_and_retries(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        job_id, _ = db.upsert_job("fp", "trace", deps=[])
        assert db.claim_job(job_id)
        db.finish_job(job_id, error="TraceError: boom")
        row = db.job(job_id)
        assert row["status"] == "failed"
        assert "boom" in row["error"]

        assert db.retry_job(job_id)
        row = db.job(job_id)
        assert row["status"] == "pending"
        assert row["error"] is None
        assert not db.retry_job(job_id)  # only failed jobs retry


def test_recover_running_jobs(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        job_id, _ = db.upsert_job("fp", "trace", deps=[])
        assert db.claim_job(job_id)
        assert db.recover_running_jobs() == 1
        assert db.job(job_id)["status"] == "pending"


def test_results_upsert_and_runs_join(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        request_id = db.insert_request("fp", "asp", 0.1, 1234, "{}")
        db.claim_request(request_id)
        db.record_result(request_id, {"relative_errors": {"cycles": 0.01}})
        db.finish_request(request_id, "completed")
        db.record_result(request_id, {"relative_errors": {"cycles": 0.02}})

        assert db.result(request_id)["relative_errors"]["cycles"] == 0.02
        runs = db.runs(benchmark="asp")
        assert len(runs) == 1
        assert runs[0]["metrics"]["relative_errors"]["cycles"] == 0.02
        assert "request_json" not in runs[0]
        assert db.runs(benchmark="hwh") == []
        assert db.runs(status="failed") == []


def test_counts_summary(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        db.insert_request("fp1", "asp", 0.1, 1234, "{}")
        request_id = db.insert_request("fp2", "hwh", 0.1, 1234, "{}")
        db.claim_request(request_id)
        db.upsert_job("fp-a", "trace", deps=[])
        done_id, _ = db.upsert_job("fp-b", "trace", deps=[], status="done")
        summary = db.counts()
    assert summary["requests"]["pending"] == 1
    assert summary["requests"]["running"] == 1
    assert summary["jobs"]["pending"] == 1
    assert summary["jobs"]["done"] == 1
    assert summary["results"] == 0


def test_concurrent_writers_record_all_results(tmp_path):
    """Two workers (separate connections, concurrent threads) write job
    transitions into one database without losing updates — the WAL +
    busy-timeout + short-transaction design in action."""
    path = tmp_path / "svc.sqlite3"
    jobs_per_writer = 25
    with ResultsDB(path) as db:
        ids = {
            writer: [
                db.upsert_job(f"fp-{writer}-{n}", "trace", deps=[])[0]
                for n in range(jobs_per_writer)
            ]
            for writer in ("a", "b")
        }

    failures: list[Exception] = []

    def worker(writer: str) -> None:
        try:
            with ResultsDB(path) as db:
                for job_id in ids[writer]:
                    assert db.claim_job(job_id)
                    db.finish_job(job_id)
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(writer,)) for writer in ids
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert failures == []
    with ResultsDB(path) as db:
        summary = db.counts()
        assert summary["jobs"]["done"] == 2 * jobs_per_writer
        assert all(
            db.job(job_id)["attempts"] == 1
            for writer_ids in ids.values() for job_id in writer_ids
        )


def test_concurrent_claims_hand_out_each_job_once(tmp_path):
    """Optimistic claiming: racing claimers never both win one job."""
    path = tmp_path / "svc.sqlite3"
    with ResultsDB(path) as db:
        job_ids = [
            db.upsert_job(f"fp-{n}", "trace", deps=[])[0] for n in range(30)
        ]

    wins: dict[str, list[int]] = {"a": [], "b": []}
    failures: list[Exception] = []

    def claimer(name: str) -> None:
        try:
            with ResultsDB(path) as db:
                for job_id in job_ids:
                    if db.claim_job(job_id):
                        wins[name].append(job_id)
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=claimer, args=(name,)) for name in wins
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert failures == []
    assert sorted(wins["a"] + wins["b"]) == job_ids
    assert not set(wins["a"]) & set(wins["b"])


def test_resolve_db_path_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("MEGSIM_DB", raising=False)
    assert resolve_db_path("x.sqlite3").name == "x.sqlite3"
    monkeypatch.setenv("MEGSIM_DB", str(tmp_path / "env.sqlite3"))
    assert resolve_db_path() == tmp_path / "env.sqlite3"
    assert resolve_db_path(tmp_path / "flag.sqlite3").name == "flag.sqlite3"
    monkeypatch.delenv("MEGSIM_DB")
    assert resolve_db_path().name == "service.sqlite3"


def test_wal_mode_is_active(tmp_path):
    with ResultsDB(tmp_path / "svc.sqlite3") as db:
        row = db._conn.execute("PRAGMA journal_mode").fetchone()
        assert row[0] == "wal"

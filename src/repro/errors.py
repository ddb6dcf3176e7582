"""Exception hierarchy for the MEGsim reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class at an API boundary.  Errors are raised eagerly with
actionable messages instead of returning sentinel values.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid simulator or methodology configuration was supplied."""


class TraceError(ReproError):
    """A workload trace is malformed or inconsistent."""


class GeometryError(ReproError, ZeroDivisionError):
    """A geometric operation is undefined for its input.

    Also derives from :class:`ZeroDivisionError` because the canonical
    instance — normalizing a zero-length vector — historically raised
    that builtin; existing ``except ZeroDivisionError`` callers keep
    working while new code catches :class:`ReproError`.
    """


class SimulationError(ReproError):
    """The functional or cycle-accurate simulator reached an invalid state."""


class ClusteringError(ReproError):
    """Clustering could not be performed (bad shapes, empty data, k > N...)."""


class AnalysisError(ReproError):
    """An experiment or analysis step received inconsistent inputs."""


class BenchError(ReproError):
    """A benchmark's result breaks one of its spec's paper-shape claims."""


class ServiceError(ReproError):
    """The experiment service was misused or its database is unusable.

    Raised for schema downgrades, malformed submissions and invalid
    lifecycle transitions; transient job failures are *not* reported
    through this error — they are recorded on the job row and surfaced
    by ``megsim status``.
    """


class ReportError(ReproError):
    """Report generation received unusable inputs.

    Raised for malformed bench artifacts, an unreadable results
    database, or a ``--run`` selector naming a request without a
    persisted trace; missing *optional* inputs (no artifacts yet, no
    database yet) are not errors — the report renders the sections it
    has data for.
    """


class StoreError(ReproError):
    """The artifact store was misused or its on-disk state is unusable.

    Corruption of individual artifacts is *not* reported through this
    error: a failed hash check makes the store drop the artifact and
    report a miss, so callers transparently recompute.
    """

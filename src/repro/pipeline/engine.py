"""Stage execution against the artifact store.

:func:`materialize_stage` is the one executor: it produces one stage's
artifact, trying the store before computing and recursing into upstream
stages only on a miss.  A stage whose fingerprint is already present —
put there by an earlier call, another process, or a service worker — is
decoded instead of recomputed, so a warm store never touches the stages
upstream of a hit.  Each stage runs under a ``pipeline.<name>`` span
and reports ``pipeline.hits.<name>`` / ``pipeline.computed.<name>``
counters, so a trace shows exactly which work a warm store absorbed.

:func:`run_pipeline` pulls every stored stage through that executor,
sharing one artifact dict, so a derived stage (the trace) is computed at
most once per call and not at all when its consumers all hit.  The
experiment service (:mod:`repro.service`) calls :func:`materialize_stage`
once per job, which lets one evaluation be sharded into fingerprint-keyed
jobs executed by independent workers sharing a store.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigError
from repro.obs import counter, span
from repro.pipeline.request import PipelineRequest
from repro.pipeline.stages import STAGES, stage_fingerprints
from repro.store import ArtifactStore

_BY_NAME = {stage.name: stage for stage in STAGES}


def run_pipeline(
    request: PipelineRequest,
    store: ArtifactStore | None = None,
    fingerprints: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Produce every stored stage artifact for ``request``.

    Args:
        request: the resolved evaluation inputs.
        store: artifact store to read/write; ``None`` recomputes
            everything (the ``use_cache=False`` path).
        fingerprints: precomputed :func:`stage_fingerprints` output, to
            avoid hashing twice when the caller already has it.

    Returns:
        ``stage name -> artifact`` for the five stored stages (the
        derived trace is not returned; materialize it explicitly).
    """
    fps = fingerprints if fingerprints is not None else stage_fingerprints(request)
    artifacts: dict[str, Any] = {}
    return {
        stage.name: materialize_stage(
            request, stage.name, store=store, fingerprints=fps,
            _artifacts=artifacts,
        )
        for stage in STAGES
        if stage.stored
    }


def materialize_stage(
    request: PipelineRequest,
    name: str,
    store: ArtifactStore | None = None,
    fingerprints: dict[str, str] | None = None,
    _artifacts: dict[str, Any] | None = None,
) -> Any:
    """Produce exactly one stage's artifact, recursing only on misses.

    The store is consulted first; a hit returns without touching any
    upstream stage.  On a miss the required upstream artifacts are
    materialized the same way (recursively), the stage is computed, and
    the result is put back — to both tiers for a stored stage, to the
    memory tier only for a derived one.  Recursively materialized
    upstreams nest under the requesting stage's ``pipeline.<name>`` span.

    Args:
        request: the resolved evaluation inputs.
        name: the stage to produce (a :data:`STAGES` name).
        store: artifact store to read/write; ``None`` recomputes.
        fingerprints: precomputed :func:`stage_fingerprints` output.

    Returns:
        The stage's artifact.

    Raises:
        ConfigError: on an unknown stage name.
    """
    if name not in _BY_NAME:
        raise ConfigError(
            f"unknown pipeline stage {name!r}; expected one of "
            f"{', '.join(_BY_NAME)}"
        )
    stage = _BY_NAME[name]
    fps = fingerprints if fingerprints is not None else stage_fingerprints(request)
    artifacts = _artifacts if _artifacts is not None else {}
    if name in artifacts:
        return artifacts[name]
    fp = fps[name]
    with span(
        f"pipeline.{name}", benchmark=request.alias, fingerprint=fp[:12]
    ):
        obj = None
        if store is not None:
            obj = store.get(stage.kind, fp, decode=stage.decode)
        if obj is None:
            for upstream in stage.requires:
                materialize_stage(
                    request, upstream, store=store,
                    fingerprints=fps, _artifacts=artifacts,
                )
            obj = stage.compute(request, artifacts)
            counter(f"pipeline.computed.{name}")
            if store is not None:
                store.put(stage.kind, fp, obj, encode=stage.encode)
        else:
            counter(f"pipeline.hits.{name}")
    artifacts[name] = obj
    return obj

"""The fully resolved input of one end-to-end evaluation.

A :class:`PipelineRequest` pins down everything the six stages depend
on: the workload (a registry key or replay capture, resolved to a
:class:`~repro.workloads.base.WorkloadRef`), the sequence-length scale,
the MEGsim knobs and the GPU configuration.  ``None`` defaults are
resolved at construction (:meth:`PipelineRequest.create`), so a request
built with explicit paper defaults and one built with ``None``
fingerprint — and therefore cache — identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sampler import MEGsimOptions
from repro.gpu.config import GPUConfig, default_config
from repro.workloads.base import WorkloadRef
from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class PipelineRequest:
    """Immutable description of one evaluation the pipeline can run.

    ``workload`` stays ``None`` for the eight Table II synthetic
    benchmarks — the alias alone identifies them, exactly as before the
    registry existed, so their stage fingerprints (and every stored
    artifact keyed on them) are byte-identical to pre-registry runs.
    Scripted and replay workloads carry an explicit ref, which the trace
    stage folds into its fingerprint.
    """

    alias: str
    scale: float
    options: MEGsimOptions
    config: GPUConfig
    workload: WorkloadRef | None = None

    @classmethod
    def create(
        cls,
        alias: str,
        scale: float = 1.0,
        options: MEGsimOptions | None = None,
        config: GPUConfig | None = None,
        workload: WorkloadRef | None = None,
    ) -> "PipelineRequest":
        """Build a request, resolving ``None`` to the paper defaults.

        ``alias`` accepts any workload registry key: synthetic aliases
        pass through with ``workload=None``; scripted and replay keys
        resolve through the registry into a :class:`WorkloadRef`
        (raising :class:`~repro.errors.ConfigError`, with the full key
        list, for unknown keys).  An explicit ``workload`` ref skips
        resolution — used when rebuilding a request from a serialized
        document whose capture may not be registered in this process.
        """
        if workload is None and alias not in BENCHMARKS:
            workload = get_workload(alias).ref()
        return cls(
            alias=alias,
            scale=float(scale),
            options=options if options is not None else MEGsimOptions(),
            config=config if config is not None else default_config(),
            workload=workload,
        )

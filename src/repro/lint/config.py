"""Lint configuration: this repository's layout and invariants, in code.

There is one configuration source — the constants below — so
``python -m repro.lint`` lints a bare checkout exactly as CI does.
:class:`LintConfig` keeps only the project root plus the few knobs the
rule fixture tests override.  All paths are relative to the project
root with POSIX separators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

#: Directories/files whose Python sources are linted.
PATHS: tuple[str, ...] = ("src/repro",)

#: The directory that maps to the ``repro`` package (names components
#: and modules).
PACKAGE_ROOT = "src/repro"

#: Subtrees where unseeded randomness is banned (MEG001).
DETERMINISM_PATHS: tuple[str, ...] = (
    "src/repro/core",
    "src/repro/gpu",
    "src/repro/scene",
    "src/repro/workloads",
)

#: Subtrees exempt from the wall-clock ban (MEG002).
WALLCLOCK_ALLOWED: tuple[str, ...] = ("src/repro/obs",)

#: Markdown locations checked by the doc rules (MEG007).
DOCS_PATHS: tuple[str, ...] = ("docs", "README.md")

#: The API reference every export and CLI surface must mention.
API_DOC = "docs/api.md"

#: The argparse CLI source checked by MEG008.
CLI_MODULE = "src/repro/cli.py"

#: Subtrees blanket-declared ambient for *all* effect kinds (the obs
#: layer: every sink touches collector state and the clock by design).
AMBIENT_PATHS: tuple[str, ...] = ("src/repro/obs",)

#: Subtrees whose filesystem access is sanctioned (the content-addressed
#: store — "filesystem access outside ``repro.store``" is the MEG010
#: wording).
STORE_PATHS: tuple[str, ...] = ("src/repro/store",)

#: The pipeline stage table MEG010 walks.
STAGES_MODULE = "src/repro/pipeline/stages.py"

#: Canonical dotted names of functions that ship their callable
#: argument to worker processes (MEG012).
WORKER_ENTRYPOINTS: tuple[str, ...] = ("repro.parallel.pool.parallel_map",)

#: Layer of each top-level component of ``repro``.  A component may
#: import components at the same or a lower level; importing a *higher*
#: level is a back-edge (MEG003).  ``errors`` and ``version`` sit at the
#: bottom and ``obs`` just above them, which is what makes both
#: importable from everywhere else.  ``store`` sits below
#: ``gpu``/``core``/``analysis`` on purpose: the artifact store must stay
#: ignorant of simulator internals (it only handles the encode/decode
#: hooks callers pass in), so any ``repro.store`` -> ``repro.gpu`` import
#: is a lint failure.  ``pipeline`` sits with ``core``, above the
#: simulators it orchestrates; ``service`` and ``report`` sit with the
#: entry points, composing the pipeline, store, pool and analysis.
DEFAULT_LAYERS: dict[str, int] = {
    "errors": 0,
    "version": 0,
    "obs": 1,
    "scene": 2,
    "store": 2,
    "workloads": 3,
    "gpu": 3,
    "core": 4,
    "pipeline": 4,
    "parallel": 5,
    "analysis": 5,
    "bench": 6,
    "lint": 6,
    "service": 6,
    "report": 6,
    "cli": 6,
    "__main__": 7,
    "__init__": 7,
}

#: Dotted module -> ``__init__`` path whose ``__all__`` must be covered
#: by :data:`API_DOC` (MEG007).
PUBLIC_MODULES: dict[str, str] = {
    "repro": "src/repro/__init__.py",
    "repro.obs": "src/repro/obs/__init__.py",
    "repro.store": "src/repro/store/__init__.py",
    "repro.pipeline": "src/repro/pipeline/__init__.py",
    "repro.workloads": "src/repro/workloads/__init__.py",
    "repro.parallel": "src/repro/parallel/__init__.py",
    "repro.bench": "src/repro/bench/__init__.py",
    "repro.lint": "src/repro/lint/__init__.py",
    "repro.service": "src/repro/service/__init__.py",
    "repro.report": "src/repro/report/__init__.py",
}


@dataclass
class LintConfig:
    """The lint configuration for one project root.

    Attributes:
        root: project root (resolved to an absolute path); all other
            paths are relative to it.
        layers: component name -> layer level (see :data:`DEFAULT_LAYERS`).
        public_modules: see :data:`PUBLIC_MODULES`.
        raise_allowed: builtin exception names that MEG005 tolerates.
    """

    root: Path
    layers: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LAYERS))
    public_modules: dict[str, str] = field(
        default_factory=lambda: dict(PUBLIC_MODULES)
    )
    raise_allowed: tuple[str, ...] = ("NotImplementedError",)

    def __post_init__(self) -> None:
        self.root = Path(self.root).resolve()

"""The flow-analysis consumer rules: MEG010, MEG011, MEG012.

These are project-level rules (not per-file visitors): each asks the
shared :class:`~repro.lint.flow.analysis.FlowAnalysis` — built at most
once per lint run — a different question about the same summaries.

* :class:`CachePurityRule` (MEG010) proves the store's core contract:
  a stage fingerprint captures *every* input of its ``compute`` cone,
  so fingerprint equality really does imply output equality.
* :class:`DeclaredAmbientRule` (MEG011) keeps the escape hatch honest:
  every ``# megsim: ambient(...)`` pragma must attach to a real
  function, use known effect kinds, and match an effect that is
  actually reachable — a stale declaration is a finding, not a free
  pass.
* :class:`WorkerBoundaryRule` (MEG012) is the static race detector for
  the process pool: anything shipped through a worker entrypoint must
  be a top-level (picklable) function whose cone is ambient-clean.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import PACKAGE_ROOT, STAGES_MODULE
from repro.lint.findings import Finding
from repro.lint.flow.analysis import get_flow
from repro.lint.flow.effects import EFFECT_KINDS
from repro.lint.flow.names import module_name
from repro.lint.project import Project


def _stage_computes(tree: ast.Module) -> Iterator[tuple[str, str, int]]:
    """``(stage_name, compute_function_name, lineno)`` per Stage(...)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None
        )
        if callee != "Stage":
            continue
        name = compute = None
        lineno = node.lineno
        for keyword in node.keywords:
            if keyword.arg == "name" and isinstance(
                keyword.value, ast.Constant
            ):
                name = keyword.value.value
            elif keyword.arg == "compute" and isinstance(
                keyword.value, ast.Name
            ):
                compute = keyword.value.id
                lineno = keyword.value.lineno
        if name is not None and compute is not None:
            yield str(name), compute, lineno


class CachePurityRule:
    """MEG010: stage compute cones must only read fingerprinted inputs."""

    rule_id = "MEG010"
    name = "cache-purity"
    summary = (
        "pipeline stage compute cones must be free of ambient inputs "
        "the fingerprint does not capture"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.file_at(STAGES_MODULE)
        if source is None or source.tree is None:
            return
        flow = get_flow(project)
        module = module_name(source.relpath, PACKAGE_ROOT)
        for stage, compute, lineno in _stage_computes(source.tree):
            qualname = f"{module}.{compute}"
            fn = flow.function(qualname)
            if fn is None:
                yield Finding(
                    path=source.relpath,
                    line=lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"stage '{stage}': compute '{compute}' is not a "
                        "module-level function of the stages module"
                    ),
                )
                continue
            for item in sorted(flow.ambient[qualname]):
                kind, detail, _origin = item
                chain = flow.render_chain(flow.witness(qualname, item))
                yield Finding(
                    path=source.relpath,
                    line=fn.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"stage '{stage}': compute cone reaches ambient "
                        f"{kind} ({detail}) via {chain}; the stage "
                        "fingerprint cannot capture it — thread it "
                        "through params/requires or declare it with "
                        "'# megsim: ambient(...)'"
                    ),
                )


class DeclaredAmbientRule:
    """MEG011: ambient declarations are verified both ways."""

    rule_id = "MEG011"
    name = "declared-ambient"
    summary = (
        "ambient pragmas must attach to real functions, use known "
        "kinds, and match reachable effects"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        flow = get_flow(project)
        for module in sorted(flow.graph.modules.values(),
                             key=lambda m: m.relpath):
            for pragma in module.pragmas:
                for kind in pragma.kinds:
                    if kind not in EFFECT_KINDS:
                        yield Finding(
                            path=pragma.relpath,
                            line=pragma.line,
                            rule_id=self.rule_id,
                            message=(
                                "ambient pragma declares unknown effect "
                                f"kind '{kind}' (known: "
                                f"{', '.join(EFFECT_KINDS)})"
                            ),
                        )
                if pragma.attached_to is None:
                    yield Finding(
                        path=pragma.relpath,
                        line=pragma.line,
                        rule_id=self.rule_id,
                        message=(
                            "ambient pragma attaches to no function "
                            "(place it on the 'def' line or the line "
                            "directly above it)"
                        ),
                    )
                    continue
                target = pragma.attached_to
                reachable = {kind for kind, _, _ in flow.raw[target]}
                display = flow.graph.functions[target].display
                for kind in pragma.kinds:
                    if kind in EFFECT_KINDS and kind not in reachable:
                        yield Finding(
                            path=pragma.relpath,
                            line=pragma.line,
                            rule_id=self.rule_id,
                            message=(
                                f"stale ambient pragma: '{display}' declares "
                                f"'{kind}' but no {kind} effect is "
                                "reachable from it"
                            ),
                        )


class WorkerBoundaryRule:
    """MEG012: callables crossing the process-pool boundary are safe."""

    rule_id = "MEG012"
    name = "worker-boundary"
    summary = (
        "callables shipped to worker processes must be top-level, "
        "picklable, and have ambient-clean call cones"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        flow = get_flow(project)
        for site in sorted(
            flow.graph.ship_sites, key=lambda s: (s.relpath, s.line)
        ):
            entry = flow.function(site.entrypoint)
            entry_name = entry.display if entry else site.entrypoint
            if site.problem == "lambda":
                yield Finding(
                    path=site.relpath,
                    line=site.line,
                    rule_id=self.rule_id,
                    message=(
                        f"lambda shipped to {entry_name}: worker "
                        "callables must be top-level named functions"
                    ),
                )
                continue
            if site.target is None:
                yield Finding(
                    path=site.relpath,
                    line=site.line,
                    rule_id=self.rule_id,
                    message=(
                        f"callable shipped to {entry_name} cannot be "
                        "statically resolved to a top-level function"
                    ),
                )
                continue
            fn = flow.graph.functions[site.target]
            if not fn.is_toplevel:
                yield Finding(
                    path=site.relpath,
                    line=site.line,
                    rule_id=self.rule_id,
                    message=(
                        f"'{fn.display}' shipped to {entry_name} is a "
                        f"{fn.kind}, not a top-level function — it "
                        "cannot be pickled by name"
                    ),
                )
                continue
            for item in sorted(flow.ambient[site.target]):
                kind, detail, _origin = item
                chain = flow.render_chain(
                    flow.witness(site.target, item)
                )
                yield Finding(
                    path=site.relpath,
                    line=site.line,
                    rule_id=self.rule_id,
                    message=(
                        f"worker '{fn.display}' cone reaches ambient "
                        f"{kind} ({detail}) via {chain}; worker results "
                        "must not depend on undeclared per-process state"
                    ),
                )

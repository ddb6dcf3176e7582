"""The lint engine: load the project, run the rules, report.

``run_lint`` is the library entry point (used by the CLI and the
test suite); ``main`` is the
``python -m repro.lint`` / ``megsim lint`` command-line front end.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.flow import get_flow
from repro.lint.project import Project, load_project
from repro.lint.reporters import render_json, render_text, sorted_findings
from repro.lint.rules import ALL_RULES, Rule

#: Rule id reserved for files the engine could not parse.
PARSE_RULE_ID = "MEG000"


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: every finding, in the canonical reporting order.  Any
            finding fails the run.
    """

    findings: list[Finding] = field(default_factory=list)

    def exit_code(self) -> int:
        """0 = clean; 1 = at least one finding."""
        return 1 if self.findings else 0


def select_rules(select: tuple[str, ...] = ()) -> tuple[Rule, ...]:
    """The subset of :data:`ALL_RULES` a run executes.

    ``select`` keeps only the named rule ids (empty = all).  Unknown ids
    raise :class:`ConfigError` so typos fail loudly.
    """
    known = {rule.rule_id for rule in ALL_RULES}
    for rule_id in select:
        if rule_id not in known:
            raise ConfigError(
                f"unknown lint rule id {rule_id!r}; known: {sorted(known)}"
            )
    return tuple(
        rule for rule in ALL_RULES if not select or rule.rule_id in select
    )


def lint_project(project: Project, select: tuple[str, ...] = ()) -> LintResult:
    """Execute the selected rules over an already loaded project."""
    findings: list[Finding] = [
        Finding(
            path=source.relpath,
            line=0,
            rule_id=PARSE_RULE_ID,
            message=f"file does not parse: {source.error}",
        )
        for source in project.files
        if source.error is not None
    ]
    for rule in select_rules(select):
        findings.extend(rule.check(project))
    return LintResult(findings=sorted_findings(findings))


def run_lint(config: LintConfig, select: tuple[str, ...] = ()) -> LintResult:
    """Execute the selected rules over ``config.root``."""
    return lint_project(load_project(config), select)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megsim lint",
        description=(
            "AST-based static analysis enforcing the project's "
            "determinism, layering and documentation invariants "
            "(docs/linting.md)"
        ),
    )
    parser.add_argument(
        "--root", default=".",
        help="project root to lint (default: cwd)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format; json is sorted and machine-stable",
    )
    parser.add_argument(
        "--select", default="",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--effects", default="", metavar="MODULE:FUNC",
        help=(
            "print the inferred effect summary of one function (e.g. "
            "repro.pipeline.stages:_compute_plan) as deterministic "
            "JSON — declared kinds, direct effects with sites, and "
            "ambient/absorbed items with call-site chains — and exit"
        ),
    )
    return parser


def _split_ids(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def dump_effects(config: LintConfig, spec: str) -> int:
    """``--effects``: print one function's effect summary as JSON.

    The output is deterministic (sorted collections, no timestamps),
    which is what the golden tests pin; see docs/linting.md.
    """
    project = load_project(config)
    flow = get_flow(project)
    qualname = flow.resolve_spec(spec)
    if qualname is None:
        print(
            f"megsim lint: --effects: no function matches {spec!r} "
            "(spell it module:qualname, e.g. "
            "repro.pipeline.stages:_compute_plan)",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(flow.summary(qualname), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.name:16s} {rule.summary}")
        return 0

    config = LintConfig(root=Path(args.root))
    if args.effects:
        return dump_effects(config, args.effects)

    try:
        result = run_lint(config, select=_split_ids(args.select))
    except ConfigError as exc:
        print(f"megsim lint: configuration error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        sys.stdout.write(render_json(result.findings))
    else:
        print(render_text(result.findings))
    return result.exit_code()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

"""Static analysis for the MEGsim codebase: ``megsim lint``.

An ``ast``-based rule engine enforcing the invariants the pipeline's
trustworthiness rests on — seeded randomness, no wall-clock reads in
simulation paths, the package layering DAG, exception hygiene, and
docs that match the code — plus an interprocedural effect analysis
(``repro.lint.flow``) that proves stage compute cones read only
fingerprinted inputs and that worker callables are safe to ship across
the process-pool boundary.  The configuration is code
(``repro.lint.config``); every finding fails the run.  Rule catalog:
``docs/linting.md``.

Quickstart::

    from repro.lint import LintConfig, run_lint

    result = run_lint(LintConfig(root="."))
    for finding in result.findings:
        print(finding.render())

Command line: ``megsim lint`` or ``python -m repro.lint``
(``--format json`` for the machine-stable report, ``--list-rules`` for
the catalog, ``--effects`` for one function's effect summary).
"""

from repro.lint.config import LintConfig
from repro.lint.engine import LintResult, run_lint, select_rules
from repro.lint.findings import Finding
from repro.lint.flow import EFFECT_KINDS, FlowAnalysis, get_flow
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "EFFECT_KINDS",
    "Finding",
    "FlowAnalysis",
    "LintConfig",
    "LintResult",
    "Rule",
    "get_flow",
    "render_json",
    "render_text",
    "run_lint",
    "select_rules",
]

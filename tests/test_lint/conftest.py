"""Shared fixtures: the repository at HEAD, linted once per session, and
throwaway project trees for rule fixtures."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, LintResult, get_flow, run_lint
from repro.lint.engine import lint_project
from repro.lint.flow import FlowAnalysis
from repro.lint.project import Project, load_project

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="session")
def head_project() -> Project:
    """The repository at HEAD, loaded once for every whole-repo test."""
    return load_project(LintConfig(root=REPO_ROOT))


@pytest.fixture(scope="session")
def head_flow(head_project) -> FlowAnalysis:
    return get_flow(head_project)


@pytest.fixture(scope="session")
def head_result(head_project) -> LintResult:
    """Every rule over HEAD; shares the project's cached flow analysis."""
    return lint_project(head_project)


@pytest.fixture(scope="session")
def fresh_head_project() -> Project:
    """A second, independent load of HEAD: the one rebuild the
    determinism checks compare the shared session build against."""
    return load_project(LintConfig(root=REPO_ROOT))


def write_tree(root: Path, files: dict[str, str]) -> None:
    """Materialize ``relpath -> source`` under ``root`` (dedented)."""
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


@pytest.fixture
def lint_fixture(tmp_path):
    """Lint a synthetic project: ``lint_fixture(files, select=..., ...)``.

    ``files`` maps root-relative paths to (dedented) file contents;
    remaining keyword arguments override :class:`LintConfig` fields.
    Returns the :class:`LintResult`.
    """

    def run(
        files: dict[str, str],
        select: tuple[str, ...] = (),
        **overrides,
    ) -> LintResult:
        write_tree(tmp_path, files)
        config = LintConfig(root=tmp_path, **overrides)
        return run_lint(config, select=select)

    run.root = tmp_path
    return run


def rule_ids(result: LintResult) -> list[str]:
    return [finding.rule_id for finding in result.findings]


def messages(result: LintResult) -> str:
    return "\n".join(finding.render() for finding in result.findings)

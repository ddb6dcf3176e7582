"""Documentation invariants: export coverage and fence validity
(MEG007), CLI/doc sync (MEG008).

MEG007 absorbs the retired ``scripts/check_docs.py``: every name a
public ``__init__`` exports must be mentioned in the API reference, and
every ```` ```python ```` fence in the docs must parse.  MEG008 keeps the
argparse surface honest — each subcommand and ``--flag`` registered in
the CLI module must appear in the API reference, so the docs cannot
silently trail the tool.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.config import API_DOC, CLI_MODULE
from repro.lint.findings import Finding
from repro.lint.project import Project, SourceFile

_FENCE = re.compile(r"```python[ \t]*\n(.*?)```", re.DOTALL)


def exported_names(source: SourceFile) -> list[str] | None:
    """The literal ``__all__`` of a parsed module, or ``None``."""
    for node in source.tree.body:
        if isinstance(node, ast.Assign):
            targets = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            if "__all__" in targets:
                try:
                    names = ast.literal_eval(node.value)
                except ValueError:
                    return None
                return [str(name) for name in names]
    return None


def python_fences(text: str) -> list[str]:
    """The bodies of all ```` ```python ```` fences in ``text``."""
    return _FENCE.findall(text)


class DocCoverageRule:
    """MEG007: exports are documented, doc code fences parse."""

    rule_id = "MEG007"
    name = "doc-coverage"
    summary = (
        "public __all__ names must appear in the API reference; python "
        "fences in docs must parse"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        api_text = project.api_doc_text
        if not api_text:
            yield Finding(
                path=API_DOC, line=0, rule_id=self.rule_id,
                message="API reference is missing or empty",
            )
            return

        for module, relpath in sorted(project.config.public_modules.items()):
            source = project.file_at(relpath)
            if source is None or source.tree is None:
                yield Finding(
                    path=relpath, line=0, rule_id=self.rule_id,
                    message=f"public module {module} is missing or unparsable",
                )
                continue
            names = exported_names(source)
            if names is None:
                yield Finding(
                    path=relpath, line=0, rule_id=self.rule_id,
                    message=f"{module} has no literal __all__ to document",
                )
                continue
            for name in names:
                if name not in api_text:
                    yield Finding(
                        path=relpath, line=0, rule_id=self.rule_id,
                        message=(
                            f"{module}.{name} is exported but never "
                            f"mentioned in {API_DOC}"
                        ),
                    )

        for relpath, text in project.doc_pages:
            for index, code in enumerate(python_fences(text), 1):
                try:
                    compile(code, f"{relpath}#fence{index}", "exec")
                except SyntaxError as exc:
                    yield Finding(
                        path=relpath, line=0, rule_id=self.rule_id,
                        message=f"python fence #{index} does not parse: {exc}",
                    )


class CliDocSyncRule:
    """MEG008: every CLI subcommand and flag appears in the API reference."""

    rule_id = "MEG008"
    name = "cli-doc-sync"
    summary = "argparse subcommands/flags must be documented in the API doc"

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.file_at(CLI_MODULE)
        if source is None or source.tree is None:
            yield Finding(
                path=CLI_MODULE, line=0, rule_id=self.rule_id,
                message="CLI module is missing or unparsable",
            )
            return
        api_text = project.api_doc_text
        for kind, value, line in self._surface(source.tree):
            if value not in api_text:
                yield Finding(
                    path=source.relpath, line=line, rule_id=self.rule_id,
                    message=(
                        f"CLI {kind} {value!r} is not mentioned in {API_DOC}"
                    ),
                )

    @staticmethod
    def _surface(tree: ast.Module) -> Iterator[tuple[str, str, int]]:
        """Every ``(kind, name, line)`` the argparse CLI registers."""
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr == "add_parser":
                if node.args and isinstance(node.args[0], ast.Constant):
                    yield "subcommand", str(node.args[0].value), node.lineno
            elif node.func.attr == "add_argument":
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and str(
                        arg.value
                    ).startswith("--"):
                        yield "flag", str(arg.value), node.lineno

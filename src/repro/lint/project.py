"""The linted project: parsed source files plus doc pages.

Rules never touch the filesystem — they receive a :class:`Project`
holding every Python file (already parsed to an ``ast`` tree) and
helpers for the markdown pages the doc rules check.  Files that fail to
parse surface as MEG000 findings from the engine rather than crashing
any individual rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.lint.config import API_DOC, DOCS_PATHS, PATHS, LintConfig


@dataclass
class SourceFile:
    """One Python source file under lint.

    Attributes:
        path: absolute path on disk.
        relpath: POSIX path relative to the project root (finding paths).
        text: the file's source text.
        tree: parsed module, or ``None`` when ``error`` is set.
        error: the ``SyntaxError`` message when the file does not parse.
    """

    path: Path
    relpath: str
    text: str
    tree: ast.Module | None = None
    error: str | None = None

    def in_subtree(self, prefixes: tuple[str, ...]) -> bool:
        """True when ``relpath`` equals or lives under any prefix."""
        return any(
            self.relpath == prefix or self.relpath.startswith(prefix + "/")
            for prefix in prefixes
        )


@dataclass
class Project:
    """Everything a rule may inspect, loaded once per lint run."""

    config: LintConfig
    files: list[SourceFile] = field(default_factory=list)

    @property
    def root(self) -> Path:
        return self.config.root

    def relpath(self, path: Path) -> str:
        return path.resolve().relative_to(self.root).as_posix()

    def file_at(self, relpath: str) -> SourceFile | None:
        """The loaded source file with this root-relative path, if any."""
        for source in self.files:
            if source.relpath == relpath:
                return source
        return None

    @cached_property
    def doc_pages(self) -> list[tuple[str, str]]:
        """``(relpath, text)`` of every markdown page under lint, sorted."""
        pages: list[tuple[str, str]] = []
        for entry in DOCS_PATHS:
            target = self.root / entry
            if target.is_dir():
                for page in sorted(target.glob("*.md")):
                    pages.append((self.relpath(page), page.read_text()))
            elif target.is_file():
                pages.append((entry, target.read_text()))
        return pages

    @cached_property
    def api_doc_text(self) -> str:
        """Contents of the API reference, '' when the file is missing."""
        target = self.root / API_DOC
        return target.read_text() if target.is_file() else ""


def load_project(config: LintConfig) -> Project:
    """Collect and parse every Python file under the linted paths.

    The paths are :data:`repro.lint.config.PATHS`, relative to
    ``config.root``.
    """
    seen: set[Path] = set()
    files: list[SourceFile] = []
    for entry in PATHS:
        target = config.root / entry
        if target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        elif target.is_file():
            candidates = [target]
        else:
            continue
        for path in candidates:
            path = path.resolve()
            if path in seen or "__pycache__" in path.parts:
                continue
            seen.add(path)
            files.append(_load_file(path, path.relative_to(config.root).as_posix()))
    files.sort(key=lambda source: source.relpath)
    return Project(config=config, files=files)


def _load_file(path: Path, relpath: str) -> SourceFile:
    text = path.read_text()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return SourceFile(path=path, relpath=relpath, text=text,
                          error=f"{exc.msg} (line {exc.lineno})")
    return SourceFile(path=path, relpath=relpath, text=text, tree=tree)

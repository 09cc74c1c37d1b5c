"""The lint engine: file walking, suppression handling, reporting.

The engine is pure (no process exit, no printing) so tests and other
tools can call it directly; :mod:`repro.lint.cli` layers the console
behaviour (output format, summary, exit codes) on top.

Two rule families run over one file set:

* plain :class:`~repro.lint.base.Rule` subclasses see one module at a
  time (the PR-5 model);
* :class:`~repro.lint.base.ProjectRule` subclasses see the whole run as
  a :class:`~repro.lint.project.Project` — the cross-module flow rules.

Suppressions apply identically to both: a ``# repro-lint: disable=``
directive trailing code silences that line, a directive on a line of
its own silences the listed codes for the whole file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.base import (
    SUPPRESS_ALL,
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    file_suppressions,
    parse_suppressions,
)
from repro.lint.flowrules import FLOW_RULES
from repro.lint.project import Project
from repro.lint.rules import ALL_RULES

__all__ = [
    "DEFAULT_RULES",
    "LintReport",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_sources",
]

#: Code attached to files the engine cannot parse at all.
SYNTAX_ERROR_CODE = "RPR900"

#: The full default rule set: per-module rules plus the flow rules.
DEFAULT_RULES: tuple[type[Rule], ...] = ALL_RULES + FLOW_RULES


def _finding_key(finding: Finding) -> tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.code)


@dataclass
class LintReport:
    """Outcome of one lint run over any number of files.

    Attributes:
        findings: Active violations, sorted by location then code.
        suppressed: Findings silenced by an inline directive (counted,
            never fatal — the suppression *is* the paper trail).
        files_checked: Number of files parsed and checked.
    """

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """``1`` when any active finding exists, else ``0``."""
        return 1 if self.findings else 0

    def extend(self, other: "LintReport") -> None:
        """Fold another report into this one."""
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked

    def sort(self) -> None:
        """Order findings by path, line, column, code (stable output)."""
        self.findings.sort(key=_finding_key)
        self.suppressed.sort(key=_finding_key)


def _instantiate(rules: Sequence[Rule | type[Rule]] | None) -> list[Rule]:
    chosen = DEFAULT_RULES if rules is None else rules
    return [rule() if isinstance(rule, type) else rule for rule in chosen]


class _Suppressions:
    """Line- and file-scoped suppression directives of one source file."""

    def __init__(self, source: str) -> None:
        self.by_line = parse_suppressions(source)
        self.file_wide = file_suppressions(source)

    def silences(self, finding: Finding) -> bool:
        allowed = self.by_line.get(finding.line, set()) | self.file_wide
        return finding.code.upper() in allowed or SUPPRESS_ALL in allowed


def _record(
    report: LintReport, finding: Finding, suppressions: _Suppressions | None
) -> None:
    if suppressions is not None and suppressions.silences(finding):
        report.suppressed.append(finding)
    else:
        report.findings.append(finding)


def _syntax_finding(path: str, error: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=error.lineno or 1,
        col=(error.offset or 1) - 1,
        code=SYNTAX_ERROR_CODE,
        message=f"file does not parse: {error.msg}",
    )


def lint_sources(
    files: Sequence[tuple[str, str]],
    rules: Sequence[Rule | type[Rule]] | None = None,
) -> LintReport:
    """Lint ``(path, source)`` pairs as one run (the engine core).

    Paths drive rule scoping and cross-module naming (see
    :func:`repro.lint.base.module_key`); files that do not parse yield
    one :data:`SYNTAX_ERROR_CODE` finding each and are excluded from the
    whole-program stage.
    """
    instantiated = _instantiate(rules)
    module_rules = [r for r in instantiated if not isinstance(r, ProjectRule)]
    project_rules = [r for r in instantiated if isinstance(r, ProjectRule)]
    report = LintReport()
    parsed: list[tuple[str, str, ast.Module]] = []
    suppression_maps: dict[str, _Suppressions] = {}

    for path, source in files:
        report.files_checked += 1
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            report.findings.append(_syntax_finding(path, error))
            continue
        parsed.append((path, source, tree))
        module = ModuleContext(path, source, tree)
        suppressions = suppression_maps[path] = _Suppressions(source)
        for rule in module_rules:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                _record(report, finding, suppressions)

    if project_rules:
        project = Project.build(parsed)
        for rule in project_rules:
            for finding in rule.check_project(project):
                _record(report, finding, suppression_maps.get(finding.path))

    report.sort()
    return report


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule | type[Rule]] | None = None,
) -> LintReport:
    """Lint one source string as if it lived at ``path``.

    ``path`` drives rule scoping (see :func:`repro.lint.base.module_key`),
    so fixture tests pass paths like ``"repro/core/sample.py"`` to opt
    into the core-scoped rules.  A file that does not parse yields one
    :data:`SYNTAX_ERROR_CODE` finding instead of raising.
    """
    return lint_sources([(path, source)], rules)


def lint_file(
    path: str | Path, rules: Sequence[Rule | type[Rule]] | None = None
) -> LintReport:
    """Lint one file from disk (UTF-8)."""
    file_path = Path(path)
    return lint_source(
        file_path.read_text(encoding="utf-8"), str(file_path), rules
    )


def _python_files(path: Path) -> list[Path]:
    """Every ``*.py`` under ``path`` (or the file itself), sorted."""
    if path.is_file():
        return [path]
    return sorted(candidate for candidate in path.rglob("*.py") if candidate.is_file())


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule | type[Rule]] | None = None,
) -> LintReport:
    """Lint every Python file under the given files/directories.

    All files form *one* run: the whole-program rules resolve imports
    across every directory given.

    Raises:
        FileNotFoundError: When a given path does not exist (a linter
            that silently checks nothing is worse than no linter).
    """
    files: list[tuple[str, str]] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"lint target does not exist: {path}")
        for file_path in _python_files(path):
            files.append((str(file_path), file_path.read_text(encoding="utf-8")))
    return lint_sources(files, rules)

"""Console entry point: ``repro-lint`` / ``python -m repro.lint``.

Exit codes follow the usual linter contract:

* ``0`` — every checked file is clean (suppressed findings are fine);
* ``1`` — at least one active finding;
* ``2`` — usage error (unknown rule code, missing path).

Findings go to stdout as ``file:line:col CODE message`` (one per line,
machine-parseable); the summary goes to stderr so piping stdout into
another tool stays clean.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence, TextIO

from repro.lint.base import Rule
from repro.lint.engine import DEFAULT_RULES, LintReport, lint_paths
from repro.lint.rules import rules_by_code

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Project invariant linter: determinism, seeding, error "
            "discipline, and whole-program flow analysis for the repro "
            "scheduling library."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts to the summary",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by inline directives",
    )
    return parser


def _selected_rules(select: str | None) -> list[type[Rule]] | None:
    if select is None:
        return None
    catalog = rules_by_code()
    chosen: list[type[Rule]] = []
    for raw in select.split(","):
        code = raw.strip().upper()
        if not code:
            continue
        if code not in catalog:
            raise KeyError(code)
        chosen.append(catalog[code])
    return chosen


def _print_catalog(stream: TextIO) -> None:
    for rule in DEFAULT_RULES:
        stream.write(f"{rule.code}  {rule.name}: {rule.rationale}\n")


def _print_summary(report: LintReport, statistics: bool, stream: TextIO) -> None:
    noun = "file" if report.files_checked == 1 else "files"
    stream.write(
        f"repro-lint: checked {report.files_checked} {noun}: "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed\n"
    )
    if statistics and (report.findings or report.suppressed):
        counts: dict[str, int] = {}
        for finding in report.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        for code in sorted(counts):
            stream.write(f"  {code}: {counts[code]}\n")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_catalog(sys.stdout)
        return 0
    try:
        rules = _selected_rules(args.select)
    except KeyError as error:
        known = ",".join(sorted(rules_by_code()))
        sys.stderr.write(f"repro-lint: unknown rule code {error.args[0]} (known: {known})\n")
        return 2
    try:
        report = lint_paths(args.paths, rules)
    except FileNotFoundError as error:
        sys.stderr.write(f"repro-lint: {error}\n")
        return 2
    for finding in report.findings:
        sys.stdout.write(finding.render() + "\n")
    if args.show_suppressed:
        for finding in report.suppressed:
            sys.stdout.write(finding.render() + " (suppressed)\n")
    _print_summary(report, args.statistics, sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the analyzer tooling: uniform suppression handling across
the RPR0xx/RPR1xx rule families."""

from __future__ import annotations

from repro.lint import (
    DEFAULT_RULES,
    file_suppressions,
    lint_source,
)
from repro.lint.cli import main

# An assert in a core module (RPR003) plus an unclosed open (RPR104):
# one finding from each rule family, at known lines.
MIXED_SOURCE = (
    "def check(value):\n"
    "    assert value > 0\n"
    "    handle = open('log.txt')\n"
    "    return handle\n"
)
MIXED_PATH = "repro/core/mixed.py"


def codes(report):
    """Sorted finding codes of a report."""
    return sorted(finding.code for finding in report.findings)


# ---------------------------------------------------------------------- #
# Suppression handling across rule families                              #
# ---------------------------------------------------------------------- #


class TestSuppressionUniformity:
    def test_file_wide_directive_accepts_both_families(self):
        source = (
            "# repro-lint: disable=RPR003,RPR104\n" + MIXED_SOURCE
        )
        assert file_suppressions(source) == {"RPR003", "RPR104"}
        report = lint_source(source, MIXED_PATH, DEFAULT_RULES)
        assert report.findings == []
        assert sorted(f.code for f in report.suppressed) == ["RPR003", "RPR104"]
        assert report.exit_code == 0

    def test_trailing_directive_stays_line_scoped(self):
        source = MIXED_SOURCE.replace(
            "assert value > 0",
            "assert value > 0  # repro-lint: disable=all",
        )
        # The directive trails code: it silences its own line only, so
        # the RPR104 finding two lines down stays active.
        assert file_suppressions(source) == set()
        report = lint_source(source, MIXED_PATH, DEFAULT_RULES)
        assert codes(report) == ["RPR104"]
        assert [f.code for f in report.suppressed] == ["RPR003"]

    def test_flow_finding_suppressed_inline(self):
        source = MIXED_SOURCE.replace(
            "handle = open('log.txt')",
            "handle = open('log.txt')  # repro-lint: disable=RPR104",
        )
        report = lint_source(source, MIXED_PATH, DEFAULT_RULES)
        assert codes(report) == ["RPR003"]
        assert [f.code for f in report.suppressed] == ["RPR104"]

    def test_select_accepts_flow_codes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(MIXED_SOURCE, encoding="utf-8")
        assert main(["--select", "RPR104", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR104" in out and "RPR003" not in out
        # Case-insensitive, same as the RPR0xx family.
        assert main(["--select", "rpr104", str(tmp_path)]) == 1

    def test_select_flow_project_rule(self, tmp_path, capsys):
        ok = tmp_path / "repro" / "core" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("x = 1\n", encoding="utf-8")
        assert main(["--select", "RPR101,RPR102", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

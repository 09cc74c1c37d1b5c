"""Tests for the analyzer tooling: SARIF export and uniform suppression
handling across the RPR0xx/RPR1xx rule families."""

from __future__ import annotations

import json

from repro.lint import (
    DEFAULT_RULES,
    file_suppressions,
    lint_source,
    render_sarif,
    sarif_document,
)
from repro.lint.cli import main
from repro.lint.engine import SYNTAX_ERROR_CODE

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
# SARIF                                                                  #
# ---------------------------------------------------------------------- #


class TestSarifExport:
    def report(self):
        return lint_source(MIXED_SOURCE, MIXED_PATH, DEFAULT_RULES)

    def test_document_shape(self):
        document = sarif_document(self.report(), DEFAULT_RULES)
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-2.1.0.json")
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [entry["id"] for entry in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        # Full catalog ships in the driver, plus the synthetic
        # syntax-error rule for unparseable files.
        for code in ("RPR003", "RPR101", "RPR104", SYNTAX_ERROR_CODE):
            assert code in rule_ids

    def test_results_reference_catalog_and_use_one_based_columns(self):
        report = self.report()
        document = sarif_document(report, DEFAULT_RULES)
        (run,) = document["runs"]
        assert len(run["results"]) == len(report.findings)
        by_id = {result["ruleId"]: result for result in run["results"]}
        assert set(by_id) == {"RPR003", "RPR104"}
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            (location,) = result["locations"]
            region = location["physicalLocation"]["region"]
            assert region["startColumn"] >= 1
        open_finding = next(f for f in report.findings if f.code == "RPR104")
        region = by_id["RPR104"]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == open_finding.line
        assert region["startColumn"] == open_finding.col + 1

    def test_suppressed_findings_carry_in_source_marker(self):
        suppressed_source = MIXED_SOURCE.replace(
            "assert value > 0",
            "assert value > 0  # repro-lint: disable=RPR003",
        )
        report = lint_source(suppressed_source, MIXED_PATH, DEFAULT_RULES)
        document = sarif_document(report, DEFAULT_RULES)
        results = document["runs"][0]["results"]
        marked = [r for r in results if "suppressions" in r]
        assert [r["ruleId"] for r in marked] == ["RPR003"]
        assert marked[0]["suppressions"] == [{"kind": "inSource"}]
        active = [r for r in results if "suppressions" not in r]
        assert [r["ruleId"] for r in active] == ["RPR104"]

    def test_render_is_deterministic_json(self):
        first = render_sarif(self.report(), DEFAULT_RULES)
        second = render_sarif(self.report(), DEFAULT_RULES)
        assert first == second
        assert json.loads(first)["version"] == "2.1.0"

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(MIXED_SOURCE, encoding="utf-8")
        out = tmp_path / "findings.sarif"
        assert main(["--format", "sarif", "--output", str(out), str(tmp_path)]) == 1
        document = json.loads(out.read_text(encoding="utf-8"))
        assert {r["ruleId"] for r in document["runs"][0]["results"]} == {
            "RPR003",
            "RPR104",
        }
        # Findings went to the file; stdout stays empty for piping.
        assert capsys.readouterr().out == ""


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

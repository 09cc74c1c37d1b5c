"""Tests for the invariant linter (``repro.lint``).

Each rule gets fixture snippets both ways: code that must be flagged and
the compliant rewrite that must pass.  On top of the per-rule fixtures
the suite covers suppression directives, exit codes, the syntax-error
path, the CLI surface, and — the point of the whole exercise — that the
shipped ``src`` tree is itself clean under the full rule set.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    BroadExceptRule,
    CallGraph,
    DerivedSeedRule,
    EntropyRule,
    Finding,
    GuardedTelemetryRule,
    NoAssertRule,
    OrderedSerializationRule,
    Project,
    lint_paths,
    lint_source,
    module_key,
    parse_suppressions,
    rules_by_code,
)
from repro.lint.cli import main
from repro.lint.engine import SYNTAX_ERROR_CODE
from repro.lint.flowrules import WORKER_ENTRY_POINTS
from repro.lint.rules import SERIALIZATION_PATHS, SHARDED_PATHS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

CORE_PATH = "repro/core/sample.py"
SHARDED_PATH = "repro/sim/experiment.py"
SERIALIZING_PATH = "repro/core/journal.py"


def codes(report):
    return [finding.code for finding in report.findings]


# ---------------------------------------------------------------------- #
# RPR001 — ambient entropy                                               #
# ---------------------------------------------------------------------- #


class TestEntropyRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nstamp = time.time()\n",
            "import time\nstamp = time.time_ns()\n",
            "from time import time\nstamp = time()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.utcnow()\n",
            "import os\nnoise = os.urandom(8)\n",
            "import uuid\ntoken = uuid.uuid4()\n",
            "import secrets\ntoken = secrets.token_hex()\n",
            "import random\nrng = random.SystemRandom()\n",
            "import random\nrng = random.Random()\n",
            "import random\nrng = random.Random(None)\n",
            "import random\nvalue = random.random()\n",
            "import random\nvalue = random.randint(1, 6)\n",
            "import random\nrandom.shuffle([1, 2])\n",
        ],
    )
    def test_flags_ambient_entropy(self, snippet):
        report = lint_source(snippet, CORE_PATH, [EntropyRule])
        assert codes(report) == ["RPR001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrng = random.Random(42)\n",
            "import random\nrng = random.Random(seed)\n",
            "import time\nbudget = time.monotonic()\n",
            "import time\nelapsed = time.perf_counter()\n",
            "from repro.obs import clock\nstamp = clock.now()\n",
            "import random\nsample = random.Random(7).random()\n",
        ],
    )
    def test_allows_seeded_and_monotonic(self, snippet):
        report = lint_source(snippet, CORE_PATH, [EntropyRule])
        assert report.findings == []

    def test_clock_shim_is_allowlisted(self):
        snippet = "import time\n\ndef system_clock():\n    return time.time()\n"
        report = lint_source(snippet, "repro/obs/clock.py", [EntropyRule])
        assert report.findings == []

    def test_import_alias_is_resolved(self):
        snippet = "import time as t\nstamp = t.time()\n"
        report = lint_source(snippet, CORE_PATH, [EntropyRule])
        assert codes(report) == ["RPR001"]

    def test_method_named_like_random_helper_not_flagged(self):
        # rng.random() on a local instance is fine; only the module-global
        # helpers (random.random etc.) are banned.
        snippet = "import random\nrng = random.Random(3)\nvalue = rng.random()\n"
        report = lint_source(snippet, CORE_PATH, [EntropyRule])
        assert report.findings == []


# ---------------------------------------------------------------------- #
# RPR002 — derived seeds in sharded paths                                #
# ---------------------------------------------------------------------- #


class TestDerivedSeedRule:
    def test_flags_adhoc_seed_expression(self):
        snippet = (
            "import random\n"
            "def shard(master, index):\n"
            "    return random.Random(master + index)\n"
        )
        report = lint_source(snippet, SHARDED_PATH, [DerivedSeedRule])
        assert codes(report) == ["RPR002"]

    def test_allows_direct_derivation_call(self):
        snippet = (
            "import random\n"
            "from repro.sim.experiment import derive_iteration_seed\n"
            "def shard(master, index):\n"
            "    return random.Random(derive_iteration_seed(master, index))\n"
        )
        report = lint_source(snippet, SHARDED_PATH, [DerivedSeedRule])
        assert report.findings == []

    def test_allows_name_assigned_from_derivation(self):
        snippet = (
            "import random\n"
            "from repro.grid.resilience import derive_node_seed\n"
            "def shard(master, name):\n"
            "    seed = derive_node_seed(master, name)\n"
            "    return random.Random(seed)\n"
        )
        report = lint_source(snippet, SHARDED_PATH, [DerivedSeedRule])
        assert report.findings == []

    def test_out_of_scope_module_is_ignored(self):
        snippet = "import random\nrng = random.Random(1 + 2)\n"
        report = lint_source(snippet, CORE_PATH, [DerivedSeedRule])
        assert report.findings == []

    def test_extra_paths_widen_scope(self):
        snippet = "import random\nrng = random.Random(1 + 2)\n"
        rule = DerivedSeedRule(extra_paths=("core/sample.py",))
        report = lint_source(snippet, CORE_PATH, [rule])
        assert codes(report) == ["RPR002"]

    def test_chaos_modules_are_in_scope(self):
        # The chaos engine is sharded-path scoped: ad-hoc seeds there
        # would make fault placement unreplayable from --chaos-seed.
        snippet = "import random\nrng = random.Random(1 + 2)\n"
        report = lint_source(snippet, "repro/chaos/harness.py", [DerivedSeedRule])
        assert codes(report) == ["RPR002"]

    def test_fault_seed_deriver_is_accepted(self):
        snippet = (
            "import random\n"
            "from repro.chaos.faults import derive_fault_seed\n"
            "def place(master, label):\n"
            "    seed = derive_fault_seed(master, label)\n"
            "    return random.Random(seed)\n"
        )
        report = lint_source(snippet, "repro/chaos/harness.py", [DerivedSeedRule])
        assert report.findings == []


# ---------------------------------------------------------------------- #
# RPR003 — no bare assert                                                #
# ---------------------------------------------------------------------- #


class TestNoAssertRule:
    def test_flags_assert_statement(self):
        snippet = "def check(x):\n    assert x > 0, 'positive'\n"
        report = lint_source(snippet, CORE_PATH, [NoAssertRule])
        assert codes(report) == ["RPR003"]
        assert "python -O" in report.findings[0].message

    def test_typed_error_passes(self):
        snippet = (
            "from repro.core.errors import InvariantViolationError\n"
            "def check(x):\n"
            "    if x <= 0:\n"
            "        raise InvariantViolationError('positive')\n"
        )
        report = lint_source(snippet, CORE_PATH, [NoAssertRule])
        assert report.findings == []


# ---------------------------------------------------------------------- #
# RPR004 — ordered serialization                                         #
# ---------------------------------------------------------------------- #


class TestOrderedSerializationRule:
    def test_flags_dumps_without_sort_keys(self):
        snippet = "import json\npayload = json.dumps({'b': 1, 'a': 2})\n"
        report = lint_source(snippet, SERIALIZING_PATH, [OrderedSerializationRule])
        assert codes(report) == ["RPR004"]

    def test_flags_dump_with_sort_keys_false(self):
        snippet = "import json\njson.dump({}, fh, sort_keys=False)\n"
        report = lint_source(snippet, SERIALIZING_PATH, [OrderedSerializationRule])
        assert codes(report) == ["RPR004"]

    def test_sorted_dumps_passes(self):
        snippet = "import json\npayload = json.dumps({'a': 1}, sort_keys=True)\n"
        report = lint_source(snippet, SERIALIZING_PATH, [OrderedSerializationRule])
        assert report.findings == []

    @pytest.mark.parametrize(
        "snippet",
        [
            "names = {'b', 'a'}\nfor name in {'b', 'a'}:\n    print(name)\n",
            "rows = [item for item in set(values)]\n",
            "rows = [item for item in frozenset(values)]\n",
        ],
    )
    def test_flags_set_iteration(self, snippet):
        report = lint_source(snippet, SERIALIZING_PATH, [OrderedSerializationRule])
        assert codes(report) == ["RPR004"]

    def test_sorted_set_iteration_passes(self):
        snippet = "rows = [item for item in sorted(set(values))]\n"
        report = lint_source(snippet, SERIALIZING_PATH, [OrderedSerializationRule])
        assert report.findings == []

    def test_out_of_scope_module_is_ignored(self):
        snippet = "import json\npayload = json.dumps({'a': 1})\n"
        report = lint_source(snippet, "repro/core/alp.py", [OrderedSerializationRule])
        assert report.findings == []


# ---------------------------------------------------------------------- #
# RPR005 — broad exception handlers                                      #
# ---------------------------------------------------------------------- #


class TestBroadExceptRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "try:\n    work()\nexcept:\n    pass\n",
            "try:\n    work()\nexcept Exception:\n    pass\n",
            "try:\n    work()\nexcept BaseException:\n    pass\n",
            "try:\n    work()\nexcept (ValueError, Exception):\n    pass\n",
        ],
    )
    def test_flags_broad_handlers(self, snippet):
        report = lint_source(snippet, CORE_PATH, [BroadExceptRule])
        assert codes(report) == ["RPR005"]

    def test_specific_handler_passes(self):
        snippet = (
            "from repro.core.errors import JournalCorruptError\n"
            "try:\n"
            "    work()\n"
            "except (ValueError, JournalCorruptError):\n"
            "    raise\n"
        )
        report = lint_source(snippet, CORE_PATH, [BroadExceptRule])
        assert report.findings == []


# ---------------------------------------------------------------------- #
# RPR006 — guarded telemetry emits                                       #
# ---------------------------------------------------------------------- #


class TestGuardedTelemetryRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def record(telemetry, n):\n    telemetry.count('search.batches', n)\n",
            "def record(telemetry, v):\n    telemetry.observe('phase.seconds', v)\n",
            "def record(decisions, job):\n    decisions.emit('dp.selected', job=job)\n",
            (
                "def record(telemetry, job):\n"
                "    telemetry.decisions.emit('dp.selected', job=job)\n"
            ),
            # a function name grants no exemption
            (
                "def _scan_instrumented(telemetry, slots):\n"
                "    telemetry.count('search.slots_scanned', len(slots))\n"
            ),
        ],
    )
    def test_flags_unguarded_emit(self, snippet):
        report = lint_source(snippet, CORE_PATH, [GuardedTelemetryRule])
        assert codes(report) == ["RPR006"]

    def test_applies_to_grid_modules(self):
        snippet = "def record(telemetry):\n    telemetry.event('meta.tick')\n"
        report = lint_source(
            snippet, "repro/grid/metascheduler.py", [GuardedTelemetryRule]
        )
        assert codes(report) == ["RPR006"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # explicit enabled-check around the emit
            (
                "def record(telemetry, n):\n"
                "    if telemetry.enabled:\n"
                "        telemetry.count('search.batches', n)\n"
            ),
            # guard via a local name assigned from .enabled
            (
                "def record(decisions, job):\n"
                "    record_decisions = decisions.enabled\n"
                "    if record_decisions:\n"
                "        decisions.emit('dp.selected', job=job)\n"
            ),
            # early-return guard as the function's first statement
            (
                "def record(telemetry, n):\n"
                "    if not telemetry.enabled:\n"
                "        return\n"
                "    telemetry.count('search.batches', n)\n"
            ),
            # telemetry_enabled() as the guard test
            (
                "from repro.obs.telemetry import telemetry_enabled\n"
                "def record(telemetry, n):\n"
                "    if telemetry_enabled():\n"
                "        telemetry.count('search.batches', n)\n"
            ),
            # span() is exempt: it returns the shared no-op singleton
            (
                "def run(telemetry):\n"
                "    with telemetry.span('phase1.find_alternatives'):\n"
                "        pass\n"
            ),
            # unrelated receivers are not telemetry
            "def record(stats, n):\n    stats.count('x', n)\n",
        ],
    )
    def test_guarded_and_exempt_shapes_pass(self, snippet):
        report = lint_source(snippet, CORE_PATH, [GuardedTelemetryRule])
        assert report.findings == []

    def test_out_of_scope_module_is_ignored(self):
        snippet = "def record(telemetry, n):\n    telemetry.count('x', n)\n"
        report = lint_source(snippet, "repro/sim/experiment.py", [GuardedTelemetryRule])
        assert report.findings == []

    def test_extra_paths_widen_scope(self):
        snippet = "def record(telemetry, n):\n    telemetry.count('x', n)\n"
        rule = GuardedTelemetryRule(extra_paths=("sim/experiment.py",))
        report = lint_source(snippet, "repro/sim/experiment.py", [rule])
        assert codes(report) == ["RPR006"]


# ---------------------------------------------------------------------- #
# Suppressions                                                           #
# ---------------------------------------------------------------------- #


class TestSuppressions:
    def test_inline_directive_moves_finding_to_suppressed(self):
        snippet = "import time\nstamp = time.time()  # repro-lint: disable=RPR001\n"
        report = lint_source(snippet, CORE_PATH)
        assert report.findings == []
        assert [finding.code for finding in report.suppressed] == ["RPR001"]

    def test_directive_for_other_code_does_not_apply(self):
        snippet = "import time\nstamp = time.time()  # repro-lint: disable=RPR003\n"
        report = lint_source(snippet, CORE_PATH)
        assert codes(report) == ["RPR001"]
        assert report.suppressed == []

    def test_disable_all_silences_the_line(self):
        snippet = "import time\nstamp = time.time()  # repro-lint: disable=all\n"
        report = lint_source(snippet, CORE_PATH)
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_multiple_codes_in_one_directive(self):
        source = "x = 1  # repro-lint: disable=RPR001, RPR004\n"
        assert parse_suppressions(source) == {1: {"RPR001", "RPR004"}}

    def test_directive_only_covers_its_own_line(self):
        snippet = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=RPR001\n"
            "b = time.time()\n"
        )
        report = lint_source(snippet, CORE_PATH)
        assert codes(report) == ["RPR001"]
        assert report.findings[0].line == 3
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------- #
# Engine behaviour                                                       #
# ---------------------------------------------------------------------- #


class TestEngine:
    def test_syntax_error_yields_rpr900(self):
        report = lint_source("def broken(:\n", CORE_PATH)
        assert codes(report) == [SYNTAX_ERROR_CODE]
        assert report.exit_code == 1

    def test_exit_code_zero_when_clean(self):
        report = lint_source("x = 1\n", CORE_PATH)
        assert report.exit_code == 0

    def test_findings_sorted_by_location(self):
        snippet = (
            "import time\n"
            "def check(x):\n"
            "    assert x\n"
            "    return time.time()\n"
        )
        report = lint_source(snippet, CORE_PATH)
        assert [(finding.line, finding.code) for finding in report.findings] == [
            (3, "RPR003"),
            (4, "RPR001"),
        ]

    def test_lint_paths_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([REPO_ROOT / "does-not-exist"])

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "repro" / "core"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("assert True\n", encoding="utf-8")
        (package / "good.py").write_text("x = 1\n", encoding="utf-8")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert codes(report) == ["RPR003"]

    def test_finding_render_format(self):
        finding = Finding(path="a.py", line=3, col=7, code="RPR001", message="boom")
        assert finding.render() == "a.py:3:7 RPR001 boom"

    def test_module_key_normalizes_to_repro(self):
        assert module_key("src/repro/core/alp.py") == "repro/core/alp.py"
        assert module_key("/x/y/repro/sim/a.py") == "repro/sim/a.py"
        assert module_key("fixtures/loose.py") == "fixtures/loose.py"

    def test_rule_catalog_is_consistent(self):
        catalog = rules_by_code()
        # 6 per-module rules (RPR0xx) + 4 whole-program flow rules (RPR1xx).
        assert len(ALL_RULES) == 6
        assert len(catalog) == 10
        assert {code for code in catalog if code.startswith("RPR1")} == {
            "RPR101",
            "RPR102",
            "RPR103",
            "RPR104",
        }
        for code, rule in catalog.items():
            assert code == rule.code
            assert rule.rationale
            assert rule.__doc__ and code in rule.__doc__


# ---------------------------------------------------------------------- #
# CLI                                                                    #
# ---------------------------------------------------------------------- #


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 finding(s)" in captured.err

    def test_findings_exit_one_and_print_locations(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("assert True\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "RPR003" in captured.out
        assert str(bad) in captured.out
        assert "1 finding(s)" in captured.err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["--select", "RPR999", str(tmp_path)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_select_narrows_rules(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\nassert stamp\n", encoding="utf-8")
        assert main(["--select", "RPR003", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "RPR003" in captured.out
        assert "RPR001" not in captured.out

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_statistics_summary(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("assert True\nassert False\n", encoding="utf-8")
        assert main(["--statistics", str(tmp_path)]) == 1
        assert "RPR003: 2" in capsys.readouterr().err

    def test_show_suppressed_prints_silenced_findings(self, tmp_path, capsys):
        quiet = tmp_path / "repro" / "core" / "quiet.py"
        quiet.parent.mkdir(parents=True)
        quiet.write_text(
            "import time\nstamp = time.time()  # repro-lint: disable=RPR001\n",
            encoding="utf-8",
        )
        assert main(["--show-suppressed", str(quiet)]) == 0
        captured = capsys.readouterr()
        assert "(suppressed)" in captured.out
        assert "1 suppressed" in captured.err

    def test_module_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "RPR001" in result.stdout


# ---------------------------------------------------------------------- #
# The tree itself                                                        #
# ---------------------------------------------------------------------- #


class TestSelfClean:
    def test_src_tree_is_clean(self):
        report = lint_paths([SRC])
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.files_checked > 50

    def test_src_tree_has_no_suppressions(self):
        # The shipped tree needs zero escape hatches; if one ever lands,
        # this pins the count so growth is a reviewed decision.
        report = lint_paths([SRC])
        assert report.suppressed == []

    def test_scoped_paths_name_existing_files(self):
        # A stale entry would silently narrow RPR002/RPR004 to nothing.
        package = SRC / "repro"
        missing = [
            entry
            for entry in SHARDED_PATHS + SERIALIZATION_PATHS
            if not (package / entry).is_file()
        ]
        assert missing == []

    def test_worker_entry_points_name_existing_functions(self):
        # CallGraph.reachable ignores unknown roots, so a renamed entry
        # point would silently narrow RPR101 to nothing.
        files = []
        for path in sorted(SRC.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            files.append((str(path.relative_to(REPO_ROOT)), source, ast.parse(source)))
        graph = CallGraph.build(Project.build(files))
        missing = [name for name in WORKER_ENTRY_POINTS if name not in graph.functions]
        assert missing == []

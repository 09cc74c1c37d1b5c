"""Tests for the flow rules RPR101–RPR104 and the self-scan pin.

Each rule gets matched good/bad fixture pairs: the bad variant must be
flagged at the right line, the good variant — including every dynamic
construct the analysis cannot resolve — must produce **no** finding
(conservatism is part of the contract, not an accident).
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import (
    DEFAULT_RULES,
    ExceptionContractRule,
    ForkSafetyRule,
    ResourceLifecycleRule,
    SharedStateRule,
    lint_paths,
    lint_source,
    lint_sources,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def codes(report):
    """Sorted finding codes of a report."""
    return sorted(finding.code for finding in report.findings)


# ---------------------------------------------------------------------- #
# RPR101 — shared state in worker-reachable code                         #
# ---------------------------------------------------------------------- #


class TestSharedStateRule:
    RULE = SharedStateRule(extra_entry_points=("repro.core.work.worker",))

    def run(self, source: str, path: str = "repro/core/work.py"):
        return lint_sources([(path, source)], [self.RULE])

    def test_global_rebind_in_worker_is_flagged(self):
        report = self.run(
            "COUNTER = 0\n"
            "def worker():\n"
            "    global COUNTER\n"
            "    COUNTER = COUNTER + 1\n"
        )
        assert codes(report) == ["RPR101"]
        assert "COUNTER" in report.findings[0].message

    def test_mutating_method_on_module_state_is_flagged(self):
        report = self.run(
            "RESULTS = []\n"
            "def worker():\n"
            "    RESULTS.append(1)\n"
        )
        assert codes(report) == ["RPR101"]
        assert ".append()" in report.findings[0].message

    def test_write_through_one_hop_alias_is_flagged(self):
        report = self.run(
            "TABLE = {}\n"
            "def worker():\n"
            "    entries = TABLE\n"
            "    entries['k'] = 1\n"
        )
        assert codes(report) == ["RPR101"]

    def test_transitively_reached_writer_is_flagged(self):
        report = self.run(
            "STATE = {}\n"
            "def worker():\n"
            "    return _helper()\n"
            "def _helper():\n"
            "    STATE['k'] = 1\n"
        )
        assert codes(report) == ["RPR101"]
        assert "_helper" in report.findings[0].message

    def test_local_state_is_clean(self):
        report = self.run(
            "def worker():\n"
            "    results = []\n"
            "    results.append(1)\n"
            "    return results\n"
        )
        assert report.findings == []

    def test_unreachable_writer_is_clean(self):
        # Same write, but nothing connects it to a worker entry point.
        report = self.run(
            "STATE = {}\n"
            "def worker():\n"
            "    return 1\n"
            "def offline_maintenance():\n"
            "    STATE.clear()\n"
        )
        assert report.findings == []

    def test_obs_layer_is_allowlisted(self):
        # The observability layer is per-process context by contract.
        rule = SharedStateRule(extra_entry_points=("repro.obs.ctx.worker",))
        report = lint_sources(
            [("repro/obs/ctx.py", "ACTIVE = None\ndef worker():\n    global ACTIVE\n    ACTIVE = 1\n")],
            [rule],
        )
        assert report.findings == []


# ---------------------------------------------------------------------- #
# RPR102 — typed errors at the public surface                            #
# ---------------------------------------------------------------------- #


class TestExceptionContractRule:
    def run(self, source: str, path: str = "repro/core/api.py"):
        return lint_sources([(path, source)], [ExceptionContractRule()])

    def test_exported_function_raising_valueerror_is_flagged(self):
        report = self.run(
            "__all__ = ['entry']\n"
            "def entry(x):\n"
            "    raise ValueError('bad')\n"
        )
        assert codes(report) == ["RPR102"]
        assert "ValueError" in report.findings[0].message

    def test_transitive_helper_raising_runtimeerror_is_flagged(self):
        report = self.run(
            "__all__ = ['entry']\n"
            "def entry(x):\n"
            "    return _helper(x)\n"
            "def _helper(x):\n"
            "    raise RuntimeError('boom')\n"
        )
        assert codes(report) == ["RPR102"]
        assert "_helper" in report.findings[0].message

    def test_exported_class_methods_are_roots(self):
        report = self.run(
            "__all__ = ['Api']\n"
            "class Api:\n"
            "    def call(self):\n"
            "        raise ValueError('bad')\n"
        )
        assert codes(report) == ["RPR102"]

    def test_project_typed_error_is_clean(self):
        report = lint_sources(
            [
                (
                    "repro/core/errors.py",
                    "class SchedulingError(Exception):\n    pass\n",
                ),
                (
                    "repro/core/api.py",
                    "from repro.core.errors import SchedulingError\n"
                    "__all__ = ['entry']\n"
                    "def entry(x):\n"
                    "    raise SchedulingError('typed')\n",
                ),
            ],
            [ExceptionContractRule()],
        )
        assert report.findings == []

    def test_allowed_builtins_are_clean(self):
        # KeyError/TypeError are the idiomatic contract of lookups and
        # argument checks; the OSError family reports real I/O failures.
        report = self.run(
            "__all__ = ['entry']\n"
            "def entry(mapping, key):\n"
            "    if key not in mapping:\n"
            "        raise KeyError(key)\n"
            "    if not isinstance(key, str):\n"
            "        raise TypeError('key must be str')\n"
            "    raise OSError('disk gone')\n"
        )
        assert report.findings == []

    def test_dynamic_raise_degrades_to_no_finding(self):
        report = self.run(
            "__all__ = ['entry']\n"
            "def entry(errors):\n"
            "    raise errors[0]\n"
        )
        assert report.findings == []

    def test_private_function_raising_is_clean(self):
        report = self.run(
            "__all__ = ['entry']\n"
            "def entry(x):\n"
            "    return x\n"
            "def _internal(x):\n"
            "    raise ValueError('never public')\n"
        )
        assert report.findings == []


# ---------------------------------------------------------------------- #
# RPR103 — fork safety                                                   #
# ---------------------------------------------------------------------- #


class TestForkSafetyRule:
    def run(self, source: str):
        return lint_source(source, "repro/sim/ship.py", [ForkSafetyRule()])

    def test_file_shipped_through_pool_is_flagged(self):
        report = self.run(
            "import multiprocessing\n"
            "def driver(fn):\n"
            "    handle = open('log.txt')\n"
            "    pool = multiprocessing.Pool(2)\n"
            "    pool.map(fn, [handle])\n"
        )
        assert codes(report) == ["RPR103"]
        assert "'handle'" in report.findings[0].message

    def test_lock_in_process_args_is_flagged(self):
        report = self.run(
            "import threading\n"
            "from multiprocessing import Process\n"
            "def driver(fn):\n"
            "    lock = threading.Lock()\n"
            "    Process(target=fn, args=(lock,)).start()\n"
        )
        assert codes(report) == ["RPR103"]

    def test_closure_capturing_file_is_flagged(self):
        report = self.run(
            "import multiprocessing\n"
            "def driver():\n"
            "    sink = open('out.txt', 'w')\n"
            "    def task(x):\n"
            "        sink.write(str(x))\n"
            "    pool = multiprocessing.Pool(2)\n"
            "    pool.map(task, [1, 2])\n"
        )
        assert codes(report) == ["RPR103"]
        assert "closure" in report.findings[0].message

    def test_pipe_connection_in_process_args_is_flagged(self):
        report = self.run(
            "from multiprocessing import Pipe, Process\n"
            "def driver(fn):\n"
            "    parent, child = Pipe()\n"
            "    Process(target=fn, args=(child,)).start()\n"
            "    return parent\n"
        )
        assert codes(report) == ["RPR103"]
        assert "'child' (a pipe)" in report.findings[0].message

    def test_pipe_through_pool_is_flagged(self):
        report = self.run(
            "import multiprocessing\n"
            "from multiprocessing import Pipe\n"
            "def driver(fn):\n"
            "    parent, child = Pipe()\n"
            "    pool = multiprocessing.Pool(2)\n"
            "    pool.apply_async(fn, (child,))\n"
        )
        assert codes(report) == ["RPR103"]

    def test_plain_values_are_clean(self):
        report = self.run(
            "import multiprocessing\n"
            "def driver(fn, paths):\n"
            "    pool = multiprocessing.Pool(2)\n"
            "    pool.map(fn, paths)\n"
        )
        assert report.findings == []

    def test_unknown_receiver_degrades_to_no_finding(self):
        # .map() on something the analysis cannot prove is a pool.
        report = self.run(
            "def driver(executor, fn):\n"
            "    handle = open('log.txt')\n"
            "    executor.map(fn, [handle])\n"
        )
        assert codes(report) == []


# ---------------------------------------------------------------------- #
# RPR104 — resource lifecycle                                            #
# ---------------------------------------------------------------------- #


class TestResourceLifecycleRule:
    def run(self, source: str):
        return lint_source(source, "repro/sim/files.py", [ResourceLifecycleRule()])

    def test_bare_open_is_flagged(self):
        report = self.run(
            "def loader(path):\n"
            "    handle = open(path)\n"
            "    return handle.read()\n"
        )
        assert codes(report) == ["RPR104"]

    def test_with_block_is_clean(self):
        report = self.run(
            "def loader(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )
        assert report.findings == []

    def test_try_finally_both_placements_are_clean(self):
        inside = (
            "def loader(path):\n"
            "    try:\n"
            "        handle = open(path)\n"
            "        return handle.read()\n"
            "    finally:\n"
            "        handle.close()\n"
        )
        sibling = (
            "def loader(path):\n"
            "    handle = open(path)\n"
            "    try:\n"
            "        return handle.read()\n"
            "    finally:\n"
            "        handle.close()\n"
        )
        assert self.run(inside).findings == []
        assert self.run(sibling).findings == []

    def test_ownership_transfer_is_clean(self):
        report = self.run(
            "def opener(path):\n"
            "    return open(path)\n"
            "class Sink:\n"
            "    def __init__(self, path):\n"
            "        self._handle = open(path, 'a')\n"
            "    def close(self):\n"
            "        self._handle.close()\n"
        )
        assert report.findings == []

    def test_tempdir_with_cleanup_in_finally_is_clean(self):
        report = self.run(
            "import tempfile\n"
            "def scratch(work):\n"
            "    staging = tempfile.TemporaryDirectory()\n"
            "    try:\n"
            "        return work(staging.name)\n"
            "    finally:\n"
            "        staging.cleanup()\n"
        )
        assert report.findings == []

    def test_unclosed_tempfile_is_flagged(self):
        report = self.run(
            "import tempfile\n"
            "def scratch():\n"
            "    spool = tempfile.NamedTemporaryFile()\n"
            "    spool.write(b'x')\n"
        )
        assert codes(report) == ["RPR104"]


# ---------------------------------------------------------------------- #
# Self-scan pin                                                          #
# ---------------------------------------------------------------------- #


class TestSelfScan:
    def test_src_tree_is_clean_with_zero_suppressions(self):
        """The full rule set over the repo's own src/ tree: self-clean.

        Zero findings *and* zero suppressions — the tree earns its clean
        bill without a single ``repro-lint: disable`` escape hatch, so
        any new finding is a regression in the code, not noise.
        """
        report = lint_paths([REPO_SRC], DEFAULT_RULES)
        rendered = [finding.render() for finding in report.findings]
        assert rendered == []
        assert report.suppressed == []
        assert report.exit_code == 0
        assert report.files_checked == len(list(REPO_SRC.rglob("*.py")))

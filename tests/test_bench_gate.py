"""Tests for the perf-regression gate and the bench history log.

The gate (``benchmarks/gate.py``) is what CI runs after re-measuring
the EXP-SPEEDUP workload, so its exit-code contract is pinned here:
0 within tolerance, 1 regressed, 2 unusable input.  The history log
(``record_history``) is the append-only trail those comparisons read.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import benchmarks.conftest as bench_conftest
from benchmarks.gate import GateError, evaluate, load_metric, main
from repro.obs import clock


def write_doc(path: Path, value: float) -> str:
    path.write_text(
        json.dumps({"experiment_workload": {"index_speedup": value}}) + "\n",
        encoding="utf-8",
    )
    return str(path)


GATE_ARGS = ["--section", "experiment_workload", "--metric", "index_speedup"]


class TestEvaluate:
    def test_within_tolerance_passes(self):
        ok, verdict = evaluate(6.0, 5.0, 0.25, "higher")
        assert ok
        assert "floor 4.5" in verdict

    def test_regression_past_tolerance_fails(self):
        ok, _ = evaluate(6.0, 4.0, 0.25, "higher")
        assert not ok

    def test_improvement_always_passes(self):
        ok, verdict = evaluate(6.0, 9.0, 0.25, "higher")
        assert ok
        assert "+50.0%" in verdict

    def test_lower_is_better_direction(self):
        ok, _ = evaluate(1.0, 1.2, 0.25, "lower")
        assert ok
        ok, _ = evaluate(1.0, 1.3, 0.25, "lower")
        assert not ok


class TestLoadMetric:
    def test_reads_bench_document(self, tmp_path):
        path = write_doc(tmp_path / "bench.json", 6.5)
        assert load_metric(path, "experiment_workload", "index_speedup") == 6.5

    def test_missing_metric_raises(self, tmp_path):
        path = write_doc(tmp_path / "bench.json", 6.5)
        with pytest.raises(GateError, match="missing"):
            load_metric(path, "experiment_workload", "nope")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GateError, match="cannot read"):
            load_metric(str(tmp_path / "nope.json"), "s", "m")

    def test_non_numeric_value_raises(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"s": {"m": "fast"}}', encoding="utf-8")
        with pytest.raises(GateError, match="not a number"):
            load_metric(str(path), "s", "m")

    def test_history_latest_entry_wins(self, tmp_path):
        path = tmp_path / "history.jsonl"
        lines = [
            {"section": "experiment_workload", "values": {"index_speedup": 5.0}},
            {"section": "other", "values": {"index_speedup": 99.0}},
            {"section": "experiment_workload", "values": {"index_speedup": 6.6}},
        ]
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        assert load_metric(str(path), "experiment_workload", "index_speedup") == 6.6

    def test_history_without_matching_entry_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"section": "other", "values": {}}\n', encoding="utf-8")
        with pytest.raises(GateError, match="no history entry"):
            load_metric(str(path), "experiment_workload", "index_speedup")


class TestMain:
    def test_pass_exits_zero(self, tmp_path, capsys):
        baseline = write_doc(tmp_path / "base.json", 6.6)
        candidate = write_doc(tmp_path / "cand.json", 6.2)
        code = main(["--baseline", baseline, "--candidate", candidate] + GATE_ARGS)
        assert code == 0
        assert "bench-gate PASS" in capsys.readouterr().out

    def test_synthetic_regression_exits_one(self, tmp_path, capsys):
        baseline = write_doc(tmp_path / "base.json", 6.6)
        candidate = write_doc(tmp_path / "cand.json", 3.0)
        code = main(["--baseline", baseline, "--candidate", candidate] + GATE_ARGS)
        assert code == 1
        assert "bench-gate FAIL" in capsys.readouterr().err

    def test_unusable_input_exits_two(self, tmp_path, capsys):
        baseline = write_doc(tmp_path / "base.json", 6.6)
        code = main(
            ["--baseline", baseline, "--candidate", str(tmp_path / "nope.json")]
            + GATE_ARGS
        )
        assert code == 2
        assert "bench-gate error" in capsys.readouterr().err

    def test_negative_tolerance_exits_two(self, tmp_path):
        baseline = write_doc(tmp_path / "base.json", 6.6)
        code = main(
            ["--baseline", baseline, "--candidate", baseline, "--tolerance", "-1"]
            + GATE_ARGS
        )
        assert code == 2

    def test_history_baseline_gates_candidate(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text(
            json.dumps(
                {"section": "experiment_workload", "values": {"index_speedup": 6.6}}
            )
            + "\n",
            encoding="utf-8",
        )
        candidate = write_doc(tmp_path / "cand.json", 3.0)
        code = main(
            ["--baseline", str(history), "--candidate", candidate] + GATE_ARGS
        )
        assert code == 1


class TestRecordHistory:
    def test_appends_timestamped_compact_line(self, tmp_path, monkeypatch):
        history = tmp_path / "BENCH_history.jsonl"
        monkeypatch.setattr(bench_conftest, "HISTORY_PATH", str(history))
        with clock.freeze(at=1234.5):
            bench_conftest.record_history("x", "workload", {"speedup": 6.0})
            bench_conftest.record_history("x", "workload", {"speedup": 6.1})
        lines = history.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert entry["recorded_at"] == 1234.5
        assert entry["section"] == "workload"
        assert entry["values"] == {"speedup": 6.0}
        # compact, key-sorted encoding: byte-stable across runs
        assert lines[0] == json.dumps(
            entry, separators=(",", ":"), sort_keys=True
        )

    def test_record_baseline_also_appends_history(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_conftest, "REPO_ROOT", str(tmp_path))
        monkeypatch.setattr(
            bench_conftest, "HISTORY_PATH", str(tmp_path / "BENCH_history.jsonl")
        )
        bench_conftest.record_baseline("demo", "workload", {"speedup": 5.5})
        document = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert document["workload"] == {"speedup": 5.5}
        history = (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
        assert len(history) == 1
        assert json.loads(history[0])["values"] == {"speedup": 5.5}

    def test_committed_history_seeds_the_gate(self):
        # The repo ships a first entry so CI's very first gated run has a
        # trajectory to compare against.
        repo_history = Path(bench_conftest.HISTORY_PATH)
        assert repo_history.exists()
        value = load_metric(
            str(repo_history), "experiment_workload", "index_speedup"
        )
        assert value > 0


class TestShardGate:
    """Any ``--section``/``--metric`` pair rides the same gate.

    Exercised with the shape of the retired EXP-SHARD ``shard_speedup``
    gate (a noisy multi-process speedup gated at tolerance 0.5), whose
    entries ``BENCH_history.jsonl`` keeps as history.
    """

    SHARD_ARGS = ["--section", "shard_workload", "--metric", "shard_speedup"]

    def write_shard_doc(self, path: Path, value: float) -> str:
        path.write_text(
            json.dumps({"shard_workload": {"shard_speedup": value}}) + "\n",
            encoding="utf-8",
        )
        return str(path)

    def write_history(self, path: Path, value: float) -> str:
        path.write_text(
            json.dumps({"section": "shard_workload", "values": {"shard_speedup": value}})
            + "\n",
            encoding="utf-8",
        )
        return str(path)

    def test_regressed_shard_speedup_fails_the_gate(self, tmp_path, capsys):
        history = self.write_history(tmp_path / "history.jsonl", 2.8)
        candidate = self.write_shard_doc(tmp_path / "cand.json", 1.1)
        code = main(
            ["--baseline", history, "--candidate", candidate, "--tolerance", "0.5"]
            + self.SHARD_ARGS
        )
        assert code == 1
        assert "bench-gate FAIL" in capsys.readouterr().err

    def test_noisy_but_healthy_shard_speedup_passes(self, tmp_path, capsys):
        # Tolerance 0.5 on a 2.8x baseline admits candidates down to 1.4x.
        history = self.write_history(tmp_path / "history.jsonl", 2.8)
        candidate = self.write_shard_doc(tmp_path / "cand.json", 1.5)
        code = main(
            ["--baseline", history, "--candidate", candidate, "--tolerance", "0.5"]
            + self.SHARD_ARGS
        )
        assert code == 0
        assert "bench-gate PASS" in capsys.readouterr().out

"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

import repro.cli
from repro import obs
from repro.cli import build_parser, main
from repro.core import SchedulingError


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.objective == "time"
        assert args.iterations == 1000
        assert args.rho == 1.0

    def test_figures_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures"])

    def test_figures_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "7"])

    def test_all_subcommands_have_handlers(self):
        parser = build_parser()
        extras = {
            "figures": ["--figure", "4"],
            "sweep": ["--parameter", "slot_count", "--values", "125"],
            "stats": ["t.jsonl"],
            "explain": ["t.jsonl", "--job", "j"],
            "profile": ["t.jsonl"],
        }
        for command in (
            "experiment", "figures", "example", "complexity", "vo", "report", "sweep",
            "stats", "explain", "profile",
        ):
            args = parser.parse_args([command] + extras.get(command, []))
            assert callable(args.handler)

    def test_sweep_requires_parameter_and_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--values", "1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--parameter", "slot_count"])


class TestCommands:
    def test_example_command_prints_gantt(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "cpu6" in out
        assert "alternatives" in out

    def test_example_command_alp(self, capsys):
        assert main(["example", "--algorithm", "alp"]) == 0
        out = capsys.readouterr().out
        assert "ALP" in out

    def test_experiment_command_small(self, capsys):
        assert main(["experiment", "--iterations", "12", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "alternatives per job" in out

    def test_experiment_workers_flag(self, capsys):
        assert (
            main(["experiment", "--iterations", "12", "--seed", "5", "--workers", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "alternatives per job" in out

    def test_seed_not_worker_count_picks_the_series(self, capsys):
        argv = ["experiment", "--iterations", "40", "--seed", "5"]
        outputs = []
        for workers in ([], ["--workers", "1"], ["--workers", "2"]):
            assert main(argv + workers) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_experiment_rejects_zero_workers(self, capsys):
        assert (
            main(["experiment", "--iterations", "4", "--seed", "5", "--workers", "0"])
            == 2
        )
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--iterations", "0"],
            ["experiment", "--iterations", "-3"],
            ["experiment", "--iterations", "4", "--workers", "-1"],
            ["experiment", "--iterations", "4", "--rho", "0"],
            ["experiment", "--iterations", "4", "--mtbf", "0"],
            ["experiment", "--iterations", "4", "--mtbf", "nan"],
            ["experiment", "--iterations", "4", "--mttr", "-2.5"],
            ["experiment", "--iterations", "4", "--mttr", "inf"],
            ["vo", "--mtbf", "0"],
            ["vo", "--mttr", "-1"],
            ["vo", "--max-pending", "0"],
        ],
    )
    def test_non_positive_parameters_exit_2_with_diagnosis(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "must be a positive" in err

    def test_resume_without_checkpoint_exits_2(self, capsys):
        assert main(["experiment", "--iterations", "4", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_experiment_cost_objective(self, capsys):
        assert (
            main(["experiment", "--objective", "cost", "--iterations", "12", "--seed", "5"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_figures_command(self, capsys):
        assert main(["figures", "--figure", "5", "--iterations", "12", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out

    def test_complexity_command(self, capsys):
        assert main(["complexity", "--sizes", "100", "200", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "backfill ms" in out

    def test_complexity_command_prints_the_sweep(self, capsys, monkeypatch):
        # The table must come from the EXP-CPLX sweep (unsatisfiable
        # request, worst-case scans), not from a private timing loop.
        from repro.sim import reporting

        calls = []

        def fake_sweep(sizes, *, seed, repeats):
            calls.append((sizes, seed, repeats))
            return [
                reporting.ComplexityPoint(algorithm=name, slots=size, seconds=seconds)
                for size in sizes
                for name, seconds in (("ALP", 0.001), ("AMP", 0.002), ("backfill", 0.004))
            ]

        monkeypatch.setattr(reporting, "complexity_sweep", fake_sweep)
        argv = ["complexity", "--sizes", "300", "600", "--repeats", "2", "--seed", "9"]
        assert main(argv) == 0
        assert calls == [((300, 600), 9, 2)]
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        for size in ("300", "600"):
            assert [size, "1.000", "2.000", "4.000"] in [
                [cell for cell in row if cell != "|"] for row in rows
            ]

    def test_sweep_command(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--parameter", "slot_count",
                    "--values", "125",
                    "--iterations", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "slot_count" in out
        assert "time gain" in out

    def test_vo_command(self, capsys):
        assert main(["vo", "--until", "600", "--jobs", "4", "--nodes", "6"]) == 0
        out = capsys.readouterr().out
        assert "scheduled" in out
        assert "utilization" in out
        assert "owner income:" in out


class TestTelemetryOptions:
    @pytest.fixture(autouse=True)
    def _inert_telemetry(self):
        obs.disable()
        yield
        obs.disable()

    def test_metrics_flag_prints_summary(self, capsys):
        assert main(["experiment", "--iterations", "8", "--seed", "5", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "search.slots_scanned{algo=alp}" in out
        assert "search.slots_scanned{algo=amp}" in out
        assert "search.windows_collected{algo=alp}" in out
        assert "search.windows_collected{algo=amp}" in out
        assert "search.windows_found" not in out
        assert "dp.table_cells" in out

    def test_trace_writes_parseable_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "vo.jsonl"
        assert (
            main(
                [
                    "vo", "--until", "400", "--jobs", "3", "--nodes", "6",
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        lines = trace.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "meta"
        assert records[0]["format"] == obs.TRACE_FORMAT
        kinds = {record["kind"] for record in records}
        assert {"counter", "span"} <= kinds
        data = obs.read_trace(str(trace))
        assert data.metric_value("meta.iterations") >= 1

    def test_trace_replays_through_stats(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["example", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "counters and gauges" in out
        assert "search.slots_scanned" in out
        assert "cli.example" in out

    def test_stats_missing_file_exits_nonzero(self, capsys):
        assert main(["stats", "/nonexistent/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_truncated_trace_diagnosed_in_one_line(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["example", "--trace", str(trace)]) == 0
        capsys.readouterr()
        # Chop the trailing record in half, as a mid-append SIGKILL would.
        text = trace.read_text()
        trace.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        assert main(["stats", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "truncated trailing record" in err
        # One diagnostic line, no traceback.
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_stats_non_object_line_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('"just a string"\n')
        assert main(["stats", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "expected a JSON object" in err
        assert "Traceback" not in err

    def test_trace_unwritable_path_exits_nonzero(self, capsys):
        assert main(["example", "--trace", "/nonexistent-dir/t.jsonl"]) == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_telemetry_disabled_after_run(self, capsys):
        assert main(["example", "--metrics"]) == 0
        assert not obs.telemetry_enabled()

    def test_default_run_keeps_telemetry_off(self, capsys):
        assert main(["example"]) == 0
        assert not obs.telemetry_enabled()
        assert "telemetry summary" not in capsys.readouterr().out


class TestDecisionCommands:
    """The shard-aware trace commands: stats --merge, explain, profile."""

    @pytest.fixture(autouse=True)
    def _inert_telemetry(self):
        obs.disable()
        yield
        obs.disable()

    @pytest.fixture(scope="class")
    def shards(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("shards") / "run.jsonl"
        assert (
            main(
                [
                    "experiment", "--iterations", "6", "--seed", "7",
                    "--workers", "2", "--trace", str(base),
                ]
            )
            == 0
        )
        obs.disable()
        return [str(base.parent / f"run.w{worker}.jsonl") for worker in range(2)]

    def test_parallel_trace_prints_shard_hint(self, capsys, tmp_path):
        base = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "experiment", "--iterations", "4", "--seed", "7",
                    "--workers", "2", "--trace", str(base),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "per-worker trace shards" in err
        assert "--merge" in err
        assert (tmp_path / "run.w0.jsonl").exists()
        assert (tmp_path / "run.w1.jsonl").exists()

    def test_stats_merge_renders_combined_summary(self, capsys, shards):
        assert main(["stats", "--merge"] + shards) == 0
        out = capsys.readouterr().out
        assert "counters and gauges" in out
        assert "search.slots_scanned" in out

    def test_stats_multiple_files_implies_merge(self, capsys, shards):
        assert main(["stats"] + shards) == 0
        assert "search.batches" in capsys.readouterr().out

    def test_empty_trace_exits_2_with_one_line_diagnostic(self, capsys, tmp_path):
        trace = tmp_path / "empty.jsonl"
        telemetry = obs.configure()
        obs.write_trace(str(trace), telemetry)
        obs.disable()
        assert main(["stats", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "no records" in err
        assert "REPRO_TELEMETRY" in err
        assert len(err.strip().splitlines()) == 1

    def test_explain_reproduces_decision_path(self, capsys, shards):
        assert main(["explain"] + shards + ["--job", "b1-j0"]) == 0
        out = capsys.readouterr().out
        assert "b1-j0" in out
        assert "search.alternative_accepted" in out
        assert "records" in out

    def test_explain_iteration_filter_narrows_output(self, capsys, shards):
        assert (
            main(["explain"] + shards + ["--job", "b1-j0", "--iteration", "0"]) == 0
        )
        filtered = capsys.readouterr().out
        assert main(["explain"] + shards + ["--job", "b1-j0"]) == 0
        unfiltered = capsys.readouterr().out
        assert len(filtered) < len(unfiltered)

    def test_explain_unknown_job_notes_no_decisions(self, capsys, shards):
        assert main(["explain", shards[0], "--job", "ghost-job"]) == 0
        assert "no decisions" in capsys.readouterr().out

    def test_profile_renders_phase_shares(self, capsys, shards):
        assert main(["profile", "--merge"] + shards) == 0
        out = capsys.readouterr().out
        assert "phase1.scan" in out
        assert "%" in out


class TestErrorHandling:
    def test_scheduling_error_maps_to_exit_code_2(self, capsys, monkeypatch):
        def explode(args):
            raise SchedulingError("synthetic failure")

        monkeypatch.setattr(repro.cli, "_cmd_example", explode)
        assert main(["example"]) == 2
        assert "synthetic failure" in capsys.readouterr().err


class TestReportOutput:
    def test_output_writes_file(self, capsys, tmp_path):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--iterations", "4", "--output", str(target)]) == 0
        out = capsys.readouterr().out
        assert str(target) in out
        assert "paper vs. measured" in target.read_text()

    def test_output_unwritable_path_exits_nonzero(self, capsys):
        assert (
            main(["report", "--iterations", "4", "--output", "/nonexistent-dir/r.md"])
            == 2
        )
        assert "cannot write report" in capsys.readouterr().err

"""Tests for the command-line front end."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_returns_error_code(self, capsys) -> None:
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestCommands:
    def test_quickstart(self, capsys) -> None:
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "declared deadlock" in out
        assert "verified" in out

    def test_workloads_lists_every_family(self, capsys) -> None:
        from repro.workloads import family_names

        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in family_names():
            assert f"{name}: " in out
        assert "deadlock-capable" in out
        assert "example: " in out

    def test_workloads_filters_by_model(self, capsys) -> None:
        assert main(["workloads", "--model", "ddb"]) == 0
        out = capsys.readouterr().out
        assert "ddb-mix: " in out
        assert "cycle: " not in out

    def test_workloads_unknown_model_exits_1(self, capsys) -> None:
        assert main(["workloads", "--model", "nope"]) == 1
        assert "no registered workload family" in capsys.readouterr().out

    def test_ddb_demo(self, capsys) -> None:
        assert main(["ddb-demo"]) == 0
        out = capsys.readouterr().out
        assert "declared" in out
        assert "no deadlock remains" in out

    def test_or_demo(self, capsys) -> None:
        assert main(["or-demo"]) == 0
        out = capsys.readouterr().out
        assert "OR-deadlock" in out
        assert "verified" in out

    def test_timeline(self, capsys) -> None:
        assert main(["timeline"]) == 0
        out = capsys.readouterr().out
        assert "requests" in out
        assert "DECLARES DEADLOCK" in out

    def test_verify(self, capsys) -> None:
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "FAILED" not in out

    def test_experiment_quick(self, capsys) -> None:
        assert main(["experiment", "E4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E4" in out
        assert "within bound" in out

    def test_experiment_lowercase_name(self, capsys) -> None:
        assert main(["experiment", "e4", "--quick"]) == 0
        assert "E4" in capsys.readouterr().out

    def test_spans(self, capsys) -> None:
        assert main(["spans"]) == 0
        out = capsys.readouterr().out
        assert "probe computations" in out
        assert "deadlock" in out
        assert "section 4 bounds OK" in out

    def test_spans_other_scenarios(self, capsys) -> None:
        assert main(["spans", "--scenario", "chain", "--n", "4"]) == 0
        assert "fizzled" in capsys.readouterr().out
        assert main(["spans", "--scenario", "ping-pong"]) == 0
        assert "superseded" in capsys.readouterr().out

    def test_trace_jsonl_round_trips(self, capsys) -> None:
        from repro.obs.export import events_from_jsonl

        assert main(["trace", "--format", "jsonl"]) == 0
        events = events_from_jsonl(capsys.readouterr().out)
        assert events
        assert any(e.category == "basic.deadlock.declared" for e in events)

    def test_trace_chrome_to_file(self, tmp_path, capsys) -> None:
        import json

        from repro.obs.export import validate_chrome

        out_path = tmp_path / "trace.json"
        assert main(["trace", "--format", "chrome", "--out", str(out_path)]) == 0
        assert "written to" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert validate_chrome(document) == []
        assert document["otherData"]["spans"] > 0

    def test_profile(self, capsys) -> None:
        assert main(["profile", "--sample-every", "16"]) == 0
        out = capsys.readouterr().out
        assert "simulator profile" in out
        assert "events/s" in out
        assert "deliver Probe" in out

    def test_experiment_json_export(self, tmp_path, capsys) -> None:
        import json

        assert main(["experiment", "E4", "--quick", "--json", str(tmp_path)]) == 0
        document = json.loads((tmp_path / "e4.json").read_text())
        assert document["experiment"] == "E4"
        assert document["results"]
        assert "json written" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_writes_canonical_document_and_sidecar(self, tmp_path, capsys) -> None:
        import json

        assert main(
            ["sweep", "--grid", "e3", "--quick", "--workers", "2", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        document = json.loads((tmp_path / "BENCH_e3.json").read_text())
        assert document["schema"] == "repro.sweep/1"
        assert document["summary"]["errors"] == 0
        timing = json.loads((tmp_path / "BENCH_e3.timing.json").read_text())
        assert timing["total"]["wall_seconds"] > 0

    def test_sweep_stdout_when_no_out_dir(self, capsys) -> None:
        import json

        assert main(["sweep", "--grid", "e4", "--quick"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        assert json.loads(payload)["grid"] == "e4"

    def test_sweep_unknown_grid_is_an_error(self, capsys) -> None:
        assert main(["sweep", "--grid", "e99"]) == 2
        assert "unknown grid" in capsys.readouterr().out

    def test_sweep_workers_1_vs_2_byte_identical(self, tmp_path) -> None:
        one = tmp_path / "one"
        two = tmp_path / "two"
        assert main(["sweep", "--grid", "e6", "--quick", "--out", str(one)]) == 0
        assert main(
            ["sweep", "--grid", "e6", "--quick", "--workers", "2", "--out", str(two)]
        ) == 0
        assert (one / "BENCH_e6.json").read_bytes() == (two / "BENCH_e6.json").read_bytes()


class TestBenchCommand:
    def test_record_then_check(self, tmp_path, capsys, monkeypatch) -> None:
        from repro.sweep import baseline

        monkeypatch.setattr(
            baseline, "MICRO_BENCHMARKS", {"fake.engine": lambda: (100, 0.001)}
        )
        monkeypatch.setattr(
            baseline, "measure_shapes", lambda grids=("g1",): dict.fromkeys(grids, "abc")
        )
        path = tmp_path / "BENCH_baseline.json"
        assert main(["bench", "record", "--baseline", str(path), "--repeats", "1"]) == 0
        assert "baseline written" in capsys.readouterr().out
        assert main(["bench", "check", "--baseline", str(path), "--repeats", "1"]) == 0
        assert "bench check ok" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys, monkeypatch) -> None:
        from repro.sweep import baseline

        monkeypatch.setattr(
            baseline, "MICRO_BENCHMARKS", {"fake.engine": lambda: (100, 0.001)}
        )
        monkeypatch.setattr(
            baseline, "measure_shapes", lambda grids=("g1",): dict.fromkeys(grids, "abc")
        )
        path = tmp_path / "BENCH_baseline.json"
        assert main(["bench", "record", "--baseline", str(path), "--repeats", "1"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            baseline, "MICRO_BENCHMARKS", {"fake.engine": lambda: (100, 0.1)}
        )
        assert main(["bench", "check", "--baseline", str(path), "--repeats", "1"]) == 1
        assert "BENCH CHECK FAILED" in capsys.readouterr().out


class TestMonitorCommand:
    """`repro run` with its observer flags (console, exports, SLO gate)."""

    FAST = ["--transport", "live", "--interval", "2", "--time-scale", "0.002"]

    def report(self, tmp_path, *argv: str) -> tuple[int, dict]:
        out = tmp_path / "report.json"
        code = main(["run", *argv, "--json-out", str(out), *self.FAST])
        return code, json.loads(out.read_text())

    def test_monitor_json_report(self, tmp_path, capsys) -> None:
        code, document = self.report(tmp_path, "basic")
        assert code == 0
        assert document["schema"] == "repro.run-report/1"
        assert document["ok"] and document["detected"]
        assert document["transport"] == "live"

    def test_monitor_console_and_exports(self, tmp_path, capsys) -> None:
        metrics = tmp_path / "metrics.prom"
        spans = tmp_path / "spans.jsonl"
        assert main(
            [
                "run",
                "basic",
                "--metrics-out",
                str(metrics),
                "--spans-out",
                str(spans),
                *self.FAST,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "[run basic scenario=deadlock transport=live" in out
        assert out.startswith("t=")  # one console line per tick, first
        assert "spans streamed:" in out
        assert "FAILED" not in out
        assert "repro_computations_total" in metrics.read_text()
        assert spans.read_text().strip()

    def test_monitor_clean_scenario(self, tmp_path, capsys) -> None:
        code, document = self.report(tmp_path, "basic", "--scenario", "clean")
        assert code == 0
        assert document["detected"] is False

    def test_monitor_unknown_variant_is_an_error(self, capsys) -> None:
        assert main(["run", "nope", *self.FAST]) == 2
        assert "unknown detector variant" in capsys.readouterr().out

    def test_monitor_impossible_slo_exits_nonzero(self, tmp_path, capsys) -> None:
        code, document = self.report(tmp_path, "basic", "--slo", "1e-9")
        assert code == 1
        assert document["slo_violations"] > 0 and not document["ok"]
        assert "FAILED: " in capsys.readouterr().out

    def test_run_defaults_to_the_simulator(self, capsys) -> None:
        assert main(["run", "ddb", "--scenario", "clean"]) == 0
        assert "transport=sim" in capsys.readouterr().out

    def test_run_failure_exits_1(self, capsys) -> None:
        assert main(["run", "basic", "--scenario", "ddb-mix"]) == 1
        assert "RUN FAILED" in capsys.readouterr().out

    def test_worker_failures_are_listed(self, capsys, monkeypatch) -> None:
        from repro import runner
        from repro.errors import ClusterError, WorkerFailure

        def fail(*args, **kwargs):
            raise ClusterError(
                "cluster worker died",
                (
                    WorkerFailure(0, "p0", "exited", detail="boot\nTraceback: boom"),
                    WorkerFailure(1, "p1", "stopped heartbeating"),
                ),
            )

        monkeypatch.setattr(runner, "run", fail)
        assert main(["run", "basic", "--transport", "cluster"]) == 1
        out = capsys.readouterr().out
        assert "  worker 0 (p0): exited\n    Traceback: boom\n" in out
        assert "  worker 1 (p1): stopped heartbeating\n" in out

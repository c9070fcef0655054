"""Canonical merging and the baseline record/check round trip."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sweep import baseline, canonical_json, merge_results


def fake_results() -> list[dict]:
    return [
        {
            "cell_id": "g/b",
            "status": "ok",
            "outcome": "deadlock",
            "events": 10,
            "probes": 4,
            "unsound": 0,
            "wall_seconds": 0.5,
        },
        {
            "cell_id": "g/a",
            "status": "error",
            "error": "Boom: nope",
            "wall_seconds": 0.1,
        },
    ]


class TestMerge:
    def test_cells_sorted_and_wall_clock_stripped(self) -> None:
        merged = merge_results("g", fake_results())
        assert [cell["cell_id"] for cell in merged["cells"]] == ["g/a", "g/b"]
        assert all("wall_seconds" not in cell for cell in merged["cells"])
        assert merged["schema"] == "repro.sweep/1"
        assert merged["summary"]["errors"] == 1
        assert merged["summary"]["deadlocks"] == 1

    def test_canonical_json_is_sorted_and_newline_terminated(self) -> None:
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"d": 2, "c": 3}}

    def test_merge_is_input_order_independent(self) -> None:
        forward = canonical_json(merge_results("g", fake_results()))
        backward = canonical_json(merge_results("g", fake_results()[::-1]))
        assert forward == backward


@pytest.fixture
def fast_bench(monkeypatch: pytest.MonkeyPatch):
    """Replace the real micro-benchmarks/shapes/calibration with instant fakes.

    ``value`` is the fake micro-benchmark's events/sec on a host whose
    calibration loop runs one op per second, so events per calibration op
    read as events/sec; ``host`` scales the whole machine's speed, the
    calibration loop and the micro-benchmark together.
    """
    speed = {"value": 1000.0, "host": 1.0}
    monkeypatch.setattr(baseline, "calibrate", lambda: speed["host"])
    monkeypatch.setattr(
        baseline,
        "MICRO_BENCHMARKS",
        {"fake.engine": lambda: (100, 100 / (speed["value"] * speed["host"]))},
    )
    monkeypatch.setattr(
        baseline, "measure_shapes", lambda grids=("g1",): dict.fromkeys(grids, "abc123")
    )
    return speed


class TestBaselineRoundTrip:
    def test_record_then_check_passes(self, tmp_path: Path, fast_bench) -> None:
        path = tmp_path / "BENCH_baseline.json"
        document = baseline.record(path, repeats=1)
        assert document["throughput"] == {"fake.engine": 1000.0}
        lines = baseline.check(path, threshold=0.25, repeats=1)
        assert any("fake.engine" in line and "ok" in line for line in lines)

    def test_throughput_regression_fails(
        self, tmp_path: Path, fast_bench, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path = tmp_path / "BENCH_baseline.json"
        baseline.record(path, repeats=1)
        fast_bench["value"] = 500.0  # 2x slower than recorded: beyond 25%
        with pytest.raises(baseline.BenchRegression, match="regressed") as failed:
            baseline.check(path, threshold=0.25, repeats=1)
        # The failure still carries the whole report, and the CLI prints
        # every line of it before the verdict.
        lines = failed.value.lines
        assert len(lines) == 2
        assert "fake.engine" in lines[0] and "x0.50" in lines[0]
        assert "REGRESSION" in lines[0]
        assert "shape g1" in lines[1] and lines[1].endswith("ok")
        argv = ["bench", "check", "--baseline", str(path), "--repeats", "1"]
        assert main(argv) == 1
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"  {line}" for line in lines] + [
            f"BENCH CHECK FAILED: {failed.value}"
        ]

    def test_same_code_on_a_twice_slower_host_passes(
        self, tmp_path: Path, fast_bench
    ) -> None:
        path = tmp_path / "BENCH_baseline.json"
        baseline.record(path, repeats=1)
        fast_bench["host"] = 0.5  # calibration and micro-benchmark both take 2x
        lines = baseline.check(path, threshold=0.25, repeats=1)
        assert any("fake.engine" in line and "x1.00" in line for line in lines)

    def test_twice_slower_code_fails_even_on_a_twice_faster_host(
        self, tmp_path: Path, fast_bench
    ) -> None:
        path = tmp_path / "BENCH_baseline.json"
        baseline.record(path, repeats=1)
        # events/sec is unchanged, so a wall-clock floor would pass it.
        fast_bench["value"] = 500.0
        fast_bench["host"] = 2.0
        with pytest.raises(baseline.BenchRegression, match="regressed"):
            baseline.check(path, threshold=0.25, repeats=1)

    def test_real_micro_benchmark_slowed_twice_fails(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # Real calibration loop and a real micro-benchmark: doing the
        # event-loop benchmark's work twice per reported run must fail.
        monkeypatch.setattr(
            baseline, "measure_shapes", lambda grids=("g1",): dict.fromkeys(grids, "abc")
        )
        event_loop = baseline.MICRO_BENCHMARKS["engine.event_loop"]
        monkeypatch.setattr(baseline, "MICRO_BENCHMARKS", {"engine.event_loop": event_loop})
        path = tmp_path / "BENCH_baseline.json"
        baseline.record(path, repeats=3)

        def twice() -> tuple[int, float]:
            events, first = event_loop()
            _, second = event_loop()
            return events, first + second

        monkeypatch.setattr(baseline, "MICRO_BENCHMARKS", {"engine.event_loop": twice})
        with pytest.raises(baseline.BenchRegression, match="regressed"):
            baseline.check(path, threshold=0.25, repeats=3)

    def test_micro_benchmark_without_a_baseline_fails(
        self, tmp_path: Path, fast_bench, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        path = tmp_path / "BENCH_baseline.json"
        baseline.record(path, repeats=1)
        benchmarks = {**baseline.MICRO_BENCHMARKS, "fake.unrecorded": lambda: (100, 0.1)}
        monkeypatch.setattr(baseline, "MICRO_BENCHMARKS", benchmarks)
        with pytest.raises(baseline.BenchRegression, match="'fake.unrecorded'") as failed:
            baseline.check(path, threshold=0.25, repeats=1)
        assert any(
            "fake.unrecorded" in line and "no baseline" in line
            for line in failed.value.lines
        )

    def test_small_slowdown_within_threshold_passes(
        self, tmp_path: Path, fast_bench
    ) -> None:
        path = tmp_path / "BENCH_baseline.json"
        baseline.record(path, repeats=1)
        fast_bench["value"] = 900.0  # 10% slower: inside the 25% band
        baseline.check(path, threshold=0.25, repeats=1)

    def test_shape_change_fails_with_reset_hint(
        self, tmp_path: Path, fast_bench, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        path = tmp_path / "BENCH_baseline.json"
        baseline.record(path, repeats=1)
        monkeypatch.setattr(
            baseline, "measure_shapes", lambda grids=("g1",): dict.fromkeys(grids, "zzz")
        )
        with pytest.raises(baseline.BenchRegression, match=r"\[bench-reset\]"):
            baseline.check(path, repeats=1)

    def test_unrecognised_schema_fails(self, tmp_path: Path) -> None:
        path = tmp_path / "BENCH_baseline.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(baseline.BenchRegression, match="schema"):
            baseline.check(path)

    def test_real_shape_hash_is_stable(self) -> None:
        assert baseline.shape_hash("e3") == baseline.shape_hash("e3")


class TestCommittedBaseline:
    """The baseline file shipped in-repo stays coherent with the code."""

    def path(self) -> Path:
        return Path(__file__).parents[2] / "benchmarks" / "BENCH_baseline.json"

    def test_committed_baseline_parses_and_covers_everything(self) -> None:
        document = json.loads(self.path().read_text())
        assert document["schema"] == baseline.SCHEMA
        assert set(document["throughput"]) == set(baseline.MICRO_BENCHMARKS)
        from repro.sweep import GRIDS

        assert set(document["shapes"]) == set(GRIDS)

    def test_committed_shapes_match_current_behaviour(self) -> None:
        # The strongest regression guard in the suite: any change to the
        # engine, the experiments, or the sweep serialisation that shifts
        # observable results must re-record BENCH_baseline.json (or push
        # with [bench-reset] in CI).
        document = json.loads(self.path().read_text())
        assert document["shapes"]["e3"] == baseline.shape_hash("e3")
        assert document["shapes"]["e6"] == baseline.shape_hash("e6")

    def test_calibration_loop_is_the_e2e_harness_loop(self) -> None:
        # src/ may not import benchmarks/, so calibrate() is a copy of the
        # e2e harness's; the recorded floors are in that loop's units.
        def calibrate_of(path: Path) -> ast.FunctionDef:
            return next(
                node
                for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "calibrate"
            )

        def loop_body(function: ast.FunctionDef) -> list[str]:
            loop = next(node for node in ast.walk(function) if isinstance(node, ast.For))
            return [ast.dump(statement) for statement in loop.body]

        harness = calibrate_of(self.path().parent / "e2e" / "lanes.py")
        ours = calibrate_of(Path(baseline.__file__))
        assert loop_body(ours) == loop_body(harness)
        (size,) = harness.args.defaults
        assert ast.literal_eval(size) == baseline._CALIBRATION_ITERATIONS

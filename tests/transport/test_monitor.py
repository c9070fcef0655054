"""Monitoring as an observer of :func:`repro.runner.run`, on every transport.

The telemetry bridge, the Prometheus / span-JSONL / snapshot exports,
the console, and the SLO gate attach to whichever backend runs.  Live
and cluster runs use a compressed clock; what is asserted there is
schedule-free (detection, soundness, export file shapes), never an
exact interleaving.  The simulator is deterministic, so its exports are
compared byte for byte.
"""

from __future__ import annotations

import importlib.util
import io
import json
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import pytest

from repro.core.conformance import ConformanceOutcome
from repro.errors import ConfigurationError
from repro.runner import RunReport, run

#: compressed clock, one tick per 2 virtual units: the standard
#: scenarios quiesce within ~10 units, so a run spans several ticks.
FAST = {"transport": "live", "time_scale": 0.002, "interval": 2.0}


def _ci_checker() -> ModuleType:
    """``tools/check_run_report.py``, the CI run-smoke validator."""
    path = Path(__file__).parents[2] / "tools" / "check_run_report.py"
    spec = importlib.util.spec_from_file_location("check_run_report", path)
    assert spec is not None and spec.loader is not None
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


class TestRunMonitor:
    def test_deadlock_run_is_ok_and_detected(self, tmp_path) -> None:
        metrics = tmp_path / "metrics.prom"
        spans = tmp_path / "spans.jsonl"
        snapshots = tmp_path / "snapshots.jsonl"
        report = run(
            "basic",
            "deadlock",
            metrics_out=metrics,
            spans_out=spans,
            snapshots_out=snapshots,
            **FAST,
        )
        assert report.ok and report.detected and report.sound
        assert report.bound_violations == 0
        assert report.ticks >= 2
        assert report.spans_emitted >= 1
        assert report.detection_latencies

        text = metrics.read_text()
        assert "# TYPE repro_messages_total counter" in text
        assert "repro_declarations_total" in text

        streamed = [json.loads(line) for line in spans.read_text().splitlines()]
        assert len(streamed) == report.spans_emitted
        assert "deadlock" in {span["outcome"] for span in streamed}

        snapshot_lines = [
            json.loads(line) for line in snapshots.read_text().splitlines()
        ]
        # one snapshot per tick plus the final flush
        assert len(snapshot_lines) == report.ticks + 1
        assert snapshot_lines[-1]["schema"] == "repro.obs.metrics-snapshot/1"
        sequences = [line["sequence"] for line in snapshot_lines]
        assert sequences == sorted(sequences)

    def test_clean_run_stays_silent_and_ok(self) -> None:
        report = run("basic", "clean", **FAST)
        assert report.ok
        assert not report.detected
        assert report.detection_latencies == ()

    def test_console_stream_renders_ticks(self) -> None:
        console = io.StringIO()
        report = run("basic", "deadlock", console=console, **FAST)
        lines = console.getvalue().splitlines()
        assert len(lines) == report.ticks
        assert all(line.startswith("t=") for line in lines)
        assert "slo=off" in lines[-1]
        assert "declared=" in lines[-1]

    def test_impossible_slo_is_flagged_not_ok(self) -> None:
        report = run("basic", "deadlock", slo=1e-9, **FAST)
        assert report.detected
        assert report.slo_violations == len(report.detection_latencies) > 0
        assert not report.ok

    def test_generous_slo_is_ok(self) -> None:
        report = run("basic", "deadlock", slo=1000.0, **FAST)
        assert report.slo_violations == 0
        assert report.ok

    @pytest.mark.parametrize("name", ["ddb", "ormodel"])
    def test_other_variants_are_monitorable(self, name: str) -> None:
        report = run(name, "deadlock", **FAST)
        assert report.detected and report.sound
        assert report.ok, report.failures

    def test_invalid_arguments_are_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="interval"):
            run("basic", interval=-1.0)
        with pytest.raises(ConfigurationError, match="unknown transport"):
            run("basic", transport="carrier-pigeon")
        with pytest.raises(ConfigurationError, match="unknown detector variant"):
            run("nope")
        with pytest.raises(ConfigurationError, match="overlay"):
            run("timeout", n_vertices=8)
        with pytest.raises(ConfigurationError, match="overlay"):
            run("snapshot", policy="adaptive")

    def test_monitored_sim_run_is_reproducible(self, tmp_path) -> None:
        # on the simulator the exports are a pure function of the seed.
        exports = []
        for attempt in ("a", "b"):
            spans = tmp_path / f"spans-{attempt}.jsonl"
            snapshots = tmp_path / f"snapshots-{attempt}.jsonl"
            report = run(
                "basic",
                "random",
                transport="sim",
                seed=3,
                interval=5.0,
                spans_out=spans,
                snapshots_out=snapshots,
            )
            assert report.ok and report.ticks > 1
            exports.append((spans.read_text(), snapshots.read_text(), report.ticks))
        assert exports[0] == exports[1]
        assert exports[0][0].strip()

    def test_monitored_cluster_run_exports(self, tmp_path) -> None:
        metrics = tmp_path / "metrics.prom"
        spans = tmp_path / "spans.jsonl"
        console = io.StringIO()
        report = run(
            "basic",
            "deadlock",
            transport="cluster",
            time_scale=0.002,
            interval=2.0,
            metrics_out=metrics,
            spans_out=spans,
            console=console,
        )
        assert report.ok and report.detected
        assert report.transport == "cluster"
        assert "repro_computations_total" in metrics.read_text()
        assert len(spans.read_text().splitlines()) == report.spans_emitted
        assert len(console.getvalue().splitlines()) == report.ticks


class TestMonitorReport:
    def make(self, **overrides) -> RunReport:
        defaults = dict(
            variant="basic",
            scenario="deadlock",
            transport="live",
            seed=0,
            outcome=ConformanceOutcome(
                variant="basic",
                scenario="cycle",
                declarations=1,
                soundness_violations=0,
                complete=True,
                undetected_components=0,
                first_declaration_at=3.0,
            ),
            detection_latencies=(2.5,),
            bound_violations=0,
            spans_emitted=2,
            ticks=4,
            messages_delivered=12,
            wall_seconds=1.0,
        )
        defaults.update(overrides)
        return RunReport(**defaults)

    def test_ok_requires_detection_on_deadlock_scenario(self) -> None:
        report = self.make()
        assert report.ok
        missed = self.make(outcome=replace(report.outcome, declarations=0))
        assert not missed.ok
        # ... but a clean scenario is allowed (required, even) to be silent
        clean = self.make(
            scenario="clean",
            outcome=replace(report.outcome, scenario="chain", declarations=0),
            detection_latencies=(),
        )
        assert clean.ok

    def test_ok_fails_on_bound_violations(self) -> None:
        report = self.make(bound_violations=1)
        assert not report.ok
        assert report.failures == ("1 section 4 probe-bound violation(s)",)

    def test_json_document_is_complete(self) -> None:
        document = json.loads(json.dumps(self.make(slo=2.0).to_json()))
        assert document["schema"] == "repro.run-report/1"
        assert document["first_declaration_at"] == 3.0
        assert document["detection_latencies"] == [2.5]
        assert document["slo_violations"] == 1 and not document["ok"]
        for key in ("ok", "detected", "sound", "slo_violations", "ticks", "transport"):
            assert key in document

    def test_ci_schema_check_accepts_real_reports_only(self) -> None:
        checker = _ci_checker()
        document = json.loads(json.dumps(run("ddb", "deadlock").to_json()))
        assert checker.problems(document, detected=True) == []
        assert checker.problems(document, detected=False) == [
            "detected is True, want False"
        ]
        failed = dict(document, ok=False, failures=["boom"])
        assert checker.problems(failed, detected=True) == ["gate failed: ['boom']"]
        assert checker.problems(dict(document, schema="x/1"), detected=True) == [
            "schema is 'x/1', want 'repro.run-report/1'"
        ]
        assert checker.problems(dict(document, transport="cluster"), detected=True) == [
            "cluster run reports no worker processes"
        ]
        assert document["messages_delivered"] > 0
        assert checker.problems(dict(document, messages_delivered=0), detected=True) == [
            "detected with messages_delivered 0, want > 0"
        ]
        missing = {k: v for k, v in document.items() if k != "messages_delivered"}
        assert checker.problems(missing, detected=True) == [
            "detected with messages_delivered None, want > 0"
        ]

    def test_ci_family_check_accepts_current_exports_only(self, tmp_path) -> None:
        checker = _ci_checker()
        metrics = tmp_path / "metrics.prom"
        snapshots = tmp_path / "snapshots.jsonl"
        report = tmp_path / "run-report.json"
        document = run("basic", "deadlock", metrics_out=metrics, snapshots_out=snapshots).to_json()
        report.write_text(json.dumps(document))
        text = metrics.read_text()
        assert checker.family_problems(document, text) == []
        argv = [str(report), "--detected", "true", "--families", str(metrics)]
        assert checker.main([*argv, "--nonempty", str(snapshots)]) == 0

        delivered = document["messages_delivered"]
        lines = text.splitlines()
        no_in_flight = "\n".join(
            line for line in lines if not line.startswith("repro_channel_in_flight{")
        )
        assert checker.family_problems(document, no_in_flight) == [
            f"no repro_channel_in_flight series, but {delivered} messages delivered"
        ]
        no_messages = "\n".join(
            line for line in lines if not line.startswith("repro_messages_total{")
        )
        assert checker.family_problems(document, no_messages) == [
            f"no repro_messages_total series, but {delivered} messages delivered",
            f"repro_messages_total sums to 0, want {delivered} (delivered)",
        ]
        stale = dict(document, messages_delivered=delivered + 1)
        assert checker.family_problems(stale, text) == [
            f"repro_messages_total sums to {delivered}, want {delivered + 1} (delivered)"
        ]
        drained = 'repro_channel_in_flight{src="0",dst="1"} 0'
        assert drained in text
        busy = text.replace(drained, drained[:-1] + "2")
        assert checker.family_problems(document, busy) == [
            "repro_channel_in_flight is nonzero on 1 channel(s) at quiescence"
        ]
        # a run that delivered nothing exports no channel series, and passes
        silent = dict(document, messages_delivered=0)
        assert checker.family_problems(silent, "") == []
        snapshots.write_text("")
        assert checker.main([*argv, "--nonempty", str(snapshots)]) == 1

    def test_ci_count_check_accepts_real_counts_only(self, tmp_path) -> None:
        checker = _ci_checker()
        snapshots = tmp_path / "snapshots.jsonl"
        report = tmp_path / "run-report.json"
        document = run("ddb", "deadlock", snapshots_out=snapshots).to_json()
        report.write_text(json.dumps(document))
        text = snapshots.read_text()
        counts = json.loads(text.splitlines()[-1])["transport_counters"]
        spans = document["spans_emitted"]
        assert counts["ddb.computations.initiated"] == spans > 0
        assert checker.count_problems(document, text) == []
        argv = [str(report), "--detected", "true", "--counts", str(snapshots)]
        assert checker.main(argv) == 0

        forged = dict(document, spans_emitted=spans + 1)
        assert checker.count_problems(forged, text) == [
            f"*.computations.initiated sum to {spans}, want {spans + 1} (spans emitted)"
        ]
        last = json.loads(text.splitlines()[-1])
        zero = json.dumps(dict(last, transport_counters=dict(counts, x=0)))
        assert checker.count_problems(document, zero) == ["count 'x' is 0, want a positive int"]
        assert checker.count_problems(document, "") == ["no snapshot line"]
        snapshots.write_text(text + zero + "\n")
        assert checker.main(argv) == 1

    def test_ci_count_check_holds_only_span_models_to_spans(self, tmp_path) -> None:
        # The OR model's query computations have no span schema, so its
        # initiated count is not held against spans_emitted; a basic count is.
        checker = _ci_checker()
        snapshots = tmp_path / "snapshots.jsonl"
        report = tmp_path / "run-report.json"
        document = run("ormodel", "deadlock", snapshots_out=snapshots).to_json()
        report.write_text(json.dumps(document))
        text = snapshots.read_text()
        counts = json.loads(text.splitlines()[-1])["transport_counters"]
        assert counts["or.computations.initiated"] > 0
        assert document["spans_emitted"] == 0
        assert checker.count_problems(document, text) == []
        argv = [str(report), "--detected", "true", "--counts", str(snapshots)]
        assert checker.main(argv) == 0

        basic_snapshots = tmp_path / "basic-snapshots.jsonl"
        basic = run("basic", "deadlock", snapshots_out=basic_snapshots).to_json()
        last = json.loads(basic_snapshots.read_text().splitlines()[-1])
        counts = last["transport_counters"]
        spans = basic["spans_emitted"]
        assert counts["basic.computations.initiated"] == spans > 0
        bumped = dict(counts, **{"basic.computations.initiated": spans + 1})
        forged = json.dumps(dict(last, transport_counters=bumped))
        assert checker.count_problems(basic, forged) == [
            f"*.computations.initiated sum to {spans + 1}, want {spans} (spans emitted)"
        ]

    def test_ci_trace_check_accepts_real_traces_only(self, tmp_path) -> None:
        checker = _ci_checker()
        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "run-report.json"
        document = run("ddb", "deadlock", trace_out=trace).to_json()
        report.write_text(json.dumps(document))
        text = trace.read_text()
        assert checker.trace_problems(document, text) == []
        argv = [str(report), "--detected", "true", "--trace", str(trace)]
        assert checker.main(argv) == 0

        lines = text.splitlines(keepends=True)

        def first(category: str) -> int:
            return next(
                index
                for index, line in enumerate(lines)
                if json.loads(line)["category"] == category
            )

        def without(index: int) -> str:
            return "".join(lines[:index] + lines[index + 1 :])

        declarations = document["declarations"]
        delivered = document["messages_delivered"]
        spans = document["spans_emitted"]
        assert declarations > 0 and delivered > 0 and spans > 0
        assert checker.trace_problems(
            document, without(first("ddb.deadlock.declared"))
        ) == [
            f"{declarations - 1} *.deadlock.declared record(s), "
            f"want {declarations} (declarations)"
        ]
        assert checker.trace_problems(document, without(first("net.delivered"))) == [
            f"{delivered - 1} net.delivered record(s), want {delivered} (messages_delivered)"
        ]
        repeated = text + lines[first("obs.span.settled")]
        assert checker.trace_problems(document, repeated) == [
            f"{spans + 1} obs.span.settled record(s), want {spans} (spans_emitted)"
        ]
        extra = len(lines) + 1
        assert checker.trace_problems(document, text + '{"time": 1.0}\n') == [
            f"line {extra} lacks a numeric time, a category or details"
        ]
        assert checker.trace_problems(document, text + "{not json}\n") == [
            f"line {extra} is not JSON: Expecting property name enclosed in double quotes"
        ]
        assert checker.trace_problems(document, "") == ["no trace record"]
        trace.write_text(repeated)
        assert checker.main(argv) == 1

    @pytest.mark.parametrize("variant", ["basic", "ddb"])
    def test_ci_edge_probe_check_accepts_real_counts_only(self, tmp_path, variant) -> None:
        checker = _ci_checker()
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        report = tmp_path / "run-report.json"
        document = run(variant, "deadlock", metrics_out=metrics, trace_out=trace).to_json()
        report.write_text(json.dumps(document))
        text, records = metrics.read_text(), trace.read_text()
        sent = sum(
            1
            for line in records.splitlines()
            if json.loads(line)["category"].endswith(".probe.sent")
        )
        assert sent > 0
        assert checker.edge_probe_problems(text, records) == []
        argv = [str(report), "--detected", "true", "--families", str(metrics)]
        assert checker.main([*argv, "--trace", str(trace)]) == 0

        # one probe counted on an edge but never recorded by its handler
        lines = text.splitlines()
        index = next(
            index
            for index, line in enumerate(lines)
            if line.startswith("repro_edge_probes_total{")
        )
        labels, _, value = lines[index].rpartition(" ")
        lines[index] = f"{labels} {int(value) + 1}"
        forged = "\n".join(lines) + "\n"
        assert checker.edge_probe_problems(forged, records) == [
            f"repro_edge_probes_total sums to {sent + 1}, want {sent} (*.probe.sent records)"
        ]
        metrics.write_text(forged)
        assert checker.main([*argv, "--trace", str(trace)]) == 1
        # the check needs both files; the families alone still pass
        assert checker.main(argv) == 0

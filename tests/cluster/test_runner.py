"""The run path on the cluster transport: gates, JSON artifact, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.conformance import ConformanceOutcome
from repro.errors import ConfigurationError
from repro.runner import RunReport, run

TIME_SCALE = 0.002


def _report(**overrides) -> RunReport:
    outcome_fields = {
        "variant": "basic",
        "scenario": "cycle",
        "declarations": 2,
        "soundness_violations": 0,
        "complete": True,
        "undetected_components": 0,
        "first_declaration_at": 10.0,
    }
    outcome_fields.update(overrides.pop("outcome", {}))
    outcome = ConformanceOutcome(**outcome_fields)
    fields = {
        "variant": "basic",
        "scenario": "deadlock",
        "transport": "cluster",
        "seed": 0,
        "outcome": outcome,
        "detection_latencies": (4.0, 6.0),
        "bound_violations": 0,
        "spans_emitted": 4,
        "ticks": 1,
        "messages_delivered": 20,
        "wall_seconds": 0.5,
    }
    fields.update(overrides)
    return RunReport(**fields)


class TestReportGates:
    def test_sound_detected_deadlock_is_ok(self) -> None:
        assert _report().ok

    def test_soundness_violation_fails(self) -> None:
        report = _report(outcome={"soundness_violations": 1})
        assert not report.ok

    def test_missed_deadlock_fails(self) -> None:
        report = _report(
            outcome={"declarations": 0, "first_declaration_at": None}
        )
        assert not report.detected
        assert not report.ok

    def test_silent_clean_run_is_ok(self) -> None:
        report = _report(
            scenario="clean",
            outcome={"scenario": "chain", "declarations": 0, "first_declaration_at": None},
        )
        assert report.ok

    def test_incomplete_random_run_fails(self) -> None:
        report = _report(
            scenario="random",
            outcome={"scenario": "random", "complete": False, "undetected_components": 1},
        )
        assert not report.ok

    def test_incomplete_family_run_fails(self) -> None:
        report = _report(
            scenario="ddb-mix",
            outcome={"scenario": "ddb-mix", "complete": False, "undetected_components": 1},
        )
        assert not report.ok

    def test_json_artifact_is_schemad_and_self_contained(self) -> None:
        payload = _report().to_json()
        assert payload["schema"] == "repro.run-report/1"
        assert payload["ok"] is True
        assert payload["transport"] == "cluster"
        assert payload["detection_latencies"] == [4.0, 6.0]
        assert payload["first_declaration_at"] == 10.0
        json.dumps(payload)  # JSON-serializable as-is


class TestRunnerValidation:
    def test_random_resolves_for_every_registered_model(self) -> None:
        # Since the er/ba ensembles learned the OR model, every protocol
        # model has a randomized default; the spec resolver is the
        # gate run() delegates to.
        from repro.core.registry import get_variant
        from repro.workloads.provision import resolve_scenario_spec

        spec = resolve_scenario_spec(get_variant("ormodel"), "random", seed=0)
        assert spec.family == "er"

    def test_family_must_drive_the_variants_model(self) -> None:
        with pytest.raises(ConfigurationError, match="'ddb-mix' cannot drive"):
            run("basic", "ddb-mix", transport="cluster")

    def test_unknown_family_is_a_configuration_error(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown workload family"):
            run("basic", "no-such-family", transport="cluster")

    def test_unknown_variant_is_a_configuration_error(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown detector variant"):
            run("nope", transport="cluster")


class TestRegistryWorkloadsOnCluster:
    def test_random_on_ddb_runs_the_transaction_mix(self) -> None:
        # random resolves ddb's default randomized family (ddb-mix).
        report = run(
            "ddb",
            "random",
            transport="cluster",
            seed=1,
            n_vertices=2,
            duration=40.0,
            time_scale=TIME_SCALE,
            timeout=30.0,
        )
        assert report.sound
        assert report.outcome.complete
        assert report.ok
        assert report.outcome.scenario == "ddb-mix"

    def test_ensemble_family_by_name_on_the_cluster(self) -> None:
        report = run(
            "basic",
            "er",
            transport="cluster",
            seed=2,
            n_vertices=6,
            duration=0.0,
            time_scale=TIME_SCALE,
            timeout=30.0,
        )
        assert report.sound
        assert report.outcome.complete
        assert report.ok


class TestCli:
    def test_cluster_transport_is_selectable(self) -> None:
        parser = build_parser()
        args = parser.parse_args(
            ["run", "basic", "--transport", "cluster", "--scenario", "clean", "--tcp"]
        )
        assert args.variant == "basic"
        assert args.transport == "cluster"
        assert args.scenario == "clean"
        assert args.tcp

    def test_cli_run_writes_json_artifact(self, tmp_path, capsys) -> None:
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "basic",
                "--transport",
                "cluster",
                "--scenario",
                "deadlock",
                "--time-scale",
                str(TIME_SCALE),
                "--json-out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "declarations: " in printed
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.run-report/1"
        assert payload["ok"] is True
        assert payload["transport"] == "cluster"
        assert payload["soundness_violations"] == 0

    def test_cli_unknown_variant_exits_2(self, capsys) -> None:
        assert main(["run", "nope", "--transport", "cluster"]) == 2
        assert "unknown detector variant" in capsys.readouterr().out

"""Export tests: lossless JSONL round-trip, Chrome schema sanity, golden file.

The round-trip property is the contract that makes offline analysis
trustworthy: ``events_from_jsonl(events_to_jsonl(t)) == list(t)`` event
for event, payload types included (ProbeTag, frozen message dataclasses,
tuples...).  The Chrome export is checked against :func:`validate_chrome`
(what Perfetto needs) and the span pipeline is pinned by a golden file of
the deterministic quickstart scenario's spans, one ``span_to_json`` line
each.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro._ids import ProbeTag
from repro.basic.messages import Probe
from repro.obs.export import (
    TraceEncodingError,
    event_from_dict,
    event_to_dict,
    events_from_jsonl,
    events_to_chrome,
    events_to_jsonl,
    read_jsonl,
    validate_chrome,
    write_chrome,
    write_jsonl,
)
from repro.obs.spans import build_spans
from repro.obs.stream import span_to_json
from repro.sim.trace import TraceEvent, Tracer

from tests.conftest import make_cycle_system

GOLDEN = Path(__file__).parent / "golden_quickstart_spans.jsonl"


def quickstart_tracer() -> Tracer:
    system = make_cycle_system(3)
    system.run_to_quiescence()
    return system.simulator.tracer


class TestJsonlRoundTrip:
    def test_full_run_round_trips_event_for_event(self) -> None:
        tracer = quickstart_tracer()
        original = list(tracer)
        assert original, "quickstart run produced no trace"
        restored = events_from_jsonl(events_to_jsonl(tracer))
        assert restored == original

    def test_payload_types_survive(self) -> None:
        tag = ProbeTag(initiator=3, sequence=7)
        event = TraceEvent(
            time=1.5,
            category="net.sent",
            details={
                "message": Probe(tag=tag),
                "pair": (1, 2),
                "flags": frozenset({"a", "b"}),
                "nested": {"keys": [1, 2, 3]},
            },
        )
        restored = event_from_dict(json.loads(json.dumps(event_to_dict(event))))
        assert restored == event
        assert isinstance(restored["message"], Probe)
        assert restored["message"].tag == tag
        assert restored["pair"] == (1, 2)
        assert restored["flags"] == frozenset({"a", "b"})

    def test_marker_key_in_plain_dict_is_escaped(self) -> None:
        event = TraceEvent(time=0.0, category="x", details={"d": {"~kind": "gotcha"}})
        restored = events_from_jsonl(events_to_jsonl([event]))
        assert restored == [event]
        assert restored[0]["d"] == {"~kind": "gotcha"}

    def test_file_round_trip(self, tmp_path) -> None:
        tracer = quickstart_tracer()
        path = write_jsonl(tmp_path / "trace.jsonl", tracer)
        assert read_jsonl(path) == list(tracer)
        # one JSON object per line, parseable independently
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer)
        for line in lines:
            json.loads(line)

    def test_reimported_trace_feeds_the_span_builder(self, tmp_path) -> None:
        tracer = quickstart_tracer()
        path = write_jsonl(tmp_path / "trace.jsonl", tracer)
        direct = build_spans(tracer)
        assert direct
        assert build_spans(read_jsonl(path)) == direct

    def test_non_finite_floats_are_rejected(self) -> None:
        event = TraceEvent(time=0.0, category="x", details={"v": float("nan")})
        with pytest.raises(TraceEncodingError, match="non-finite"):
            events_to_jsonl([event])

    def test_bad_line_reports_line_number(self) -> None:
        good = events_to_jsonl([TraceEvent(time=0.0, category="x", details={})])
        with pytest.raises(TraceEncodingError, match="line 2"):
            events_from_jsonl(good + "{not json}\n")

    def test_untrusted_type_path_is_refused(self) -> None:
        payload = {
            "time": 0.0,
            "category": "x",
            "details": {
                "m": {"~kind": "dataclass", "type": "os.DirEntry", "fields": {}}
            },
        }
        with pytest.raises(TraceEncodingError, match="trusted"):
            event_from_dict(payload)


class TestChromeExport:
    def test_document_passes_schema_sanity(self) -> None:
        document = events_to_chrome(quickstart_tracer())
        assert validate_chrome(document) == []

    def test_document_is_plain_json(self, tmp_path) -> None:
        path = write_chrome(tmp_path / "trace.json", quickstart_tracer())
        document = json.loads(path.read_text())
        assert validate_chrome(document) == []
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["model"] == "basic"

    def test_tracks_spans_flows_and_markers_present(self) -> None:
        document = events_to_chrome(quickstart_tracer())
        events = document["traceEvents"]
        by_phase: dict[str, list[dict]] = {}
        for entry in events:
            by_phase.setdefault(entry["ph"], []).append(entry)
        thread_names = {
            e["args"]["name"] for e in by_phase["M"] if e["name"] == "thread_name"
        }
        assert thread_names == {"v0", "v1", "v2"}  # one track per vertex
        slices = by_phase["X"]
        assert any(e["cat"] == "probe.computation" for e in slices)
        assert any(e["cat"] == "probe.hop" for e in slices)
        assert len(by_phase["s"]) == len(by_phase["f"])  # matched flow arrows
        assert any(e["name"].startswith("DEADLOCK") for e in by_phase["i"])

    def test_computation_slice_args_summarise_the_span(self) -> None:
        document = events_to_chrome(quickstart_tracer())
        computations = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "probe.computation"
        ]
        assert computations
        for entry in computations:
            args = entry["args"]
            assert args["outcome"] in {"deadlock", "fizzled", "superseded"}
            assert args["probes_sent"] >= args["meaningful_probes"] >= 0
            assert entry["dur"] >= 1.0  # visible even for instant spans

    def test_validator_flags_broken_documents(self) -> None:
        assert validate_chrome({}) == ["document has no 'traceEvents' array"]
        problems = validate_chrome(
            {
                "traceEvents": [
                    {"ph": "Z", "name": "bad"},
                    {"ph": "X", "name": "n", "pid": 0, "tid": 0, "ts": 1.0},
                    {"ph": "s", "name": "n", "pid": 0, "tid": 0, "ts": 1.0, "id": 9},
                ]
            }
        )
        assert any("unknown phase" in p for p in problems)
        assert any("missing numeric 'dur'" in p for p in problems)
        assert any("unmatched phases" in p for p in problems)


def quickstart_span_lines() -> str:
    """The quickstart run's spans, one sorted-key ``span_to_json`` line each."""
    spans = build_spans(quickstart_tracer())
    return "".join(json.dumps(span_to_json(span), sort_keys=True) + "\n" for span in spans)


class TestGoldenSpans:
    def test_quickstart_spans_match_golden_file(self) -> None:
        """The deterministic quickstart pipeline is pinned end to end.

        If this fails because of an *intentional* change to the span fold
        or to ``span_to_json``, regenerate with:

            PYTHONPATH=src python -c "
            from tests.obs.test_export import regenerate_golden
            regenerate_golden()"
        """
        assert quickstart_span_lines() == GOLDEN.read_text()


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    GOLDEN.write_text(quickstart_span_lines())

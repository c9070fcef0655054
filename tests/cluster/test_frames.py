"""The wire codec: every protocol message survives the socket round trip.

The cluster backend rebuilds each delivered message from wire bytes
(:mod:`repro.cluster.frames`), so the codec must round-trip every message
type a registered variant sends -- frozen dataclasses, enums, tuples,
frozensets -- and must refuse to import code named by the wire (a frame
is data, never an instruction to load a module).  Frames are read
incrementally (:class:`~repro.cluster.frames.FrameReader`), so a frame
must parse the same however the socket splits its bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.frames import (
    HEADER,
    MAX_FRAME_BYTES,
    FrameReader,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.errors import ClusterError


def roundtrip(value: object) -> object:
    # through real JSON text, exactly as the socket path does
    return decode_value(json.loads(json.dumps(encode_value(value))))


class TestValueRoundTrip:
    def test_scalars_pass_through(self) -> None:
        for value in (None, True, 0, -3, 2.5, "text", "dotted.name"):
            assert roundtrip(value) == value

    def test_containers_keep_their_types(self) -> None:
        assert roundtrip((1, "a")) == (1, "a")
        assert isinstance(roundtrip((1, "a")), tuple)
        assert roundtrip([1, [2, 3]]) == [1, [2, 3]]
        assert roundtrip({"k": (1, 2)}) == {"k": (1, 2)}
        assert roundtrip(frozenset({1, 2})) == frozenset({1, 2})
        assert isinstance(roundtrip(frozenset({1, 2})), frozenset)
        assert isinstance(roundtrip({1, 2}), set)

    def test_basic_model_probe(self) -> None:
        from repro._ids import ProbeTag
        from repro.basic.messages import Probe

        probe = Probe(tag=ProbeTag(initiator=3, sequence=2))
        again = roundtrip(probe)
        assert again == probe
        assert type(again) is Probe
        assert type(again.tag) is ProbeTag

    def test_ddb_model_probe_with_nested_ids(self) -> None:
        from repro._ids import ProbeTag, ProcessId, TransactionId
        from repro.ddb.messages import DdbProbe, EdgeRef

        probe = DdbProbe(
            tag=ProbeTag(initiator=1, sequence=4),
            edge=EdgeRef(
                origin=ProcessId(transaction=TransactionId(7), site=0),
                target=ProcessId(transaction=TransactionId(7), site=1),
                serial=2,
            ),
        )
        again = roundtrip(probe)
        assert again == probe
        assert type(again) is DdbProbe

    def test_every_registered_variant_model_has_codec_coverage(self) -> None:
        """One representative message per protocol package round-trips."""
        from repro._ids import ProbeTag
        from repro.basic.messages import Probe, Reply, Request, WfgdMessage
        from repro.ormodel.messages import Grant, OrQuery, RequestAny

        tag = ProbeTag(initiator=0, sequence=1)
        for message in (
            Request(requester=1),
            Reply(replier=2),
            Probe(tag=tag),
            WfgdMessage(edges=frozenset({(1, 2), (2, 3)})),
            RequestAny(requester=1),
            Grant(granter=3),
            OrQuery(tag=tag, sender=1),
        ):
            again = roundtrip(message)
            assert again == message, type(message).__name__
            assert type(again) is type(message)

    def test_enum_members_round_trip(self) -> None:
        from repro.ddb.locks import LockMode

        for member in LockMode:
            again = roundtrip(member)
            assert again is member

    def test_nested_dataclass_fields_round_trip(self) -> None:
        from repro._ids import ProbeTag
        from repro.basic.messages import Probe

        value = {"probes": (Probe(tag=ProbeTag(initiator=0, sequence=1)),)}
        again = roundtrip(value)
        assert again == value
        assert type(again["probes"][0]) is Probe


class TestRefusals:
    def test_unknown_module_is_refused(self) -> None:
        payload = {
            "__repro__": "dataclass",
            "type": "evil_module:Payload",
            "fields": {},
        }
        with pytest.raises(ClusterError, match="refusing to import"):
            decode_value(payload)

    def test_unknown_attribute_is_refused(self) -> None:
        payload = {
            "__repro__": "dataclass",
            "type": "repro.basic.messages:NoSuchThing",
            "fields": {},
        }
        with pytest.raises(ClusterError):
            decode_value(payload)

    def test_non_enum_reference_is_refused(self) -> None:
        # A subscriptable module attribute is not an enum: indexing it by
        # the wire's member name would hand its item to a handler.
        payload = {"__repro__": "enum", "type": "os:environ", "name": "HOME"}
        with pytest.raises(ClusterError, match="non-enum"):
            decode_value(payload)

    def test_unknown_enum_member_is_refused(self) -> None:
        from repro.ddb.locks import LockMode

        payload = encode_value(LockMode.EXCLUSIVE)
        assert decode_value(payload) is LockMode.EXCLUSIVE
        with pytest.raises(ClusterError, match="unknown member 'NO_SUCH_MODE'"):
            decode_value(dict(payload, name="NO_SUCH_MODE"))

    def test_non_object_frame_is_refused(self) -> None:
        with pytest.raises(ClusterError, match="JSON object"):
            decode_frame(json.dumps([1, 2, 3]).encode())

    def test_frame_without_kind_is_refused(self) -> None:
        with pytest.raises(ClusterError, match="kind"):
            decode_frame(json.dumps({"payload": 1}).encode())

    def test_refusals_hold_once_the_codec_caches_are_warm(self) -> None:
        from repro._ids import ProbeTag
        from repro.basic.messages import Probe

        # Caches each type's shape and each resolved reference.
        roundtrip(Probe(tag=ProbeTag(initiator=0, sequence=1)))
        refused = (
            ("evil_module:Payload", "refusing to import"),
            ("repro.basic.messages:NoSuchThing", "unknown type"),
            ("repro.cluster.frames:FrameReader", "non-dataclass"),
        )
        for ref, match in refused:
            payload = {"__repro__": "dataclass", "type": ref, "fields": {}}
            for _ in range(2):  # refused on every call, never cached
                with pytest.raises(ClusterError, match=match):
                    decode_value(payload)


class TestStreamFraming:
    @staticmethod
    def _read_all(data: bytes) -> list:
        """Feed ``data`` to a fresh reader, then end the stream."""
        reader = FrameReader()
        frames = reader.feed(data)
        reader.eof()
        return frames

    @staticmethod
    def _two_frames() -> tuple[bytes, list]:
        from repro._ids import ProbeTag
        from repro.basic.messages import Probe

        probe = Probe(tag=ProbeTag(initiator=3, sequence=2))
        frames = [
            {"kind": "deliver", "due": 1.5, "payload": encode_value(probe)},
            {"kind": "heartbeat"},
        ]
        return b"".join(encode_frame(frame) for frame in frames), frames

    def test_clean_eof_returns_none(self) -> None:
        reader = FrameReader()
        assert reader.feed(b"") == []
        assert reader.eof() is None

    def test_torn_header_raises(self) -> None:
        with pytest.raises(ClusterError, match="inside a frame header"):
            self._read_all(b"\x00\x00")

    def test_torn_body_raises(self) -> None:
        frame = encode_frame({"kind": "msg"})
        with pytest.raises(ClusterError, match="inside a frame body"):
            self._read_all(frame[:-1])

    def test_oversize_frame_raises(self) -> None:
        header = HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(ClusterError, match="bytes"):
            self._read_all(header)

    def test_oversize_header_is_refused_before_any_body_byte(self) -> None:
        reader = FrameReader()
        header = HEADER.pack(MAX_FRAME_BYTES + 1)
        assert reader.feed(header[:-1]) == []
        with pytest.raises(ClusterError, match="MAX_FRAME_BYTES"):
            reader.feed(header[-1:])

    def test_two_frames_read_back_to_back(self) -> None:
        data = encode_frame({"kind": "a"}) + encode_frame({"kind": "b"})
        assert self._read_all(data) == [{"kind": "a"}, {"kind": "b"}]

    def test_split_at_every_offset_parses_the_same(self) -> None:
        data, expected = self._two_frames()
        for cut in range(len(data) + 1):
            reader = FrameReader()
            frames = reader.feed(data[:cut]) + reader.feed(data[cut:])
            reader.eof()
            assert frames == expected, f"split at byte {cut}"

    def test_one_byte_at_a_time_parses_the_same(self) -> None:
        data, expected = self._two_frames()
        reader = FrameReader()
        frames: list = []
        for offset in range(len(data)):
            frames += reader.feed(data[offset : offset + 1])
        reader.eof()
        assert frames == expected

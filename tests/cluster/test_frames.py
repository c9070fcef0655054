"""The wire codec: every protocol message survives the socket round trip.

The cluster backend rebuilds each delivered message from wire bytes
(:mod:`repro.cluster.frames`), so the codec must round-trip every message
type a registered variant sends -- frozen dataclasses, enums, tuples,
frozensets -- and must refuse to import code named by the wire (a frame
is data, never an instruction to load a module).  Every frame is a
``struct`` envelope, kind byte first, and a malformed one is refused,
never guessed at.  Frames are read incrementally
(:class:`~repro.cluster.frames.FrameReader`), so a frame must parse the
same however the socket splits its bytes.
"""

from __future__ import annotations

import pytest

from repro.cluster.frames import (
    DELIVER,
    ENVELOPE,
    FIXED,
    HEADER,
    HEARTBEAT,
    HELLO,
    MAX_FRAME_BYTES,
    MSG,
    SHUTDOWN,
    START,
    FrameReader,
    decode_frame,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.errors import ClusterError


def roundtrip(value: object) -> object:
    # through a real msg frame's bytes, exactly as the socket path does
    frame = encode_frame((MSG, False, 1.5, 0, encode_value(value)))
    return decode_value(decode_frame(frame[HEADER.size :])[4])


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

    def test_frame_without_kind_is_refused(self) -> None:
        with pytest.raises(ClusterError, match="empty body"):
            decode_frame(b"")

    @pytest.mark.parametrize(
        ("body", "match"),
        [
            (bytes((99,)), "unknown kind byte 99"),
            (ENVELOPE.pack(DELIVER, False, 1.0, 0)[:-1], "shorter than its 14-byte envelope"),
            (FIXED[HELLO].pack(HELLO, 0, 1)[:-1], "hello frame: 8 bytes, expected 9"),
            (FIXED[SHUTDOWN].pack(SHUTDOWN) + b"x", "shutdown frame: 2 bytes, expected 1"),
            (ENVELOPE.pack(MSG, False, 1.0, 0) + b"{]", "payload is not JSON"),
            (ENVELOPE.pack(DELIVER, False, 1.0, 0) + b'"\xff"', "payload is not JSON"),
        ],
        ids=[
            "unknown-kind",
            "envelope-cut-short",
            "hello-cut-short",
            "shutdown-too-long",
            "payload-not-json",
            "payload-not-utf8",
        ],
    )
    def test_malformed_body_is_refused(self, body: bytes, match: str) -> None:
        with pytest.raises(ClusterError, match=match):
            decode_frame(body)

    def test_oversize_message_is_refused_at_encode(self) -> None:
        with pytest.raises(ClusterError, match="exceeds MAX_FRAME_BYTES"):
            encode_frame((MSG, False, 0.0, 0, "x" * MAX_FRAME_BYTES))

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


class TestEnvelope:
    @pytest.mark.parametrize(
        "frame",
        [
            (HELLO, 3, 4242),
            (HEARTBEAT,),
            (START, 0.005),
            (SHUTDOWN,),
            (MSG, False, 12.25, 7, {"__repro__": "tuple", "items": [1, "a"]}),
            (DELIVER, True, 0.0, 0, "Grüße"),
        ],
        ids=["hello", "heartbeat", "start", "shutdown", "msg", "deliver"],
    )
    def test_every_kind_round_trips(self, frame: tuple) -> None:
        data = encode_frame(frame)
        (length,) = HEADER.unpack_from(data)
        assert length == len(data) - HEADER.size
        assert decode_frame(data[HEADER.size :]) == frame

    def test_deliver_is_the_msg_frame_with_its_kind_byte_rewritten(self) -> None:
        # What the worker does: it never parses the payload.
        payload = encode_value(("Grüße", frozenset({1})))
        sent = bytearray(encode_frame((MSG, False, 3.5, 2, payload)))
        sent[HEADER.size] = DELIVER
        assert bytes(sent) == encode_frame((DELIVER, False, 3.5, 2, payload))


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
        frames = [(DELIVER, False, 1.5, 0, encode_value(probe)), (HEARTBEAT,)]
        return b"".join(encode_frame(frame) for frame in frames), frames

    def test_clean_eof_returns_none(self) -> None:
        reader = FrameReader()
        assert reader.feed(b"") == []
        assert reader.eof() is None

    def test_torn_header_raises(self) -> None:
        with pytest.raises(ClusterError, match="inside a frame header"):
            self._read_all(b"\x00\x00")

    def test_torn_body_raises(self) -> None:
        frame = encode_frame((MSG, False, 1.0, 0, None))
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
        data = encode_frame((START, 0.5)) + encode_frame((SHUTDOWN,))
        assert self._read_all(data) == [(START, 0.5), (SHUTDOWN,)]

    def test_malformed_body_in_the_stream_is_refused(self) -> None:
        with pytest.raises(ClusterError, match="unknown kind byte 99"):
            self._read_all(HEADER.pack(1) + bytes((99,)))

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

"""Wire format of the cluster backend: length-prefixed `struct` frames.

Every byte that crosses a worker boundary is one *frame*: a 4-byte
big-endian length prefix followed by that many bytes of body.  Frames
ride ordered byte streams (Unix-domain or TCP sockets), so frame order on
a connection equals write order -- the transport's per-channel FIFO
guarantee (axiom P4) reduces to "write each channel's frames to one
socket, in send order" on top of this module.  Reading is incremental:
:class:`FrameReader` takes bytes as the socket hands them over and
returns every frame they complete.

A body opens with one kind byte.  ``msg`` (coordinator to worker) and
``deliver`` (worker to coordinator) frames continue with a fixed
:data:`ENVELOPE` -- the ``loose`` flag, the virtual due time and the
sender's channel id -- followed by the payload's JSON text.  The other
four kinds are fixed-size (:data:`FIXED`): ``hello`` (worker index and
pid), ``heartbeat``, ``start`` (the time scale) and ``shutdown``.  A
worker reads only the envelope: it queues the ``msg`` frame's bytes as
they came and echoes them back, kind byte rewritten, as the ``deliver``
frame, so the payload is never parsed outside the coordinator.  A frame
decodes to a tuple, kind first (:func:`decode_frame`), and
:func:`encode_frame` takes the same tuple back to bytes.

Protocol messages are arbitrary Python values (frozen dataclasses,
tuples, frozensets, enums, ...), so the JSON payload uses a small tagged
encoding (:func:`encode_value` / :func:`decode_value`).  Decoding never
imports code: a dataclass or enum payload only decodes if its defining
module is already imported, which is always true on the coordinator (it
authored the frame) and turns a forged type reference into a hard error
instead of an import.  The codec remembers each dataclass type's wire
reference and field names, and each wire reference that already resolved
to a dataclass, so a message type is reflected on once, not per message;
a reference that fails to resolve is never remembered, so it is refused
on every call.

The worker program (:mod:`repro.cluster.worker`) deliberately does *not*
import this module: it inlines the header, the envelope and the kind
bytes, so that spawning a worker never imports the repro package.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct
import sys
from typing import Any

from repro.errors import ClusterError

#: 4-byte big-endian unsigned body length, preceding each frame body.
HEADER = struct.Struct(">I")
#: hard ceiling on one frame's body; a corrupt length prefix otherwise
#: turns into a multi-gigabyte allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: kind bytes, the first byte of every frame body.
HELLO, HEARTBEAT, START, SHUTDOWN, MSG, DELIVER = range(1, 7)
#: the fixed part of a ``msg`` or ``deliver`` body: kind, ``loose``, due
#: time (virtual units) and the sender's channel id; the payload's JSON
#: text follows it.
ENVELOPE = struct.Struct(">B?dI")
#: the whole body of every fixed-size kind: ``hello`` carries the
#: worker's index and pid, ``start`` the time scale.
FIXED = {
    HELLO: struct.Struct(">BII"),
    HEARTBEAT: struct.Struct(">B"),
    START: struct.Struct(">Bd"),
    SHUTDOWN: struct.Struct(">B"),
}
#: each kind byte's name, for messages about a frame.
KIND_NAMES = {
    HELLO: "hello",
    HEARTBEAT: "heartbeat",
    START: "start",
    SHUTDOWN: "shutdown",
    MSG: "msg",
    DELIVER: "deliver",
}
#: header and envelope packed in one call.
_ENVELOPE_FRAME = struct.Struct(">IB?dI")

_KIND = "__repro__"

#: one encoder for every payload (``json.dumps`` with separators builds a
#: new one per call); the bytes are the same.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
#: dataclass type -> (wire reference, field names), filled on first encode.
_DATACLASS_SHAPES: dict[type, tuple[str, tuple[str, ...]]] = {}
#: wire reference -> the dataclass it resolved to, filled only after the
#: reference resolved in ``sys.modules`` and named a dataclass.
_DATACLASS_TYPES: dict[str, Any] = {}


def encode_value(value: Any) -> Any:
    """Encode one protocol message (or id) into JSON-able form.

    Handles the shapes registered variants actually send: scalars, frozen
    dataclasses (by ``module:qualname`` plus encoded fields), enums (by
    member name), tuples, sets, frozensets, lists, and dicts with
    arbitrary encodable keys.  Anything else is rejected with a
    :class:`~repro.errors.ClusterError` naming the offending type.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    shape = _DATACLASS_SHAPES.get(type(value))
    if shape is not None:
        ref, names = shape
        fields = {name: encode_value(getattr(value, name)) for name in names}
        return {_KIND: "dataclass", "type": ref, "fields": fields}
    if isinstance(value, enum.Enum):
        cls = type(value)
        return {_KIND: "enum", "type": _type_ref(cls), "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Remember the type's shape, then encode through the path above.
        names = tuple(field.name for field in dataclasses.fields(value))
        _DATACLASS_SHAPES[type(value)] = (_type_ref(type(value)), names)
        return encode_value(value)
    if isinstance(value, tuple):
        return {_KIND: "tuple", "items": [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        return {_KIND: "frozenset", "items": [encode_value(item) for item in value]}
    if isinstance(value, set):
        return {_KIND: "set", "items": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {_KIND: "list", "items": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {
            _KIND: "dict",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    raise ClusterError(
        f"cluster transport cannot serialize a {type(value).__module__}."
        f"{type(value).__qualname__} message; send JSON scalars, containers, "
        "enums, or dataclasses"
    )


def decode_value(payload: Any) -> Any:
    """Invert :func:`encode_value`; see the module docstring for safety."""
    if not isinstance(payload, dict):
        return payload
    kind = payload.get(_KIND)
    if kind == "dataclass":
        ref = payload["type"]
        cls = _DATACLASS_TYPES.get(ref)
        if cls is None:
            cls = _resolve_type(ref)
            if not dataclasses.is_dataclass(cls):
                raise ClusterError(f"frame names non-dataclass type {ref!r}")
            _DATACLASS_TYPES[ref] = cls
        fields = {
            name: decode_value(value) for name, value in payload["fields"].items()
        }
        return cls(**fields)
    if kind == "tuple":
        return tuple(decode_value(item) for item in payload["items"])
    if kind == "frozenset":
        return frozenset(decode_value(item) for item in payload["items"])
    if kind == "set":
        return {decode_value(item) for item in payload["items"]}
    if kind == "list":
        return [decode_value(item) for item in payload["items"]]
    if kind == "dict":
        return {decode_value(k): decode_value(v) for k, v in payload["items"]}
    if kind == "enum":
        ref = payload["type"]
        cls = _resolve_type(ref)
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise ClusterError(f"frame names non-enum type {ref!r}")
        try:
            return cls[payload["name"]]
        except KeyError:
            raise ClusterError(
                f"frame names unknown member {payload['name']!r} of {ref!r}"
            ) from None
    raise ClusterError(f"frame payload has unknown encoding kind {kind!r}")


def _type_ref(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_type(ref: str) -> Any:
    """Look a ``module:qualname`` reference up in already-imported code."""
    module_name, _, qualname = ref.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        raise ClusterError(
            f"frame references type {ref!r} from a module that is not "
            "imported; refusing to import code from the wire"
        )
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise ClusterError(f"frame references unknown type {ref!r}")
    return obj


def encode_frame(frame: tuple[Any, ...]) -> bytes:
    """One complete frame as bytes, from the tuple :func:`decode_frame` gives.

    ``(MSG or DELIVER, loose, due, channel, payload)`` puts ``payload``'s
    JSON text after the envelope; every other kind packs its fixed fields.
    """
    kind = frame[0]
    if kind in (MSG, DELIVER):
        payload = _ENCODER.encode(frame[4]).encode("utf-8")
        length = ENVELOPE.size + len(payload)
        if length > MAX_FRAME_BYTES:
            raise ClusterError(
                f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
                f"({MAX_FRAME_BYTES}); message too large for the cluster wire"
            )
        return _ENVELOPE_FRAME.pack(length, kind, frame[1], frame[2], frame[3]) + payload
    fixed = FIXED.get(kind)
    if fixed is None:
        raise ClusterError(f"cannot encode a frame of unknown kind {kind!r}")
    return HEADER.pack(fixed.size) + fixed.pack(*frame)


def decode_frame(body: bytes | bytearray) -> tuple[Any, ...]:
    """Parse one frame body; malformed bytes raise :class:`ClusterError`."""
    if not body:
        raise ClusterError("malformed frame: empty body")
    kind = body[0]
    if kind in (MSG, DELIVER):
        if len(body) < ENVELOPE.size:
            raise ClusterError(
                f"malformed {KIND_NAMES[kind]} frame: {len(body)} bytes, "
                f"shorter than its {ENVELOPE.size}-byte envelope"
            )
        try:
            payload = json.loads(body[ENVELOPE.size :].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ClusterError(
                f"malformed {KIND_NAMES[kind]} frame: payload is not JSON: {error}"
            ) from error
        return (*ENVELOPE.unpack_from(body), payload)
    fixed = FIXED.get(kind)
    if fixed is None:
        raise ClusterError(f"malformed frame: unknown kind byte {kind}")
    if len(body) != fixed.size:
        raise ClusterError(
            f"malformed {KIND_NAMES[kind]} frame: {len(body)} bytes, expected {fixed.size}"
        )
    return fixed.unpack(body)


class FrameReader:
    """Incremental frame parser for one byte stream.

    :meth:`feed` takes whatever bytes the socket delivered and returns the
    frames they complete, in stream order, keeping a partial frame until
    the rest arrives.  A header announcing more than
    :data:`MAX_FRAME_BYTES` is refused as soon as its four bytes are in,
    before any of the body.  At end of stream, :meth:`eof` tells a clean
    close at a frame boundary from a torn frame -- the latter is evidence
    of a failure, not a shutdown.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[Any, ...]]:
        """Append ``data``; decode and return every frame now complete."""
        buffer = self._buffer
        buffer += data
        frames: list[tuple[Any, ...]] = []
        offset = 0
        end = len(buffer)
        while end - offset >= HEADER.size:
            (length,) = HEADER.unpack_from(buffer, offset)
            if length > MAX_FRAME_BYTES:
                raise ClusterError(
                    f"incoming frame announces {length} bytes "
                    f"(> MAX_FRAME_BYTES {MAX_FRAME_BYTES}); stream is corrupt"
                )
            start = offset + HEADER.size
            if end - start < length:
                break
            offset = start + length
            frames.append(decode_frame(buffer[start:offset]))
        del buffer[:offset]
        return frames

    def eof(self) -> None:
        """The stream ended: raise :class:`ClusterError` inside a frame."""
        if len(self._buffer) >= HEADER.size:
            raise ClusterError("connection closed inside a frame body")
        if self._buffer:
            raise ClusterError("connection closed inside a frame header")

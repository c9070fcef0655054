"""Wire format of the cluster backend: length-prefixed JSON frames.

Every byte that crosses a worker boundary is one *frame*: a 4-byte
big-endian length prefix followed by that many bytes of UTF-8 JSON (an
object).  Frames ride ordered byte streams (Unix-domain or TCP sockets),
so frame order on a connection equals write order -- the transport's
per-channel FIFO guarantee (axiom P4) reduces to "write each channel's
frames to one socket, in send order" on top of this module.  Reading is
incremental: :class:`FrameReader` takes bytes as the socket hands them
over and returns every frame they complete.

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
import this module -- workers treat payloads as opaque JSON and only
speak the framing, which they inline so that spawning a worker never
imports the repro package.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct
import sys
from typing import Any

from repro.errors import ClusterError

#: 4-byte big-endian unsigned frame length, preceding each JSON body.
HEADER = struct.Struct(">I")
#: hard ceiling on one frame's body; a corrupt length prefix otherwise
#: turns into a multi-gigabyte allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_KIND = "__repro__"

#: one encoder for every frame (``json.dumps`` with separators builds a
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


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One complete frame as bytes: header plus JSON body."""
    body = _ENCODER.encode(frame).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); message too large for the cluster wire"
        )
    return HEADER.pack(len(body)) + body


def decode_frame(body: bytes | bytearray) -> dict[str, Any]:
    """Parse one frame body; malformed bytes raise :class:`ClusterError`."""
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ClusterError(f"malformed frame body: {error}") from error
    if not isinstance(frame, dict) or "kind" not in frame:
        raise ClusterError("frame body must be a JSON object with a 'kind' field")
    return frame


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

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Append ``data``; decode and return every frame now complete."""
        buffer = self._buffer
        buffer += data
        frames: list[dict[str, Any]] = []
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

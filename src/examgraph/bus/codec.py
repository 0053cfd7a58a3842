"""Wire codec for the TCP transport: a 4-byte big-endian length prefix
followed by one UTF-8 JSON object with lexicographically sorted keys at
every nesting level. Encoding is canonical: equal messages produce equal
bytes. A body that ``checks.json_value`` cannot read is ``MalformedFrame``."""

from __future__ import annotations

import json
import struct
from typing import Iterator

from ..checks import integer, json_value, obj, string
from ..errors import FrameTooLarge, MalformedFrame
from .core import Message

MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


def encode_frame(message: Message) -> bytes:
    try:
        body = json.dumps(message.to_dict(), sort_keys=True,
                          separators=(",", ":"), ensure_ascii=False,
                          allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise MalformedFrame(f"payload is not JSON-representable: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame body is {len(body)} bytes (max {MAX_FRAME_BYTES})")
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Message:
    data = obj(json_value(body, "frame body", MalformedFrame), "frame body", MalformedFrame)
    if "payload" not in data:
        raise MalformedFrame("frame has no payload")
    topic, correlation_id, sender = (string(data.get(key), key, MalformedFrame)
                                     for key in ("topic", "correlation_id", "sender"))
    return Message(topic, correlation_id, sender,
                   integer(data.get("seq"), "seq", MalformedFrame), data["payload"])


class FrameReader:
    """Incremental frame assembly over a byte stream (socket recv chunks)."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, chunk) -> Iterator[Message]:
        """Yield the frames that ``chunk`` completes, each as it is decoded,
        so a bad frame raises only after the good ones ahead of it. The
        reader copies ``chunk`` before it returns, so ``chunk`` may be a
        view of a buffer that the caller overwrites afterwards."""
        self._buffer.extend(chunk)
        return iter(self._pop, None)

    def _pop(self) -> Message | None:
        """Remove and decode the first whole frame in the buffer; None
        while it is incomplete."""
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise FrameTooLarge(
                f"declared frame of {length} bytes (max {MAX_FRAME_BYTES})")
        if len(self._buffer) < _HEADER.size + length:
            return None
        body = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
        del self._buffer[:_HEADER.size + length]
        return _decode_body(body)


def decode_frame(data: bytes) -> Message:
    """Decode exactly one complete frame; a short frame or trailing bytes
    are an error (use FrameReader for streams)."""
    reader = FrameReader()
    reader._buffer.extend(data)
    message = reader._pop()
    if message is None or reader._buffer:
        raise MalformedFrame(f"expected exactly one frame, got {len(data)} bytes")
    return message

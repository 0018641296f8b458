"""Length-prefixed framing for the daemon TCP transport.

A frame is a fixed 13-byte header followed by the body::

    +----------------+------+----------------------+----------------+
    | body length    | kind | request id           | body           |
    | 4 bytes, BE    | 1 B  | 8 bytes, BE          | length bytes   |
    +----------------+------+----------------------+----------------+

The body of a protocol frame is exactly the URL-encoded string a
simulated :class:`~repro.net.transport.Message` would carry — the header
plays the role of the HTTP envelope the sim charges as
:data:`~repro.net.transport.HTTP_FRAMING_BYTES`, so both backends
account a message as ``len(body) + HTTP_FRAMING_BYTES`` and arrive at
identical byte counts.

:class:`FrameDecoder` is sans-IO (feed bytes, collect frames) so it can
be tested without sockets; :class:`FrameProtocol` feeds it from an
asyncio transport, so there is one header parser for the handshake and
the protocol frames alike.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass

#: Header layout: 4-byte big-endian body length, 1-byte frame kind,
#: 8-byte big-endian request id.
HEADER = struct.Struct(">IBQ")

#: Header size in bytes (13).
HEADER_BYTES = HEADER.size

#: Frame kinds. Requests carry a method + payload body, responses a
#: ``method/ok`` body, errors an ``_error`` body; control frames belong
#: to the pre-protocol handshake and are never metered.
KIND_REQUEST = 0
KIND_RESPONSE = 1
KIND_ERROR = 2
KIND_CONTROL = 3

_KINDS = frozenset({KIND_REQUEST, KIND_RESPONSE, KIND_ERROR, KIND_CONTROL})

#: Upper bound on a frame body. Far above any legitimate protocol
#: message (the largest batched deposit in the benchmarks is tens of
#: kilobytes); a peer announcing more is malformed or hostile and the
#: connection is dropped before buffering its body.
MAX_FRAME_BYTES = 1 << 20


class FrameError(Exception):
    """A malformed frame: bad kind, truncated stream, or broken header."""


class FrameTooLargeError(FrameError):
    """A frame announcing a body beyond :data:`MAX_FRAME_BYTES`."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame: kind, request id and raw body bytes."""

    kind: int
    request_id: int
    body: bytes


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame (header + body).

    Raises:
        FrameError: unknown kind.
        FrameTooLargeError: body beyond :data:`MAX_FRAME_BYTES`.
    """
    if frame.kind not in _KINDS:
        raise FrameError(f"unknown frame kind {frame.kind}")
    if len(frame.body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame body of {len(frame.body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return HEADER.pack(len(frame.body), frame.kind, frame.request_id) + frame.body


class FrameDecoder:
    """Incremental frame parser over an untrusted byte stream.

    Feed arbitrary chunks; complete frames come back in order. Partial
    input is buffered until the rest arrives, so truncated frames simply
    yield nothing (the caller decides when EOF mid-frame is an error —
    see :meth:`FrameProtocol.read_frame`).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Consume a chunk, returning every frame it completed.

        Raises:
            FrameError: header announces an unknown kind.
            FrameTooLargeError: header announces an oversized body. The
                check fires on the *header*, before any body bytes are
                buffered, so an attacker cannot balloon server memory.
        """
        self._buffer.extend(data)
        frames: list[Frame] = []
        while len(self._buffer) >= HEADER_BYTES:
            length, kind, request_id = HEADER.unpack_from(self._buffer)
            if kind not in _KINDS:
                raise FrameError(f"unknown frame kind {kind}")
            if length > MAX_FRAME_BYTES:
                raise FrameTooLargeError(
                    f"frame header announces {length} bytes, limit is {MAX_FRAME_BYTES}"
                )
            if len(self._buffer) < HEADER_BYTES + length:
                break
            body = bytes(self._buffer[HEADER_BYTES : HEADER_BYTES + length])
            del self._buffer[: HEADER_BYTES + length]
            frames.append(Frame(kind=kind, request_id=request_id, body=body))
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)


class FrameProtocol(asyncio.Protocol):
    """One connection that speaks frames, parsed inside the callback that read them.

    Every chunk the transport reads is fed to a :class:`FrameDecoder`.
    Until :meth:`start_frames`, the frames it completes queue for
    :meth:`read_frame` (the handshake's control frames); from then on
    each is handed to :meth:`frame_received` at once, in arrival order.
    A header the decoder refuses — unknown kind, oversized body — aborts
    the connection before any of its body is buffered.

    Backpressure: while the transport holds more unsent bytes than its
    high-water mark, the connection stops reading, so a peer that does
    not read what it is sent stops being served. The frames of a chunk
    already read are still handled.
    """

    transport: asyncio.Transport
    loop: asyncio.AbstractEventLoop

    def __init__(self) -> None:
        self._decoder = FrameDecoder()
        #: Until :meth:`start_frames`: the frames :meth:`read_frame` has
        #: not taken yet, then the failure that ended the connection.
        self._inbox: asyncio.Queue[Frame | FrameError] | None = asyncio.Queue()
        self._ended: asyncio.Future[None] | None = None
        #: Why the connection ended (``None`` while it is open).
        self.failure: FrameError | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.loop = asyncio.get_running_loop()
        self._ended = self.loop.create_future()

    def data_received(self, data: bytes) -> None:
        if self.failure is not None:
            return  # ended: whatever the transport still delivers is dropped
        try:
            frames = self._decoder.feed(data)
        except FrameError as error:
            self._lose(error)
            self.transport.abort()
            return
        inbox = self._inbox
        for frame in frames:
            if inbox is None:
                self.frame_received(frame)
            else:
                inbox.put_nowait(frame)

    def frame_received(self, frame: Frame) -> None:
        """Handle one frame that arrived after :meth:`start_frames`."""
        raise NotImplementedError

    def start_frames(self) -> None:
        """Hand every frame, queued ones first, to :meth:`frame_received`."""
        inbox, self._inbox = self._inbox, None
        while inbox is not None and not inbox.empty():
            frame = inbox.get_nowait()
            assert isinstance(frame, Frame), "started after the connection ended"
            self.frame_received(frame)

    async def read_frame(self) -> Frame:
        """The next frame before :meth:`start_frames`.

        Raises:
            FrameError: the connection ended first — closed cleanly,
                mid-frame (truncation), or on a malformed header.
        """
        assert self._inbox is not None, "frames are already handed to frame_received"
        frame = await self._inbox.get()
        if isinstance(frame, FrameError):
            raise frame
        return frame

    def write_frame(self, frame: Frame) -> None:
        """Serialize one frame onto the transport."""
        self.transport.write(encode_frame(frame))

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        if self.failure is None:
            pending = self._decoder.pending_bytes
            if exc is not None:
                reason = str(exc) or type(exc).__name__
            elif not pending:
                reason = "connection closed"
            else:
                reason = "truncated frame " + ("header" if pending < HEADER_BYTES else "body")
            self._lose(FrameError(reason))
        if self._ended is not None and not self._ended.done():
            self._ended.set_result(None)

    def _lose(self, failure: FrameError) -> None:
        """The connection is over: nothing more will be read from it."""
        self.failure = failure
        if self._inbox is not None:
            self._inbox.put_nowait(failure)

    async def close(self) -> None:
        """Close the transport (after flushing it) and wait for the end."""
        if self.failure is None:
            self._lose(FrameError("closed"))
        self.transport.close()
        if self._ended is not None:
            await self._ended


__all__ = [
    "Frame",
    "FrameDecoder",
    "FrameError",
    "FrameProtocol",
    "FrameTooLargeError",
    "HEADER_BYTES",
    "KIND_CONTROL",
    "KIND_ERROR",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "MAX_FRAME_BYTES",
    "encode_frame",
]

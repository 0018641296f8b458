"""Unit tests for the length-prefixed framing codec and the frame protocol."""

import asyncio

import pytest

from repro.daemon.framing import (
    Frame,
    FrameDecoder,
    FrameError,
    FrameProtocol,
    FrameTooLargeError,
    HEADER,
    HEADER_BYTES,
    KIND_CONTROL,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    encode_frame,
)


class TestEncodeDecode:
    def test_roundtrip(self):
        frame = Frame(kind=KIND_REQUEST, request_id=42, body=b"_method=pay")
        decoded = FrameDecoder().feed(encode_frame(frame))
        assert decoded == [frame]

    def test_roundtrip_empty_body(self):
        frame = Frame(kind=KIND_CONTROL, request_id=0, body=b"")
        assert FrameDecoder().feed(encode_frame(frame)) == [frame]

    def test_several_frames_in_one_chunk(self):
        frames = [
            Frame(kind=KIND_REQUEST, request_id=i, body=b"x" * i) for i in range(1, 4)
        ]
        chunk = b"".join(encode_frame(f) for f in frames)
        assert FrameDecoder().feed(chunk) == frames

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(FrameError):
            encode_frame(Frame(kind=9, request_id=1, body=b""))

    def test_encode_rejects_oversized_body(self):
        body = b"x" * (MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLargeError):
            encode_frame(Frame(kind=KIND_REQUEST, request_id=1, body=body))


class TestIncrementalDecoding:
    def test_byte_at_a_time(self):
        frame = Frame(kind=KIND_RESPONSE, request_id=7, body=b"_method=pay/ok")
        decoder = FrameDecoder()
        wire = encode_frame(frame)
        collected = []
        for index in range(len(wire)):
            collected.extend(decoder.feed(wire[index : index + 1]))
        assert collected == [frame]
        assert decoder.pending_bytes == 0

    def test_truncated_frame_stays_pending(self):
        frame = Frame(kind=KIND_REQUEST, request_id=1, body=b"abcdef")
        wire = encode_frame(frame)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-2]) == []
        assert decoder.pending_bytes == len(wire) - 2
        assert decoder.feed(wire[-2:]) == [frame]

    def test_oversized_header_rejected_before_body_arrives(self):
        # Only the 13-byte header is fed: the limit must fire without
        # waiting for (or buffering) the announced megabytes.
        header = HEADER.pack(MAX_FRAME_BYTES + 1, KIND_REQUEST, 1)
        with pytest.raises(FrameTooLargeError):
            FrameDecoder().feed(header)

    def test_unknown_kind_rejected(self):
        header = HEADER.pack(0, 200, 1)
        with pytest.raises(FrameError):
            FrameDecoder().feed(header)


class FakeTransport(asyncio.Transport):
    """A transport that records what the protocol does to it."""

    def __init__(self, protocol: FrameProtocol) -> None:
        super().__init__()
        self.protocol = protocol
        self.written: list[bytes] = []
        self.ended = False
        self.reading = True

    def write(self, data):
        self.written.append(bytes(data))

    def _end(self):
        if not self.ended:
            self.ended = True
            self.protocol.connection_lost(None)

    def close(self):
        self._end()

    def abort(self):
        self._end()

    def is_closing(self):
        return self.ended

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


class Recorder(FrameProtocol):
    """A frame protocol that keeps the frames handed to it."""

    def __init__(self) -> None:
        super().__init__()
        self.frames: list[Frame] = []

    def frame_received(self, frame):
        self.frames.append(frame)


def connected(protocol: FrameProtocol) -> FakeTransport:
    transport = FakeTransport(protocol)
    protocol.connection_made(transport)
    return transport


class TestStreamReading:
    """``FrameProtocol.read_frame``: the handshake's reads, over one decoder."""

    def run(self, coro):
        return asyncio.run(coro)

    def test_read_frame_roundtrip(self):
        async def scenario():
            protocol = FrameProtocol()
            connected(protocol)
            frame = Frame(kind=KIND_REQUEST, request_id=3, body=b"payload")
            protocol.data_received(encode_frame(frame))
            return await protocol.read_frame()

        frame = self.run(scenario())
        assert frame.request_id == 3
        assert frame.body == b"payload"

    def test_read_frame_clean_close(self):
        async def scenario():
            protocol = FrameProtocol()
            connected(protocol)
            protocol.connection_lost(None)
            with pytest.raises(FrameError, match="connection closed"):
                await protocol.read_frame()

        self.run(scenario())

    def test_read_frame_truncated_header(self):
        async def scenario():
            protocol = FrameProtocol()
            connected(protocol)
            protocol.data_received(b"\x00\x00")  # 2 of 13 header bytes
            reading = asyncio.ensure_future(protocol.read_frame())
            await asyncio.sleep(0)
            protocol.connection_lost(None)
            with pytest.raises(FrameError, match="truncated frame header"):
                await reading

        self.run(scenario())

    def test_read_frame_truncated_body(self):
        async def scenario():
            protocol = FrameProtocol()
            connected(protocol)
            wire = encode_frame(Frame(kind=KIND_REQUEST, request_id=1, body=b"abcdef"))
            protocol.data_received(wire[: HEADER_BYTES + 2])
            protocol.connection_lost(None)
            with pytest.raises(FrameError, match="truncated frame body"):
                await protocol.read_frame()

        self.run(scenario())

    def test_read_frame_oversized(self):
        async def scenario():
            protocol = FrameProtocol()
            transport = connected(protocol)
            protocol.data_received(HEADER.pack(MAX_FRAME_BYTES + 1, KIND_REQUEST, 1))
            assert transport.ended  # dropped on the header, body never awaited
            with pytest.raises(FrameTooLargeError):
                await protocol.read_frame()

        self.run(scenario())


class TestFrameProtocol:
    """Frames handed over inside the callback that read them."""

    def run(self, coro):
        return asyncio.run(coro)

    def test_a_frame_split_at_every_byte_offset(self):
        frame = Frame(kind=KIND_REQUEST, request_id=7, body=b"_method=pay&t.ts=Cg")
        wire = encode_frame(frame)

        async def scenario():
            for cut in range(len(wire) + 1):
                protocol = Recorder()
                connected(protocol)
                protocol.start_frames()
                protocol.data_received(wire[:cut])
                assert protocol.frames == ([frame] if cut == len(wire) else []), cut
                protocol.data_received(wire[cut:])
                assert protocol.frames == [frame], cut

        self.run(scenario())

    def test_several_frames_in_one_chunk_are_handled_in_order(self):
        frames = [Frame(KIND_REQUEST, index, b"x" * index) for index in range(1, 6)]

        async def scenario():
            protocol = Recorder()
            connected(protocol)
            protocol.start_frames()
            protocol.data_received(b"".join(encode_frame(f) for f in frames))
            assert protocol.frames == frames

        self.run(scenario())

    def test_frames_read_before_start_are_handed_over_first(self):
        hello = Frame(KIND_CONTROL, 0, b"hs=hello")
        early = [Frame(KIND_REQUEST, 1, b"a"), Frame(KIND_REQUEST, 2, b"b")]

        async def scenario():
            protocol = Recorder()
            connected(protocol)
            protocol.data_received(b"".join(encode_frame(f) for f in [hello, *early]))
            assert await protocol.read_frame() == hello
            assert protocol.frames == []
            protocol.start_frames()
            assert protocol.frames == early

        self.run(scenario())

    @pytest.mark.parametrize(
        "header, error",
        [
            (HEADER.pack(MAX_FRAME_BYTES + 1, KIND_REQUEST, 1), FrameTooLargeError),
            (HEADER.pack(0, 200, 1), FrameError),
        ],
    )
    def test_a_bad_header_ends_the_connection(self, header, error):
        async def scenario():
            protocol = Recorder()
            transport = connected(protocol)
            protocol.start_frames()
            protocol.data_received(encode_frame(Frame(KIND_REQUEST, 1, b"ok")))
            protocol.data_received(header + b"\x00" * 64)
            assert transport.ended
            assert isinstance(protocol.failure, error)
            # Refused on the header: the decoder never waited for the body.
            assert protocol._decoder.pending_bytes == HEADER_BYTES + 64
            protocol.data_received(encode_frame(Frame(KIND_REQUEST, 2, b"late")))
            # The chunk holding the bad header, and all after it, is dropped.
            assert protocol.frames == [Frame(KIND_REQUEST, 1, b"ok")]

        self.run(scenario())

    def test_a_full_write_buffer_pauses_reading(self):
        async def scenario():
            protocol = Recorder()
            transport = connected(protocol)
            protocol.pause_writing()
            assert not transport.reading
            protocol.resume_writing()
            assert transport.reading

        self.run(scenario())

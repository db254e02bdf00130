"""Framing layer: the one header, torn frames, short reads, oversize caps."""

from __future__ import annotations

import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Frame,
    FrameTooLarge,
    MuxFrameDecoder,
    ProtocolError,
    ShortRead,
    WireClosed,
    decode_message,
)
from repro.net.frames import MAX_FRAME_BYTES, V2_MAGIC, frame_header_v2
from repro.net.mux import MuxConnection

#: One complete frame exactly as the parent commit (v1+v2 era) put it on the
#: wire: header(request id 0x0102030405060708, deadline 1234.5) + the
#: encoded ``("req", "admin:ping", ())`` payload.
GOLDEN_FRAME = bytes.fromhex(
    "ffffffff" "00000021" "0102030405060708" "40934a0000000000"
    "08000000030500000003726571050000000a61646d696e3a70696e670800000000"
)


def frame_bytes(payload: bytes, request_id: int = 1, deadline: float = 0.0) -> bytes:
    return frame_header_v2(len(payload), request_id, deadline) + payload


def v1_frame_bytes(payload: bytes) -> bytes:
    """The retired layout: a bare ``!I`` length prefix."""
    return struct.pack("!I", len(payload)) + payload


def payloads_of(frames: list[Frame]) -> list[bytes]:
    return [bytes(f.payload) for f in frames]


# ---------------------------------------------------------------------------
# the header


def test_golden_header_bytes():
    """The 24-byte header is pinned: ``!IIQd`` = sentinel, length, id, deadline."""
    head = frame_header_v2(33, 0x0102030405060708, 1234.5)
    assert head == GOLDEN_FRAME[:24]
    assert len(head) == 24
    assert struct.unpack("!IIQd", head) == (V2_MAGIC, 33, 0x0102030405060708, 1234.5)
    assert V2_MAGIC == 0xFFFFFFFF


def test_golden_frame_from_parent_commit_decodes_identically():
    dec = MuxFrameDecoder()
    dec.feed(GOLDEN_FRAME)
    [frame] = dec.frames()
    assert frame.request_id == 0x0102030405060708
    assert frame.deadline == 1234.5
    assert bytes(frame.payload) == GOLDEN_FRAME[24:]
    assert decode_message(frame.payload) == ("req", "admin:ping", ())
    dec.close()


# ---------------------------------------------------------------------------
# MuxFrameDecoder: incremental push-style decoding


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.binary(max_size=64), st.integers(0, 2**64 - 1), st.floats(0, 1e9)
        ),
        max_size=6,
    ),
    st.integers(1, 29),
)
def test_decoder_tolerates_any_byte_split(frames, chunk):
    """Feeding the stream in arbitrary chunk sizes recovers exact frames."""
    stream = b"".join(frame_bytes(p, rid, dl) for p, rid, dl in frames)
    dec = MuxFrameDecoder()
    for i in range(0, len(stream), chunk):
        dec.feed(stream[i : i + chunk])
    got = dec.frames()
    assert [(bytes(f.payload), f.request_id, f.deadline) for f in got] == frames
    dec.close()  # boundary: clean EOF
    assert dec.pending_bytes == 0


def test_decoder_one_byte_at_a_time():
    payloads = [b"", b"x", b"hello world"]
    stream = b"".join(frame_bytes(p) for p in payloads)
    dec = MuxFrameDecoder()
    for i in range(len(stream)):
        dec.feed(stream[i : i + 1])
    assert payloads_of(dec.frames()) == payloads


def test_torn_frame_short_read_on_close():
    """EOF mid-frame must raise ShortRead — never yield a partial frame."""
    dec = MuxFrameDecoder()
    dec.feed(frame_bytes(b"complete") + frame_bytes(b"torn!!")[:-2])
    assert payloads_of(dec.frames()) == [b"complete"]
    assert dec.pending_bytes > 0
    with pytest.raises(ShortRead):
        dec.close()


def test_torn_header_short_read_on_close():
    """Any prefix of a header — half a sentinel, a whole header whose
    payload never started — is a torn frame at EOF."""
    for cut in (2, 4, 11, 23, 24):
        dec = MuxFrameDecoder()
        dec.feed(frame_bytes(b"payload")[:cut])
        assert dec.frames() == []
        assert dec.pending_bytes == cut
        with pytest.raises(ShortRead):
            dec.close()


def test_feed_after_close_rejected():
    dec = MuxFrameDecoder()
    dec.close()
    with pytest.raises(ProtocolError):
        dec.feed(b"\xff")


def test_oversize_declared_length_rejected_before_payload():
    dec = MuxFrameDecoder()
    with pytest.raises(FrameTooLarge):
        dec.feed(struct.pack("!IIQd", V2_MAGIC, MAX_FRAME_BYTES + 1, 1, 0.0))


def test_decoder_iterates_in_arrival_order():
    """Many frames in one chunk pop in arrival order, ids intact."""
    dec = MuxFrameDecoder()
    dec.feed(frame_bytes(b"a", 7) + frame_bytes(b"b", 3) + frame_bytes(b"", 9))
    got = dec.frames()
    assert payloads_of(got) == [b"a", b"b", b""]
    assert [f.request_id for f in got] == [7, 3, 9]
    assert dec.frames() == []


def test_v1_frame_is_a_protocol_error():
    """The retired length-prefixed layout is refused at its first word."""
    dec = MuxFrameDecoder()
    with pytest.raises(ProtocolError):
        dec.feed(v1_frame_bytes(b"hello"))
    # ... also when it follows good frames, which are still delivered.
    dec = MuxFrameDecoder()
    with pytest.raises(ProtocolError):
        dec.feed(frame_bytes(b"ok") + v1_frame_bytes(b"hello"))
    assert payloads_of(dec.frames()) == [b"ok"]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 2), st.binary(max_size=32), st.integers(1, 5))
def test_any_first_word_but_the_sentinel_is_rejected(word, tail, chunk):
    """Refused as soon as the four bytes are in — never buffered further,
    never allocated for — at any split of the stream."""
    stream = struct.pack("!I", word) + tail
    dec = MuxFrameDecoder()
    with pytest.raises(ProtocolError):
        for i in range(0, len(stream), chunk):
            dec.feed(stream[i : i + chunk])
            assert i + chunk < 4, "accepted a foreign first word"
    assert dec.frames() == []


# ---------------------------------------------------------------------------
# socket pair: MuxConnection (the one sender) against a scripted peer


class Peer:
    """The far end of a socket pair, speaking frames through the decoder."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._decoder = MuxFrameDecoder()
        self._ready: list[Frame] = []

    def read_frame(self) -> Frame:
        while not self._ready:
            data = self.sock.recv(1 << 16)
            assert data, "connection under test closed early"
            self._decoder.feed(data)
            self._ready = self._decoder.frames()
        return self._ready.pop(0)

    def reply(self, request_id: int, payload: bytes) -> None:
        self.sock.sendall(frame_bytes(payload, request_id))

    def echo(self, count: int) -> list[bytes]:
        """Answer ``count`` requests with their own payload; returns them."""
        seen = []
        for _ in range(count):
            frame = self.read_frame()
            seen.append(bytes(frame.payload))
            self.reply(frame.request_id, seen[-1])
        return seen


@contextmanager
def mux_pair():
    a, b = socket.socketpair()
    conn = MuxConnection(a, server_id=0)
    try:
        yield conn, Peer(b)
    finally:
        conn.close()
        b.close()


def in_thread(fn, *args) -> tuple[threading.Thread, dict]:
    out: dict = {}

    def body():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - asserted by the caller
            out["error"] = exc

    t = threading.Thread(target=body)
    t.start()
    return t, out


def test_socket_roundtrip_small_and_large():
    with mux_pair() as (conn, peer):
        big = bytes(range(256)) * 1024  # 256 KiB: far beyond one recv chunk
        t, out = in_thread(peer.echo, 2)
        assert conn.call([b"ping"], timeout=10) == b"ping"
        assert conn.call([big], timeout=10) == big
        t.join(timeout=10)
        assert out["value"] == [b"ping", big]


def test_socket_zero_byte_frame():
    with mux_pair() as (conn, peer):
        t, out = in_thread(peer.echo, 1)
        assert conn.call([b""], timeout=10) == b""
        t.join(timeout=10)
        assert out["value"] == [b""]


def test_clean_eof_at_boundary_is_wire_closed():
    with mux_pair() as (conn, peer):
        t, _ = in_thread(peer.echo, 1)
        assert conn.call([b"last"], timeout=10) == b"last"
        t.join(timeout=10)
        peer.sock.close()
        deadline = time.time() + 10
        while not conn.dead and time.time() < deadline:
            time.sleep(0.005)
        assert isinstance(conn._dead, WireClosed)
        with pytest.raises(WireClosed):
            conn.call([b"too late"], timeout=10)


def test_eof_mid_frame_is_short_read():
    with mux_pair() as (conn, peer):
        t, out = in_thread(conn.call, [b"req"], 0.0, 10)
        frame = peer.read_frame()
        peer.sock.sendall(frame_header_v2(100, frame.request_id) + b"only-part")
        peer.sock.close()
        t.join(timeout=10)
        assert isinstance(out["error"], ShortRead)


def test_recv_rejects_oversize_header_without_allocating():
    with mux_pair() as (conn, peer):
        t, out = in_thread(conn.call, [b"req"], 0.0, 10)
        frame = peer.read_frame()
        peer.sock.sendall(
            struct.pack("!IIQd", V2_MAGIC, MAX_FRAME_BYTES + 1, frame.request_id, 0.0)
        )
        t.join(timeout=10)
        assert isinstance(out["error"], FrameTooLarge)
        assert conn.dead  # a malformed stream retires the connection


def test_v1_reply_kills_the_connection_with_protocol_error():
    with mux_pair() as (conn, peer):
        t, out = in_thread(conn.call, [b"req"], 0.0, 10)
        peer.read_frame()
        peer.sock.sendall(v1_frame_bytes(b"lockstep reply"))
        t.join(timeout=10)
        assert isinstance(out["error"], ProtocolError)
        assert conn.dead


def test_send_rejects_oversize_payload():
    class FakeBig(bytes):
        def __len__(self):
            return MAX_FRAME_BYTES + 1

    with mux_pair() as (conn, peer):
        with pytest.raises(FrameTooLarge):
            conn.call([FakeBig()], timeout=10)
        # Nothing was sent: the connection is still aligned and usable.
        assert conn.pending_count == 0
        t, _ = in_thread(peer.echo, 1)
        assert conn.call([b"still fine"], timeout=10) == b"still fine"
        t.join(timeout=10)


# ---------------------------------------------------------------------------
# scatter-gather sends: a frame handed over as an iovec


def test_send_frame_iov_equals_send_frame():
    """A frame sent as several buffers is the same frame as one sent whole."""
    parts = [b"head", bytearray(b"-mid-"), memoryview(b"tail")]
    joined = b"".join(bytes(p) for p in parts)
    with mux_pair() as (conn, peer):
        t, out = in_thread(peer.echo, 2)
        assert conn.call(parts, timeout=10) == joined
        assert conn.call([joined], timeout=10) == joined
        t.join(timeout=10)
        assert out["value"] == [joined, joined]


def test_send_frame_iov_skips_empty_parts():
    with mux_pair() as (conn, peer):
        t, out = in_thread(peer.echo, 1)
        conn.call([b"", b"x", b"", memoryview(b""), b"y"], timeout=10)
        t.join(timeout=10)
        assert out["value"] == [b"xy"]


def test_send_frame_iov_empty_frame():
    with mux_pair() as (conn, peer):
        t, out = in_thread(peer.echo, 1)
        assert conn.call([], timeout=10) == b""
        t.join(timeout=10)
        assert out["value"] == [b""]


def test_send_frame_iov_many_vectors_and_partial_sends():
    """More parts than one sendmsg can take (vector-count ceiling) plus a
    payload far beyond the socket buffer, so the partial-send loop runs."""
    parts = [bytes([i % 256]) * 997 for i in range(1300)]  # ~1.2 MiB, 1300 vecs
    joined = b"".join(parts)
    with mux_pair() as (conn, peer):
        t, out = in_thread(peer.echo, 1)
        got = conn.call(parts, timeout=30)
        t.join(timeout=30)
        assert bytes(got) == joined
        assert out["value"] == [joined]


def test_recv_frame_buffer_is_writable():
    """Zero-copy decode views over a received frame must be mutable, so the
    frame buffer itself has to be writable (bytearray, not bytes)."""
    with mux_pair() as (conn, peer):
        t, _ = in_thread(peer.echo, 1)
        buf = conn.call([b"abc"], timeout=10)
        t.join(timeout=10)
        assert isinstance(buf, bytearray)
        memoryview(buf)[0] = 0x7A
        assert buf == b"zbc"

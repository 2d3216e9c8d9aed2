"""Unit tests for the checksum framing layer and verified client I/O."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric import (
    FRAME_OVERHEAD,
    U64_MASK,
    FarCorruptionError,
    encode_u64,
    frame_block,
    frame_size,
    try_unframe,
)
from repro.fabric.integrity import FRAME

NODE_SIZE = 8 << 20


@pytest.fixture
def cluster():
    return Cluster(node_count=2, node_size=NODE_SIZE)


class TestFraming:
    def test_roundtrip(self):
        frame = frame_block(b"hello far memory", version=42)
        assert len(frame) == FRAME_OVERHEAD + 16
        assert try_unframe(frame) == (42, b"hello far memory")

    def test_frame_size(self):
        assert frame_size(48) == 48 + FRAME_OVERHEAD
        with pytest.raises(ValueError):
            frame_size(0)

    def test_every_single_bit_flip_is_detected(self):
        frame = bytearray(frame_block(b"\x00" * 24, version=1))
        for byte in range(len(frame)):
            for bit in range(8):
                frame[byte] ^= 1 << bit
                assert try_unframe(bytes(frame)) is None, (byte, bit)
                frame[byte] ^= 1 << bit
        assert try_unframe(bytes(frame)) == (1, b"\x00" * 24)

    def test_all_zero_bytes_do_not_verify(self):
        """A never-written (zero) far range must fail verification — the
        zero CRC word does not match the zero body."""
        assert try_unframe(b"\x00" * frame_size(64)) is None

    def test_short_frame_rejected(self):
        assert try_unframe(b"\x00" * FRAME_OVERHEAD) is None
        assert try_unframe(b"") is None

    def test_crc_word_is_crc32_of_the_covered_bytes(self):
        """The crc word is CRC-32 of ``version word + payload``, widened to a
        fabric word: its high half is always zero."""
        frame = frame_block(b"some bytes", version=3)
        crc = FRAME.unpack_from(frame)[0]
        assert crc == zlib.crc32(frame[8:]) < 2**32


def _reference_frame(payload: bytes, version: int) -> bytes:
    """The four-step construction ``frame_block`` replaced: zero crc word and
    the (wrapped) version, then the payload, then the crc patched in."""
    frame = bytearray(FRAME.pack(0, version))
    frame += payload
    frame[:8] = encode_u64(zlib.crc32(memoryview(frame)[8:]) & U64_MASK)
    return bytes(frame)


@settings(max_examples=100, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=300),
    version=st.sampled_from((0, 2**64 - 1, 2**64 + 5)),
    data=st.data(),
)
def test_one_pass_frame_matches_the_four_step_frame(payload, version, data):
    frame = frame_block(payload, version)
    assert frame == _reference_frame(payload, version)
    assert try_unframe(frame) == (version & U64_MASK, payload)
    bit = data.draw(st.integers(0, 8 * len(frame) - 1), label="flipped bit")
    flipped = bytearray(frame)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert try_unframe(bytes(flipped)) is None
    # Any proper prefix: a torn frame, or one too short to hold a payload.
    cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
    assert try_unframe(frame[:cut]) is None
    assert try_unframe(frame[:FRAME_OVERHEAD]) is None


class TestVerifiedClientIO:
    def test_write_framed_read_verified_roundtrip(self, cluster):
        c = cluster.client()
        addr = cluster.allocator.alloc(256)
        snap = c.metrics.snapshot()
        c.write_framed(addr, b"p" * 40, version=9)
        assert c.read_verified(addr, 40) == (9, b"p" * 40)
        delta = c.metrics.delta(snap)
        # One far access each way: verification happens in near memory.
        assert delta.far_accesses == 2
        assert delta.verified_reads == 1
        assert delta.verify_misses == 0

    def test_read_verified_raises_on_unwritten_range(self, cluster):
        c = cluster.client()
        addr = cluster.allocator.alloc(256)
        with pytest.raises(FarCorruptionError):
            c.read_verified(addr, 40)
        assert c.metrics.verify_misses == 1

    def test_read_verified_fallback_order_and_cost(self, cluster):
        c = cluster.client()
        bad = cluster.allocator.alloc(256)
        good = cluster.allocator.alloc(256)
        c.write_framed(good, b"g" * 16, version=2)
        snap = c.metrics.snapshot()
        assert c.read_verified(bad, 16, fallback=(good,)) == (2, b"g" * 16)
        delta = c.metrics.delta(snap)
        assert delta.far_accesses == 2  # miss costs exactly one extra read
        assert delta.verify_misses == 1
        assert delta.verified_reads == 2

    def test_read_verified_exhausted_raises_last(self, cluster):
        c = cluster.client()
        a = cluster.allocator.alloc(256)
        b = cluster.allocator.alloc(256)
        with pytest.raises(FarCorruptionError) as excinfo:
            c.read_verified(a, 16, fallback=(b,))
        assert excinfo.value.address == b  # the last replica tried
        assert c.metrics.verify_misses == 2

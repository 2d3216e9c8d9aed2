"""Unit tests for the checksum framing layer and verified client I/O."""

import pytest

from repro import Cluster
from repro.fabric import (
    FRAME_OVERHEAD,
    FarCorruptionError,
    crc32_u64,
    frame_block,
    frame_size,
    try_unframe,
)

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

    def test_crc32_u64_fits_a_word(self):
        value = crc32_u64(b"some bytes")
        assert 0 <= value < 2**64
        assert crc32_u64(b"some bytes") == value  # pure


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

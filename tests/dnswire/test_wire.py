"""Byte reader/writer primitives."""

import pytest

from repro.dnswire.wire import (
    TruncatedMessageError,
    WireError,
    WireReader,
    WireWriter,
)


class TestWriter:
    def test_empty(self):
        assert WireWriter().getvalue() == b""

    def test_u8(self):
        w = WireWriter()
        w.write_u8(0xAB)
        assert w.getvalue() == b"\xab"

    def test_u16_big_endian(self):
        w = WireWriter()
        w.write_u16(0x1234)
        assert w.getvalue() == b"\x12\x34"

    def test_u32_big_endian(self):
        w = WireWriter()
        w.write_u32(0xDEADBEEF)
        assert w.getvalue() == b"\xde\xad\xbe\xef"

    @pytest.mark.parametrize("value", [-1, 256])
    def test_u8_range(self, value):
        with pytest.raises(WireError):
            WireWriter().write_u8(value)

    @pytest.mark.parametrize("value", [-1, 0x10000])
    def test_u16_range(self, value):
        with pytest.raises(WireError):
            WireWriter().write_u16(value)

    @pytest.mark.parametrize("value", [-1, 0x100000000])
    def test_u32_range(self, value):
        with pytest.raises(WireError):
            WireWriter().write_u32(value)

    def test_offset_tracks_length(self):
        w = WireWriter()
        w.write_bytes(b"abc")
        assert w.offset == 3
        assert len(w) == 3

    def test_name_memory(self):
        w = WireWriter()
        w.remember_name("example.com", 12)
        assert w.lookup_name("example.com") == 12
        assert w.lookup_name("other.com") is None

    def test_name_memory_first_wins(self):
        w = WireWriter()
        w.remember_name("example.com", 12)
        w.remember_name("example.com", 40)
        assert w.lookup_name("example.com") == 12

    def test_name_memory_ignores_large_offsets(self):
        w = WireWriter()
        w.remember_name("example.com", 0x4000)
        assert w.lookup_name("example.com") is None


class TestReader:
    def test_read_sequence(self):
        r = WireReader(b"\x01\x02\x03\x04\x05\x06\x07")
        assert r.read_u8() == 1
        assert r.read_u16() == 0x0203
        assert r.read_u32() == 0x04050607
        assert r.at_end()

    def test_truncated_u16(self):
        with pytest.raises(TruncatedMessageError):
            WireReader(b"\x01").read_u16()

    def test_truncated_bytes(self):
        with pytest.raises(TruncatedMessageError):
            WireReader(b"ab").read_bytes(3)

    def test_negative_read(self):
        with pytest.raises(WireError):
            WireReader(b"ab").read_bytes(-1)

    def test_seek(self):
        r = WireReader(b"abcd")
        r.seek(2)
        assert r.read_bytes(2) == b"cd"

    def test_seek_out_of_range(self):
        with pytest.raises(TruncatedMessageError):
            WireReader(b"ab").seek(5)

    def test_remaining(self):
        r = WireReader(b"abcd")
        r.read_bytes(1)
        assert r.remaining() == 3

    def test_offset_constructor(self):
        r = WireReader(b"abcd", offset=2)
        assert r.read_bytes(2) == b"cd"

"""Domain-name encoding, decoding, comparison and compression."""

import pytest

from repro.dnswire.name import DnsName, NameError_, name
from repro.dnswire.wire import WireReader, WireWriter


class TestConstruction:
    def test_from_text_simple(self):
        n = DnsName.from_text("www.example.com")
        assert n.labels == ("www", "example", "com")

    def test_from_text_trailing_dot(self):
        assert DnsName.from_text("example.com.") == DnsName.from_text("example.com")

    def test_root_from_dot(self):
        assert DnsName.from_text(".").is_root
        assert DnsName.from_text("").is_root

    def test_root_text(self):
        assert DnsName.root().to_text() == "."

    def test_escaped_dot_inside_label(self):
        n = DnsName.from_text(r"a\.b.example")
        assert n.labels == ("a.b", "example")
        assert n.to_text() == r"a\.b.example."

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            DnsName(("a", "", "b"))

    def test_label_too_long_rejected(self):
        with pytest.raises(NameError_):
            DnsName(("x" * 64,))

    def test_label_63_ok(self):
        DnsName(("x" * 63,))

    def test_name_too_long_rejected(self):
        labels = tuple("x" * 60 for _ in range(5))
        with pytest.raises(NameError_):
            DnsName(labels)

    def test_dangling_escape_rejected(self):
        with pytest.raises(NameError_):
            DnsName.from_text("abc\\")

    def test_name_helper_idempotent(self):
        n = name("id.server")
        assert name(n) is n


class TestComparison:
    def test_case_insensitive_equality(self):
        assert DnsName.from_text("Example.COM") == DnsName.from_text("example.com")

    def test_case_insensitive_hash(self):
        assert hash(DnsName.from_text("A.B")) == hash(DnsName.from_text("a.b"))

    def test_eq_string(self):
        assert DnsName.from_text("id.server") == "ID.Server."

    def test_original_spelling_preserved(self):
        assert DnsName.from_text("ExAmple.Com").to_text() == "ExAmple.Com."

    def test_ordering(self):
        assert DnsName.from_text("a.b") < DnsName.from_text("b.b")


class TestHierarchy:
    def test_subdomain_of_self(self):
        n = name("example.com")
        assert n.is_subdomain_of(n)

    def test_subdomain_true(self):
        assert name("www.example.com").is_subdomain_of(name("example.com"))

    def test_subdomain_false(self):
        assert not name("example.com").is_subdomain_of(name("www.example.com"))

    def test_subdomain_not_suffix_string(self):
        # "badexample.com" is not under "example.com" despite the suffix.
        assert not name("badexample.com").is_subdomain_of(name("example.com"))

    def test_everything_under_root(self):
        assert name("a.b.c").is_subdomain_of(DnsName.root())

    def test_parent(self):
        assert name("www.example.com").parent() == name("example.com")

    def test_root_parent_is_root(self):
        assert DnsName.root().parent().is_root

    def test_prepend(self):
        assert name("example.com").prepend("www") == name("www.example.com")

    def test_concatenate(self):
        assert name("www").concatenate(name("example.com")) == name("www.example.com")


class TestWire:
    def roundtrip(self, text, compress=True):
        writer = WireWriter()
        original = DnsName.from_text(text)
        original.encode(writer, compress=compress)
        reader = WireReader(writer.getvalue())
        return DnsName.decode(reader)

    def test_roundtrip_simple(self):
        assert self.roundtrip("www.example.com") == name("www.example.com")

    def test_roundtrip_root(self):
        assert self.roundtrip(".").is_root

    def test_root_is_single_zero_byte(self):
        writer = WireWriter()
        DnsName.root().encode(writer)
        assert writer.getvalue() == b"\x00"

    def test_compression_pointer_used(self):
        writer = WireWriter()
        name("example.com").encode(writer)
        first_len = len(writer)
        name("www.example.com").encode(writer)
        # "example.com" suffix is a 2-byte pointer, "www" is 4 bytes.
        assert len(writer) - first_len == 4 + 2

    def test_compression_is_case_exact(self):
        """A differently-cased spelling must not reuse an earlier
        pointer: pointing at "EXAMPLE.com" would silently rewrite
        "example.com" on the wire, destroying 0x20-style case fidelity
        (the echoed spelling *is* the signal)."""
        writer = WireWriter()
        name("www.EXAMPLE.com").encode(writer)
        second_offset = len(writer)
        name("www.example.com").encode(writer)
        reader = WireReader(writer.getvalue())
        assert DnsName.decode(reader).to_text() == "www.EXAMPLE.com."
        reader = WireReader(writer.getvalue(), offset=second_offset)
        assert DnsName.decode(reader).to_text() == "www.example.com."

    def test_same_case_spelling_still_compresses(self):
        """Case-exact keys must not cost compression when the spelling
        really is identical."""
        writer = WireWriter()
        name("mail.eXample.coM").encode(writer)
        first_len = len(writer)
        name("www.eXample.coM").encode(writer)
        assert len(writer) - first_len == 4 + 2  # "www" label + pointer

    def test_message_preserves_both_spellings(self):
        """End-to-end: a message carrying two case-variant spellings of
        one name round-trips both exactly."""
        from repro.dnswire import Flags, Message, QType, Question, decode_or_none
        from repro.dnswire.rr import a_record

        message = Message(
            msg_id=1,
            flags=Flags(qr=True),
            questions=(Question("www.EXAMPLE.com.", QType.A),),
            answers=(a_record("www.example.com.", "192.0.2.1"),),
        )
        decoded = decode_or_none(message.encode())
        assert decoded.question.qname.to_text() == "www.EXAMPLE.com."
        assert decoded.answers[0].name.to_text() == "www.example.com."

    def test_compressed_names_decode(self):
        writer = WireWriter()
        name("example.com").encode(writer)
        second_offset = len(writer)
        name("www.example.com").encode(writer)
        reader = WireReader(writer.getvalue(), offset=second_offset)
        assert DnsName.decode(reader) == name("www.example.com")

    def test_decode_restores_cursor_after_pointer(self):
        writer = WireWriter()
        name("example.com").encode(writer)
        second_offset = len(writer)
        name("www.example.com").encode(writer)
        writer.write_u16(0xBEEF)
        reader = WireReader(writer.getvalue(), offset=second_offset)
        DnsName.decode(reader)
        assert reader.read_u16() == 0xBEEF

    def test_pointer_loop_rejected(self):
        # A pointer pointing at itself.
        data = b"\xc0\x00"
        with pytest.raises(NameError_):
            DnsName.decode(WireReader(data))

    def test_pointer_beyond_buffer_rejected(self):
        from repro.dnswire.wire import TruncatedMessageError

        data = b"\xc0\x7f"
        with pytest.raises(TruncatedMessageError):
            DnsName.decode(WireReader(data))

    def test_reserved_label_type_rejected(self):
        data = b"\x80abc"
        with pytest.raises(NameError_):
            DnsName.decode(WireReader(data))

    def test_no_compression_flag(self):
        writer = WireWriter()
        name("example.com").encode(writer)
        before = len(writer)
        name("www.example.com").encode(writer, compress=False)
        # Full encoding: 4 + 8 + 4 + 1 = len("www")+1 + ... = 17 bytes.
        assert len(writer) - before == 17

    def test_case_preserved_through_wire(self):
        assert self.roundtrip("CaSe.ExAmPle").to_text() == "CaSe.ExAmPle."

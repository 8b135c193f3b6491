"""DNS message: header, question, and the four record sections.

This is a complete RFC 1035 message codec. All server and client models in
the reproduction exchange *encoded* messages over the simulated network —
exactly like the real system — so parser behaviour (including on hostile
or malformed responses from interceptors) is part of what is under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .enums import Opcode, QClass, QType, RCode
from .name import DnsName, name
from .rr import MxData, NameData, RData, ResourceRecord, SoaData
from .wire import WireError, WireReader, WireWriter

_FLAG_QR = 0x8000
_FLAG_AA = 0x0400
_FLAG_TC = 0x0200
_FLAG_RD = 0x0100
_FLAG_RA = 0x0080
_OPCODE_SHIFT = 11
_OPCODE_MASK = 0xF
_RCODE_MASK = 0xF


@dataclass(frozen=True)
class Flags:
    """Decoded DNS header flag word."""

    qr: bool = False
    opcode: int = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    rcode: int = RCode.NOERROR

    def encode(self) -> int:
        word = 0
        if self.qr:
            word |= _FLAG_QR
        word |= (int(self.opcode) & _OPCODE_MASK) << _OPCODE_SHIFT
        if self.aa:
            word |= _FLAG_AA
        if self.tc:
            word |= _FLAG_TC
        if self.rd:
            word |= _FLAG_RD
        if self.ra:
            word |= _FLAG_RA
        word |= int(self.rcode) & _RCODE_MASK
        return word

    @classmethod
    def decode(cls, word: int) -> "Flags":
        return cls(
            qr=bool(word & _FLAG_QR),
            opcode=Opcode.decode((word >> _OPCODE_SHIFT) & _OPCODE_MASK),
            aa=bool(word & _FLAG_AA),
            tc=bool(word & _FLAG_TC),
            rd=bool(word & _FLAG_RD),
            ra=bool(word & _FLAG_RA),
            rcode=RCode.decode(word & _RCODE_MASK),
        )


@dataclass(frozen=True)
class Question:
    """A question-section entry."""

    qname: DnsName
    qtype: int
    qclass: int = QClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "qname", name(self.qname))

    def encode(self, writer: WireWriter) -> None:
        self.qname.encode(writer)
        writer.write_u16(int(self.qtype))
        writer.write_u16(int(self.qclass))

    @classmethod
    def decode(cls, reader: WireReader) -> "Question":
        qname = DnsName.decode(reader)
        qtype = QType.decode(reader.read_u16())
        qclass = QClass.decode(reader.read_u16())
        return cls(qname, qtype, qclass)

    def to_text(self) -> str:
        return (
            f"{self.qname.to_text()} {QClass.label(self.qclass)} "
            f"{QType.label(self.qtype)}"
        )


@dataclass(frozen=True)
class Message:
    """A DNS message (query or response)."""

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authorities: tuple[ResourceRecord, ...] = ()
    additionals: tuple[ResourceRecord, ...] = ()

    # -- convenience accessors -------------------------------------------

    @property
    def is_response(self) -> bool:
        return self.flags.qr

    @property
    def rcode(self) -> int:
        return self.flags.rcode

    @property
    def question(self) -> Question | None:
        """The first (and in practice only) question, or None."""
        return self.questions[0] if self.questions else None

    def txt_strings(self) -> list[str]:
        """Joined TXT payloads of all TXT answers, in order.

        This is the view the interception detector consumes: the answer
        to a location query or a ``version.bind`` query is the
        concatenated character-strings of its TXT answer.
        """
        out: list[str] = []
        for rr in self.answers:
            joined = getattr(rr.rdata, "joined", None)
            if joined is not None:
                out.append(joined)
        return out

    def a_addresses(self) -> list[str]:
        """Dotted-quad strings of all A answers (for whoami checks)."""
        return [
            str(rr.rdata.address)
            for rr in self.answers
            if rr.rdtype == QType.A
        ]

    def aaaa_addresses(self) -> list[str]:
        return [
            str(rr.rdata.address)
            for rr in self.answers
            if rr.rdtype == QType.AAAA
        ]

    # -- wire format -------------------------------------------------------

    def encode(self) -> bytes:
        msg_id = self.msg_id
        if not 0 <= msg_id <= 0xFFFF:
            raise WireError(f"u16 out of range: {msg_id}")
        # Everything after the 2-byte id encodes identically for messages
        # with the same content, including compression pointer offsets
        # (the id is fixed-width), so only the id is stamped per message.
        # A query made by make_query carries its tail; any other message
        # looks it up in a memo keyed by content. Keys are case-exact
        # (see _encode_key) because DnsName equality is case-insensitive
        # but encoding is not.
        tail = self.__dict__.get(_TAIL)
        if tail is None:
            tail = self._encoded_tail()
        return msg_id.to_bytes(2, "big") + tail

    def _encoded_tail(self) -> bytes:
        """The wire after the id, from the content memo or built."""
        try:
            key = _encode_key(self)
            tail = _ENCODE_TAILS.get(key)
        except TypeError:
            key = None
            tail = None
        if tail is not None:
            return tail
        tail = self._build_tail()
        if key is not None:
            if len(_ENCODE_TAILS) >= _ENCODE_CACHE_MAX:
                _ENCODE_TAILS.clear()
            _ENCODE_TAILS[key] = tail
        return tail

    def _build_tail(self) -> bytes:
        writer = WireWriter()
        writer.write_u16(0)
        writer.write_u16(self.flags.encode())
        writer.write_u16(len(self.questions))
        writer.write_u16(len(self.answers))
        writer.write_u16(len(self.authorities))
        writer.write_u16(len(self.additionals))
        for question in self.questions:
            question.encode(writer)
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                record.encode(writer)
        return writer.getvalue()[2:]

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        reader = WireReader(data)
        msg_id = reader.read_u16()
        flags = Flags.decode(reader.read_u16())
        qdcount = reader.read_u16()
        ancount = reader.read_u16()
        nscount = reader.read_u16()
        arcount = reader.read_u16()
        questions = tuple(Question.decode(reader) for _ in range(qdcount))
        answers = tuple(ResourceRecord.decode(reader) for _ in range(ancount))
        authorities = tuple(ResourceRecord.decode(reader) for _ in range(nscount))
        additionals = tuple(ResourceRecord.decode(reader) for _ in range(arcount))
        return cls(msg_id, flags, questions, answers, authorities, additionals)

    # -- builders ------------------------------------------------------------

    def reply(
        self,
        rcode: int = RCode.NOERROR,
        answers: tuple[ResourceRecord, ...] = (),
        authoritative: bool = False,
        recursion_available: bool = True,
        truncated: bool = False,
        additionals: tuple[ResourceRecord, ...] = (),
    ) -> "Message":
        """Build a response to this query, echoing id and question.

        ``truncated`` sets the TC bit (a server signalling an answer too
        large for the transport); ``additionals`` carries OPT or other
        additional-section records — by default the reply drops the
        query's additionals, as the zoo's servers historically have.
        """
        flags = self.flags
        reply_flags = Flags(
            qr=True,
            opcode=flags.opcode,
            aa=authoritative,
            tc=truncated,
            rd=flags.rd,
            ra=recursion_available,
            rcode=rcode,
        )
        return _build(
            self.msg_id,
            reply_flags,
            self.questions,
            tuple(answers),
            (),
            tuple(additionals),
        )

    def with_id(self, msg_id: int) -> "Message":
        """This message with id ``msg_id``; a query from
        :func:`make_query` keeps its encoded tail."""
        message = object.__new__(Message)
        state = message.__dict__
        state.update(self.__dict__)
        state["msg_id"] = msg_id
        return message

    def to_text(self) -> str:
        lines = [
            f";; id {self.msg_id} opcode {Opcode.label(self.flags.opcode)} "
            f"rcode {RCode.label(self.flags.rcode)}"
            + (" qr" if self.flags.qr else "")
            + (" aa" if self.flags.aa else "")
            + (" rd" if self.flags.rd else "")
            + (" ra" if self.flags.ra else "")
        ]
        if self.questions:
            lines.append(";; QUESTION")
            lines.extend("  " + q.to_text() for q in self.questions)
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            if section:
                lines.append(f";; {title}")
                lines.extend("  " + rr.to_text() for rr in section)
        return "\n".join(lines)


def make_query(
    qname: "str | DnsName",
    qtype: int,
    qclass: int = QClass.IN,
    msg_id: int | None = None,
    recursion_desired: bool = True,
    rng: random.Random | None = None,
) -> Message:
    """Construct a standard single-question query message.

    Every query of one ``(qname as spelled, qtype, qclass,
    recursion_desired)`` is one template stamped with its id; the
    template carries its encoded tail, so :meth:`Message.encode` of a
    query writes only the id.
    """
    if msg_id is None:
        msg_id = (rng or random).randint(0, 0xFFFF)
    key = (
        qname if type(qname) is str else qname.labels,
        qtype,
        type(qtype),
        qclass,
        type(qclass),
        recursion_desired,
    )
    template = _QUERY_TEMPLATES.get(key)
    if template is None:
        template = Message(
            flags=Flags(qr=False, rd=recursion_desired),
            questions=(Question(name(qname), qtype, qclass),),
        )
        template.__dict__[_TAIL] = template._build_tail()
        if len(_QUERY_TEMPLATES) >= _ENCODE_CACHE_MAX:
            _QUERY_TEMPLATES.clear()
        _QUERY_TEMPLATES[key] = template
    return template.with_id(msg_id)


def _build(
    msg_id: int,
    flags: Flags,
    questions: tuple,
    answers: tuple,
    authorities: tuple,
    additionals: tuple,
) -> Message:
    """A new message from its fields, without the dataclass
    ``__init__`` (which checks nothing either)."""
    message = object.__new__(Message)
    state = message.__dict__
    state["msg_id"] = msg_id
    state["flags"] = flags
    state["questions"] = questions
    state["answers"] = answers
    state["authorities"] = authorities
    state["additionals"] = additionals
    return message


# -- hot-path caches -------------------------------------------------------
#
# The measurement pipeline encodes and decodes the same handful of
# logical messages millions of times, differing only in the 2-byte id.
# The caches below key on everything *except* the id and re-stamp it.

#: The ``__dict__`` slot in which a query template keeps its encoded
#: tail. Outside the fields, so ``==``, ``repr`` and ``replace`` never
#: see it. A decoded message never has one: re-encoding a parsed
#: message need not reproduce the bytes it was parsed from.
_TAIL = "_tail"

#: ``make_query`` key -> query template. Bounded; cleared when full.
_QUERY_TEMPLATES: "dict[tuple, Message]" = {}

#: Content key -> encoded bytes after the id. Bounded; cleared when full.
_ENCODE_TAILS: dict[tuple, bytes] = {}
_ENCODE_CACHE_MAX = 4096

#: Wire tail (bytes after the id) -> decoded Message template, or the
#: garbage marker when those bytes do not decode. Bounded as above.
_DECODE_GARBAGE = object()
_DECODE_CACHE: "dict[bytes, Message | object]" = {}
_DECODE_CACHE_MAX = 4096


def _rdata_key(rdata: RData) -> object:
    # DnsName equality/hash is case-insensitive, so every RDATA kind that
    # carries a name is keyed on its exact label spelling here. Value-only
    # kinds (A/AAAA/TXT/Opaque) compare exactly and key as themselves.
    if isinstance(rdata, NameData):
        return (type(rdata).__name__, rdata.target.labels)
    if isinstance(rdata, SoaData):
        return (
            "SOA",
            rdata.mname.labels,
            rdata.rname.labels,
            rdata.serial,
            rdata.refresh,
            rdata.retry,
            rdata.expire,
            rdata.minimum,
        )
    if isinstance(rdata, MxData):
        return ("MX", rdata.preference, rdata.exchange.labels)
    return (type(rdata).__name__, rdata)


def _record_key(record: ResourceRecord) -> tuple:
    return (
        record.name.labels,
        int(record.rdtype),
        int(record.rdclass),
        record.ttl,
        _rdata_key(record.rdata),
    )


def _encode_key(message: Message) -> tuple:
    """Case-exact content key for the encode-tail cache (id excluded)."""
    return (
        message.flags,
        tuple(
            (q.qname.labels, int(q.qtype), int(q.qclass))
            for q in message.questions
        ),
        tuple(_record_key(r) for r in message.answers),
        tuple(_record_key(r) for r in message.authorities),
        tuple(_record_key(r) for r in message.additionals),
    )


def decode_or_none(data: bytes) -> Message | None:
    """Decode ``data``; return None (rather than raising) on garbage.

    Client code uses this at the measurement edge: a hostile or broken
    interceptor may emit bytes that are not a DNS message at all, which the
    measurement must treat as "no usable response", not a crash.

    The net is deliberately narrow: every decoder in this package is
    required to surface malformed input as :class:`WireError` (RDATA
    decoders wrap stray ``ValueError``-family exceptions at the source in
    ``rr.py``), and ``repro.fuzz``'s hostile-bytes oracle enforces that
    ``Message.decode`` raises nothing else on arbitrary buffers.

    Results are memoised on the bytes after the id. The one way the id
    bytes can influence anything beyond ``msg_id`` is a compression
    pointer targeting offset 0 or 1 (i.e. the two-byte sequences C0 00 /
    C0 01 somewhere in the buffer); such buffers bypass the cache.
    """
    if len(data) < 2:
        return None
    if b"\xc0\x00" in data or b"\xc0\x01" in data:
        try:
            return Message.decode(data)
        except (WireError, IndexError):
            return None
    key = bytes(data[2:])
    cached = _DECODE_CACHE.get(key)
    if cached is None:
        try:
            cached = Message.decode(data)
        except (WireError, IndexError):
            cached = _DECODE_GARBAGE
        if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[key] = cached
    if cached is _DECODE_GARBAGE:
        return None
    assert isinstance(cached, Message)
    msg_id = int.from_bytes(data[:2], "big")
    if cached.msg_id == msg_id:
        return cached
    return cached.with_id(msg_id)

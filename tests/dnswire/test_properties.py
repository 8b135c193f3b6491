"""Property-based tests (hypothesis) on the DNS wire codec.

Invariants:

- every name/message we can construct round-trips through the wire
  byte-identically in value;
- compression never changes the decoded value;
- the decoder never crashes on arbitrary bytes (it raises WireError or
  returns a message — ``decode_or_none`` never raises at all).
"""

import string

from hypothesis import given, settings, strategies as st

from repro.dnswire import (
    DnsName,
    Flags,
    Message,
    QClass,
    QType,
    Question,
    RCode,
    decode_or_none,
    make_query,
    txt_record,
    a_record,
    aaaa_record,
)
from repro.dnswire.wire import WireError, WireReader, WireWriter

# -- strategies -------------------------------------------------------------

# Includes dot, backslash and space *inside* labels: shapes the encoder
# must escape in presentation format and must never alias in compression.
label_alphabet = string.ascii_letters + string.digits + "-_ .\\"
labels = st.text(alphabet=label_alphabet, min_size=1, max_size=20)
names = st.lists(labels, min_size=0, max_size=6).map(DnsName)

rcodes = st.sampled_from(
    [RCode.NOERROR, RCode.SERVFAIL, RCode.NXDOMAIN, RCode.NOTIMP, RCode.REFUSED]
)
qtypes = st.sampled_from([QType.A, QType.AAAA, QType.TXT, QType.NS, QType.ANY])
qclasses = st.sampled_from([QClass.IN, QClass.CH])

flags = st.builds(
    Flags,
    qr=st.booleans(),
    aa=st.booleans(),
    tc=st.booleans(),
    rd=st.booleans(),
    ra=st.booleans(),
    rcode=rcodes,
)

questions = st.builds(Question, qname=names, qtype=qtypes, qclass=qclasses)

txt_payloads = st.text(
    alphabet=string.ascii_letters + string.digits + " .-", min_size=0, max_size=80
)


@st.composite
def answer_records(draw):
    owner = draw(names)
    kind = draw(st.sampled_from(["a", "aaaa", "txt"]))
    if kind == "a":
        octets = draw(st.tuples(*[st.integers(0, 255)] * 4))
        return a_record(owner, ".".join(map(str, octets)))
    if kind == "aaaa":
        value = draw(st.integers(0, 2**128 - 1))
        import ipaddress

        return aaaa_record(owner, str(ipaddress.IPv6Address(value)))
    return txt_record(owner, draw(txt_payloads))


messages = st.builds(
    Message,
    msg_id=st.integers(0, 0xFFFF),
    flags=flags,
    questions=st.lists(questions, min_size=0, max_size=2).map(tuple),
    answers=st.lists(answer_records(), min_size=0, max_size=3).map(tuple),
)

# -- properties -----------------------------------------------------------------


@given(names)
def test_name_roundtrip(name):
    writer = WireWriter()
    name.encode(writer)
    assert DnsName.decode(WireReader(writer.getvalue())) == name


@given(names, names)
def test_compression_roundtrip_pairs(first, second):
    """Two names sharing a writer decode correctly despite pointers."""
    writer = WireWriter()
    first.encode(writer)
    offset = writer.offset
    second.encode(writer)
    reader = WireReader(writer.getvalue())
    assert DnsName.decode(reader) == first
    reader.seek(offset)
    assert DnsName.decode(reader) == second


@given(names)
def test_compression_never_changes_value(name):
    plain = WireWriter()
    name.encode(plain, compress=False)
    packed = WireWriter()
    name.encode(packed, compress=True)
    assert DnsName.decode(WireReader(plain.getvalue())) == DnsName.decode(
        WireReader(packed.getvalue())
    )


@given(names)
def test_text_roundtrip(name):
    assert DnsName.from_text(name.to_text()) == name


@given(st.integers(0, 0xFFFF))
def test_flags_word_roundtrip(word):
    # decode -> encode must preserve the bits we model.
    decoded = Flags.decode(word)
    redecoded = Flags.decode(decoded.encode())
    assert decoded == redecoded


@settings(max_examples=200)
@given(messages)
def test_message_roundtrip(message):
    assert Message.decode(message.encode()) == message


@settings(max_examples=200)
@given(messages)
def test_message_double_encode_stable(message):
    """encode(decode(encode(m))) == encode(m): no drift."""
    wire = message.encode()
    assert Message.decode(wire).encode() == wire


@settings(max_examples=300)
@given(st.binary(max_size=200))
def test_decoder_total_on_garbage(data):
    """Message.decode raises only WireError-family; decode_or_none never."""
    try:
        Message.decode(data)
    except WireError:
        pass
    assert decode_or_none(data) is None or decode_or_none(data) is not None


@settings(max_examples=200)
@given(messages, st.integers(0, 199))
def test_truncation_never_crashes(message, cut):
    wire = message.encode()
    truncated = wire[: min(cut, len(wire))]
    decode_or_none(truncated)  # must not raise


@given(names, names)
def test_subdomain_antisymmetry(a, b):
    if a.is_subdomain_of(b) and b.is_subdomain_of(a):
        assert a == b


@given(names)
def test_parent_chain_terminates(name):
    steps = 0
    current = name
    while not current.is_root:
        current = current.parent()
        steps += 1
        assert steps <= len(name)


# -- query templates ----------------------------------------------------------

#: Hostname-shaped labels in both cases, so spellings that differ only in
#: case (equal DnsNames, different wire bytes) come up often.
mixed_case_labels = st.text(
    alphabet="aAbBxXyY09-", min_size=1, max_size=10
)
mixed_case_names = st.lists(mixed_case_labels, min_size=1, max_size=4).map(DnsName)


@settings(max_examples=300)
@given(
    mixed_case_names,
    st.sampled_from(list(QType)),
    st.sampled_from(list(QClass)),
    st.booleans(),
    st.lists(st.integers(0, 0xFFFF), min_size=2, max_size=2),
    st.booleans(),
)
def test_templated_query_matches_dataclass_build(qname, qtype, qclass, rd, ids, as_text):
    """``make_query`` stamps a shared template with the id; the query it
    returns, its wire and the message decoded from that wire equal those
    of the same message built the dataclass way, for each spelling of a
    name (the same name in another case is another template)."""
    for spelling in (DnsName([label.swapcase() for label in qname.labels]), qname):
        for msg_id in ids:
            query = make_query(
                spelling.to_text() if as_text else spelling,
                qtype,
                qclass,
                msg_id=msg_id,
                recursion_desired=rd,
            )
            built = Message(
                msg_id=msg_id,
                flags=Flags(qr=False, rd=rd),
                questions=(Question(spelling, qtype, qclass),),
            )
            assert query == built
            assert repr(query) == repr(built)
            assert query.question.qname.labels == spelling.labels
            wire = query.encode()
            assert wire == built.encode()
            assert Message.decode(wire) == Message.decode(built.encode()) == built
            assert decode_or_none(wire).question.qname.labels == spelling.labels

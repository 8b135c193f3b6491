"""Ambiguity profiles: how DNS software reacts to crafted edge cases.

Real resolver and forwarder implementations diverge wildly on inputs the
RFCs under-specify — a query arriving with the TC bit already set, a
question section with two entries, an OPT record carrying an option code
nobody allocated, a STATUS-opcode "query", two retransmissions sharing a
message id but not a question. Those divergences are deterministic per
code base, which makes them a *fingerprint*: the ambiguity-probe engine
(:mod:`repro.fingerprint`) sends one probe per axis and reads the
interceptor's software off the reaction vector.

An :class:`AmbiguityProfile` is the per-personality policy for those
axes. The default profile reproduces the historical behaviour of every
node in the zoo bit for bit (all axes ``"pass"``), so software without a
curated profile is wire-identical to before this module existed.

Axis values
-----------

``case``
    ``"echo"`` — reply question echoes the query's spelling unchanged
    (the default; what almost every real server does). ``"lower"`` —
    the implementation canonicalises names, so the echoed question (and
    any relayed query) comes back lowercased: 0x20-encoding dies here.
``tc_query``
    Reaction to a *query* arriving with the TC flag set: ``"pass"``
    (ignore the flag and serve normally), an error rcode (``"formerr"``
    / ``"refused"`` / ``"notimp"`` / ``"servfail"``), or ``"drop"``.
``multi_question``
    Reaction to ``qdcount > 1``: ``"pass"`` (answer the first question,
    echoing the full question section), an error rcode, or ``"drop"``.
``edns_unknown``
    Reaction to an OPT record carrying an unallocated option code:
    ``"pass"`` (ignore it; replies carry no OPT), ``"strip"`` (drop the
    OPT before processing — forwarders relay the query without it),
    ``"echo"`` (answer normally but echo the unknown options back in an
    OPT record), an error rcode, or ``"drop"``.
``odd_opcode``
    Reaction to a non-QUERY opcode (STATUS/IQUERY): ``"pass"`` (serve
    as if it were a normal query), an error rcode, or ``"drop"``.
``overlap``
    Two in-flight queries sharing a client message id but differing in
    payload: ``"all"`` treats them independently (both answered);
    ``"first"`` dedups on the id — the second transmission is dropped.
    Only stateful forwarders can dedup; plain servers always answer
    both, whatever their profile says.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.dnswire import DnsName, Message, Opcode, RCode
from repro.dnswire.edns import Edns, EdnsOption, OPTION_CLIENT_SUBNET, get_edns, with_edns

#: Option codes the software zoo understands; anything else is "unknown"
#: for the ``edns_unknown`` axis.
KNOWN_OPTION_CODES = frozenset({OPTION_CLIENT_SUBNET})

_RCODE_VALUES = {
    "formerr": int(RCode.FORMERR),
    "servfail": int(RCode.SERVFAIL),
    "notimp": int(RCode.NOTIMP),
    "refused": int(RCode.REFUSED),
}

_CASE_VALUES = ("echo", "lower")
_TC_VALUES = ("pass", "formerr", "servfail", "notimp", "refused", "drop")
_MULTI_VALUES = _TC_VALUES
_EDNS_VALUES = ("pass", "strip", "echo", "formerr", "servfail", "notimp", "refused", "drop")
_OPCODE_VALUES = _TC_VALUES
_OVERLAP_VALUES = ("all", "first")


@dataclass(frozen=True)
class AmbiguityProfile:
    """One software personality's reactions to ambiguous queries."""

    case: str = "echo"
    tc_query: str = "pass"
    multi_question: str = "pass"
    edns_unknown: str = "pass"
    odd_opcode: str = "pass"
    overlap: str = "all"

    def __post_init__(self) -> None:
        for value, allowed, axis in (
            (self.case, _CASE_VALUES, "case"),
            (self.tc_query, _TC_VALUES, "tc_query"),
            (self.multi_question, _MULTI_VALUES, "multi_question"),
            (self.edns_unknown, _EDNS_VALUES, "edns_unknown"),
            (self.odd_opcode, _OPCODE_VALUES, "odd_opcode"),
            (self.overlap, _OVERLAP_VALUES, "overlap"),
        ):
            if value not in allowed:
                raise ValueError(f"{axis} must be one of {allowed}, got {value!r}")


#: The shared no-divergence profile. Kept as a singleton so hot paths can
#: skip every ambiguity check with one identity comparison — nodes built
#: without a curated profile stay byte-identical to the pre-profile code.
DEFAULT_AMBIGUITY = AmbiguityProfile()


class AmbiguityAction(enum.Enum):
    """Sentinel outcomes of :func:`ambiguity_precheck`."""

    DROP = "drop"


def _react(value: str, query: Message) -> Union[Message, AmbiguityAction]:
    if value == "drop":
        return AmbiguityAction.DROP
    return query.reply(rcode=_RCODE_VALUES[value])


def has_unknown_edns_option(query: Message) -> bool:
    """True when the query's OPT carries an unallocated option code."""
    edns = get_edns(query)
    if edns is None:
        return False
    return any(option.code not in KNOWN_OPTION_CODES for option in edns.options)


def unknown_edns_options(query: Message) -> tuple[EdnsOption, ...]:
    edns = get_edns(query)
    if edns is None:
        return ()
    return tuple(
        option for option in edns.options if option.code not in KNOWN_OPTION_CODES
    )


def ambiguity_precheck(
    profile: AmbiguityProfile, query: Message
) -> Union[Message, AmbiguityAction, None]:
    """Local divergent reaction to an ambiguous query, if the profile has
    one. Returns an error :class:`Message`, :data:`AmbiguityAction.DROP`,
    or None when normal processing should continue. Checks run in DPI
    order — opcode, TC flag, question count, EDNS — so a probe that
    triggers exactly one axis observes exactly that axis's reaction."""
    if profile.odd_opcode != "pass" and int(query.flags.opcode) != int(Opcode.QUERY):
        return _react(profile.odd_opcode, query)
    if profile.tc_query != "pass" and query.flags.tc:
        return _react(profile.tc_query, query)
    if profile.multi_question != "pass" and len(query.questions) > 1:
        return _react(profile.multi_question, query)
    if profile.edns_unknown in ("formerr", "servfail", "notimp", "refused", "drop"):
        if has_unknown_edns_option(query):
            return _react(profile.edns_unknown, query)
    return None


def _lower_name(qname: DnsName) -> DnsName:
    lowered = tuple(label.lower() for label in qname.labels)
    if lowered == qname.labels:
        return qname
    return DnsName(lowered)


def lowercase_questions(message: Message) -> Message:
    """Return ``message`` with every question qname lowercased (the
    ``case="lower"`` canonicalisation). No-op when already lowercase."""
    changed = False
    questions = []
    for question in message.questions:
        lowered = _lower_name(question.qname)
        if lowered is not question.qname:
            changed = True
            question = replace(question, qname=lowered)
        questions.append(question)
    if not changed:
        return message
    return replace(message, questions=tuple(questions))


def ambiguity_finalize(
    profile: AmbiguityProfile, query: Message, response: Optional[Message]
) -> Optional[Message]:
    """Post-process a locally computed response per the profile: echo
    unknown EDNS options when the personality does, lowercase the echoed
    question when it canonicalises. Identity for the default profile."""
    if response is None:
        return None
    if profile.edns_unknown == "echo":
        edns = get_edns(query)
        if edns is not None:
            unknown = unknown_edns_options(query)
            if unknown:
                response = with_edns(
                    response, payload_size=edns.payload_size, options=unknown
                )
    if profile.case == "lower":
        response = lowercase_questions(response)
    return response


def ambiguity_forward_transform(
    profile: AmbiguityProfile, query: Message
) -> tuple[Message, Optional[Edns]]:
    """Rewrite a query a forwarder is about to relay upstream.

    Returns ``(query, edns_echo)``: the possibly rewritten query, plus
    the EDNS state to re-attach to the relayed *response* when the
    profile echoes unknown options. ``case="lower"`` lowercases the
    question before it goes upstream (so the upstream's verbatim echo is
    already canonical); ``edns_unknown`` ``"strip"``/``"echo"`` removes
    the OPT from the relayed query, which neutralises whatever opinion
    the upstream would have had about the unknown option.
    """
    edns_echo: Optional[Edns] = None
    if profile.case == "lower":
        query = lowercase_questions(query)
    if profile.edns_unknown in ("strip", "echo"):
        edns = get_edns(query)
        if edns is not None:
            from repro.dnswire import QType

            additionals = tuple(
                record
                for record in query.additionals
                if int(record.rdtype) != int(QType.OPT)
            )
            query = replace(query, additionals=additionals)
            if profile.edns_unknown == "echo":
                unknown = tuple(
                    option
                    for option in edns.options
                    if option.code not in KNOWN_OPTION_CODES
                )
                if unknown:
                    edns_echo = Edns(
                        payload_size=edns.payload_size, options=unknown
                    )
    return query, edns_echo

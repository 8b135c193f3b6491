"""The four public anycast resolvers the paper studies (Table 1).

Each provider is modelled as a single anycast node owning its primary and
secondary service addresses in both families. Per-provider behaviour:

=============  =====================================  =======================
Provider       Location query                         version.bind
=============  =====================================  =======================
Cloudflare     ``id.server`` CHAOS TXT -> IATA code   REFUSED
Google         ``o-o.myaddr.l.google.com`` IN TXT ->  REFUSED
               the answering resolver's egress IP
Quad9          ``id.server`` CHAOS TXT ->             ``Q9-P-7.0`` (the only
               ``res###.<iata>.rrdns.pch.net``        provider that answers)
OpenDNS        ``debug.opendns.com`` IN TXT ->        SERVFAIL
               ``server m##.<iata>``
=============  =====================================  =======================

The *site* (IATA airport code) in each answer is chosen per query from an
anycast catchment function of the client address, so a fleet spread over
regions sees different — but all *standard-format* — answers, exactly the
property the paper's matchers rely on.
"""

from __future__ import annotations

import enum
import functools
import ipaddress
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dnswire import (
    Message,
    QClass,
    QType,
    RCode,
    txt_record,
)
from repro.dnswire.chaosnames import ID_SERVER
from repro.net import Packet
from repro.net.addr import IPAddress, IPNetwork, parse_ip

from .base import DnsServerNode
from .directory import NameDirectory, OPENDNS_DEBUG
from .software import ChaosBehavior, ServerSoftware

#: Anycast sites usable by catchment functions (IATA codes).
ANYCAST_SITES = (
    "iad", "sfo", "ord", "lax", "jfk",
    "lhr", "fra", "ams", "cdg", "waw",
    "nrt", "sin", "syd", "gru", "jnb",
)


def default_catchment(client: IPAddress) -> str:
    """Deterministic client -> site mapping (hash of the /16)."""
    packed = client.packed
    return ANYCAST_SITES[(packed[0] ^ packed[1]) % len(ANYCAST_SITES)]


class Provider(enum.Enum):
    CLOUDFLARE = "Cloudflare DNS"
    GOOGLE = "Google DNS"
    QUAD9 = "Quad9"
    OPENDNS = "OpenDNS"


@dataclass(frozen=True)
class ProviderSpec:
    """Static facts about one provider."""

    provider: Provider
    v4_addresses: tuple[str, ...]
    v6_addresses: tuple[str, ...]
    egress_v4_ranges: tuple[str, ...]
    egress_v6_ranges: tuple[str, ...]
    #: The egress ranges parsed once, by family; matchers test every
    #: Google answer against them.
    _egress_networks: dict[int, tuple[IPNetwork, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_egress_networks",
            {
                4: tuple(ipaddress.ip_network(r) for r in self.egress_v4_ranges),
                6: tuple(ipaddress.ip_network(r) for r in self.egress_v6_ranges),
            },
        )

    @property
    def all_addresses(self) -> tuple[str, ...]:
        return self.v4_addresses + self.v6_addresses

    def addresses_for_family(self, family: int) -> tuple[str, ...]:
        return self.v4_addresses if family == 4 else self.v6_addresses

    def egress_address(self, family: int) -> IPAddress:
        """The deterministic egress address used toward authoritatives."""
        return self._egress_networks[family][0].network_address + 35

    def owns_egress(self, address: "str | IPAddress") -> bool:
        address = parse_ip(address)
        networks = self._egress_networks[address.version]
        return any(address in network for network in networks)


PROVIDER_SPECS: dict[Provider, ProviderSpec] = {
    Provider.CLOUDFLARE: ProviderSpec(
        Provider.CLOUDFLARE,
        v4_addresses=("1.1.1.1", "1.0.0.1"),
        v6_addresses=("2606:4700:4700::1111", "2606:4700:4700::1001"),
        egress_v4_ranges=("162.158.0.0/15", "172.64.0.0/13"),
        egress_v6_ranges=("2400:cb00::/32",),
    ),
    Provider.GOOGLE: ProviderSpec(
        Provider.GOOGLE,
        v4_addresses=("8.8.8.8", "8.8.4.4"),
        v6_addresses=("2001:4860:4860::8888", "2001:4860:4860::8844"),
        egress_v4_ranges=("172.253.0.0/16", "74.125.0.0/16"),
        egress_v6_ranges=("2607:f8b0::/32",),
    ),
    Provider.QUAD9: ProviderSpec(
        Provider.QUAD9,
        v4_addresses=("9.9.9.9", "149.112.112.112"),
        v6_addresses=("2620:fe::fe", "2620:fe::9"),
        egress_v4_ranges=("74.63.16.0/21", "199.249.255.0/24"),
        egress_v6_ranges=("2620:171::/36",),
    ),
    Provider.OPENDNS: ProviderSpec(
        Provider.OPENDNS,
        v4_addresses=("208.67.222.222", "208.67.220.220"),
        v6_addresses=("2620:119:35::35", "2620:119:53::53"),
        egress_v4_ranges=("146.112.0.0/16",),
        egress_v6_ranges=("2a04:e4c0::/29",),
    ),
}


@functools.cache
def _provider_personality(provider: Provider) -> ServerSoftware:
    """CHAOS personality for non-location queries (one instance per
    provider).

    Only Quad9 answers ``version.bind`` (§3.2: "While only one resolver
    (Quad9) answers version.bind"); the others return error statuses.
    """
    if provider is Provider.QUAD9:
        version_bind = ChaosBehavior.answer("Q9-P-7.0")
    elif provider is Provider.GOOGLE:
        version_bind = ChaosBehavior.refuse(RCode.REFUSED)
    elif provider is Provider.CLOUDFLARE:
        version_bind = ChaosBehavior.refuse(RCode.REFUSED)
    else:
        version_bind = ChaosBehavior.refuse(RCode.SERVFAIL)
    return ServerSoftware(
        label=provider.value,
        family=provider.value,
        version_bind=version_bind,
        id_server=ChaosBehavior.refuse(),  # overridden for CF/Q9 below
        hostname_bind=ChaosBehavior.refuse(),
    )


#: DoT certificate names (RFC 7858 authentication domain names).
PROVIDER_TLS_IDENTITIES: dict[Provider, str] = {
    Provider.CLOUDFLARE: "one.one.one.one",
    Provider.GOOGLE: "dns.google",
    Provider.QUAD9: "dns.quad9.net",
    Provider.OPENDNS: "dns.opendns.com",
}


class PublicResolverNode(DnsServerNode):
    """An anycast public resolver with location-query support."""

    def __init__(
        self,
        provider: Provider,
        directory: NameDirectory,
        name: Optional[str] = None,
        catchment: Callable[[IPAddress], str] = default_catchment,
    ) -> None:
        spec = PROVIDER_SPECS[provider]
        super().__init__(
            name or f"public-{provider.name.lower()}",
            addresses=list(spec.all_addresses),
            software=_provider_personality(provider),
            tls_identity=PROVIDER_TLS_IDENTITIES[provider],
        )
        self.provider = provider
        self.spec = spec
        self.directory = directory
        self.catchment = catchment

    def response_signature(self, packet: Packet) -> tuple:
        """Anycast answers depend on the client address: the catchment
        picks the site and the last address byte picks the instance/
        machine number in Quad9 and OpenDNS location answers. Keying on
        ``catchment(src)`` (not just the site formula's inputs) keeps
        custom catchment functions safe too."""
        src = packet.src
        return (src.version, self.catchment(src), src.packed[-1])

    # -- location answers --------------------------------------------------

    def site_for(self, client: IPAddress) -> str:
        return self.catchment(client)

    def location_answer(self, query: Message, client: IPAddress) -> Optional[Message]:
        """Answer the provider's own location query, if this is one."""
        question = query.question
        assert question is not None
        site = self.site_for(client)
        if self.provider is Provider.CLOUDFLARE:
            if (
                question.qname == ID_SERVER
                and int(question.qclass) == int(QClass.CH)
                and int(question.qtype) == int(QType.TXT)
            ):
                record = txt_record(
                    question.qname, site.upper(), rdclass=int(QClass.CH), ttl=0
                )
                return query.reply(answers=(record,), authoritative=True)
        elif self.provider is Provider.QUAD9:
            if (
                question.qname == ID_SERVER
                and int(question.qclass) == int(QClass.CH)
                and int(question.qtype) == int(QType.TXT)
            ):
                instance = 100 + (client.packed[-1] % 60)
                record = txt_record(
                    question.qname,
                    f"res{instance}.{site}.rrdns.pch.net",
                    rdclass=int(QClass.CH),
                    ttl=0,
                )
                return query.reply(answers=(record,), authoritative=True)
        elif self.provider is Provider.OPENDNS:
            if (
                question.qname == OPENDNS_DEBUG
                and int(question.qclass) == int(QClass.IN)
                and int(question.qtype) == int(QType.TXT)
            ):
                machine = 80 + (client.packed[-1] % 19)
                record = txt_record(
                    question.qname, f"server m{machine}.{site}", ttl=0
                )
                return query.reply(answers=(record,), authoritative=True)
        # Google's location query is an ordinary IN TXT resolved through
        # the directory; the dynamic zone answers with our egress address.
        return None

    # -- dispatch ------------------------------------------------------------

    def respond(self, query: Message, packet: Packet) -> Optional[Message]:
        located = self.location_answer(query, packet.src)
        if located is not None:
            return located
        return super().respond(query, packet)

    def respond_standard(self, query: Message, packet: Packet) -> Optional[Message]:
        question = query.question
        assert question is not None
        if int(question.qclass) != int(QClass.IN):
            return query.reply(rcode=RCode.NOTIMP)
        egress = self.spec.egress_address(packet.src.version)
        result = self.directory.resolve(
            question.qname, question.qtype, question.qclass, str(egress)
        )
        answers = tuple(result.records)
        answers += self._myaddr_ecs_extra(query, question)
        return query.reply(rcode=result.rcode, answers=answers)

    def _myaddr_ecs_extra(self, query: Message, question) -> tuple:
        """Echo an EDNS Client-Subnet option on ``o-o.myaddr`` answers.

        Google's debugging name returns a second TXT string,
        ``edns0-client-subnet <prefix>``, when the query carried ECS —
        real-world noise the location-query matcher must tolerate.
        """
        from repro.dnswire import txt_record
        from repro.dnswire.edns import get_edns
        from .directory import GOOGLE_MYADDR

        if self.provider is not Provider.GOOGLE or question.qname != GOOGLE_MYADDR:
            return ()
        edns = get_edns(query)
        if edns is None:
            return ()
        subnet = edns.client_subnet()
        if subnet is None:
            return ()
        return (
            txt_record(
                question.qname, f"edns0-client-subnet {subnet.to_text()}", ttl=60
            ),
        )

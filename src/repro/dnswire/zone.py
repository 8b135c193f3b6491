"""Minimal authoritative zone storage.

A :class:`Zone` maps (owner name, class, type) to record sets and supports
exact-match lookup, CNAME chasing (one level — enough for our zones),
wildcard owners (``*.example.com``) and *dynamic* owners whose RDATA is
computed per-query. Dynamic owners are how we model ``whoami.akamai.com``,
which answers with the egress address of whichever resolver asked —
the oracle the paper uses for its transparency check (§4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .enums import QClass, QType, RCode
from .name import DnsName, name
from .rr import ResourceRecord

#: A dynamic answer function: (qname, querier source address) -> records.
DynamicAnswer = Callable[[DnsName, str], "list[ResourceRecord]"]


@dataclass
class LookupResult:
    """Outcome of a zone lookup."""

    rcode: int = RCode.NOERROR
    records: list[ResourceRecord] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.rcode == RCode.NOERROR and bool(self.records)


class Zone:
    """An authoritative zone rooted at ``origin``."""

    def __init__(self, origin: "str | DnsName") -> None:
        self.origin = name(origin)
        self._records: dict[tuple[DnsName, int, int], list[ResourceRecord]] = {}
        self._dynamic: dict[tuple[DnsName, int, int], DynamicAnswer] = {}

    # -- population ----------------------------------------------------

    def add(self, record: ResourceRecord) -> None:
        """Add a static record. The owner must be inside the zone."""
        if not record.name.is_subdomain_of(self.origin):
            raise ValueError(
                f"{record.name.to_text()} is outside zone {self.origin.to_text()}"
            )
        key = (record.name, int(record.rdclass), int(record.rdtype))
        self._records.setdefault(key, []).append(record)

    def add_dynamic(
        self,
        owner: "str | DnsName",
        rdtype: int,
        answer: DynamicAnswer,
        rdclass: int = QClass.IN,
    ) -> None:
        """Register a per-query computed answer for (owner, class, type)."""
        owner = name(owner)
        if not owner.is_subdomain_of(self.origin):
            raise ValueError(
                f"{owner.to_text()} is outside zone {self.origin.to_text()}"
            )
        self._dynamic[(owner, int(rdclass), int(rdtype))] = answer

    # -- lookup -----------------------------------------------------------

    def covers(self, qname: "str | DnsName") -> bool:
        return name(qname).is_subdomain_of(self.origin)

    def lookup(
        self,
        qname: "str | DnsName",
        qtype: int,
        qclass: int = QClass.IN,
        source: str = "",
    ) -> LookupResult:
        """Resolve ``qname``/``qtype`` within this zone.

        ``source`` is the querying client's address, forwarded to dynamic
        answers (the whoami mechanism). Returns NXDOMAIN when the name has
        no records of any type, and an empty NOERROR when the name exists
        but not with the requested type (NODATA).
        """
        qname = name(qname)
        if not self.covers(qname):
            return LookupResult(rcode=RCode.REFUSED)

        dynamic = self._dynamic.get((qname, int(qclass), int(qtype)))
        if dynamic is not None:
            return LookupResult(records=list(dynamic(qname, source)))

        key = (qname, int(qclass), int(qtype))
        records = self._records.get(key)
        if records:
            return LookupResult(records=list(records))

        # CNAME chase (single level; our zones never chain CNAMEs).
        cname_key = (qname, int(qclass), int(QType.CNAME))
        cnames = self._records.get(cname_key)
        if cnames and int(qtype) != int(QType.CNAME):
            chased = list(cnames)
            target = cnames[0].rdata.target
            follow = self.lookup(target, qtype, qclass, source) if self.covers(target) else None
            if follow is not None and follow.found:
                chased.extend(follow.records)
            return LookupResult(records=chased)

        # Wildcard match: *.parent owns qname if no closer match exists.
        wildcard = self._wildcard_match(qname, qtype, qclass)
        if wildcard is not None:
            synthesized = [
                ResourceRecord(qname, rr.rdtype, rr.rdclass, rr.ttl, rr.rdata)
                for rr in wildcard
            ]
            return LookupResult(records=synthesized)

        if self._name_exists(qname, qclass):
            return LookupResult()  # NODATA
        return LookupResult(rcode=RCode.NXDOMAIN)

    def _name_exists(self, qname: DnsName, qclass: int) -> bool:
        for owner, rdclass, _rdtype in list(self._records) + list(self._dynamic):
            if rdclass != int(qclass):
                continue
            if owner == qname or owner.is_subdomain_of(qname):
                return True
        return False

    def _wildcard_match(
        self, qname: DnsName, qtype: int, qclass: int
    ) -> Optional[list[ResourceRecord]]:
        ancestor = qname.parent()
        while ancestor.is_subdomain_of(self.origin):
            star = ancestor.prepend("*")
            records = self._records.get((star, int(qclass), int(qtype)))
            if records:
                return records
            if ancestor.is_root or ancestor == self.origin:
                break
            ancestor = ancestor.parent()
        return None

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values()) + len(self._dynamic)

    def __repr__(self) -> str:
        return f"Zone({self.origin.to_text()!r}, {len(self)} records)"

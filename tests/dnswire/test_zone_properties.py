"""Property-based tests on zone lookup semantics."""

import string

from hypothesis import given, settings, strategies as st

from repro.dnswire import QType, RCode, Zone, a_record
from repro.dnswire.name import DnsName

labels = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
hostnames = st.lists(labels, min_size=1, max_size=3)


def in_zone_name(relative_labels) -> DnsName:
    return DnsName(tuple(relative_labels) + ("zone", "test"))


@settings(max_examples=100)
@given(st.lists(hostnames, min_size=1, max_size=10, unique_by=tuple))
def test_every_added_record_is_findable(owners):
    zone = Zone("zone.test.")
    for index, owner_labels in enumerate(owners):
        zone.add(a_record(in_zone_name(owner_labels), f"10.0.0.{index % 250 + 1}"))
    for owner_labels in owners:
        result = zone.lookup(in_zone_name(owner_labels), QType.A)
        assert result.found


@settings(max_examples=100)
@given(hostnames, hostnames)
def test_lookup_never_invents_records(present, absent):
    if tuple(present) == tuple(absent):
        return
    zone = Zone("zone.test.")
    zone.add(a_record(in_zone_name(present), "10.0.0.1"))
    result = zone.lookup(in_zone_name(absent), QType.A)
    if result.found:
        # Only legitimate if `absent` equals `present` case-insensitively
        # (it cannot here) — so any hit must be empty.
        raise AssertionError(f"invented records for {absent}")


@settings(max_examples=100)
@given(hostnames)
def test_nxdomain_vs_nodata_consistency(owner_labels):
    """A name with an A record gives NODATA (not NXDOMAIN) for AAAA."""
    zone = Zone("zone.test.")
    zone.add(a_record(in_zone_name(owner_labels), "10.0.0.1"))
    result = zone.lookup(in_zone_name(owner_labels), QType.AAAA)
    assert result.rcode == RCode.NOERROR
    assert result.records == []


@settings(max_examples=100)
@given(hostnames, st.integers(1, 250))
def test_wildcard_covers_everything_at_level(owner_labels, octet):
    zone = Zone("zone.test.")
    zone.add(a_record("*.w.zone.test.", f"10.0.0.{octet}"))
    qname = DnsName(tuple(owner_labels[:1]) + ("w", "zone", "test"))
    result = zone.lookup(qname, QType.A)
    assert result.found
    assert result.records[0].name == qname


@settings(max_examples=60)
@given(st.lists(hostnames, min_size=1, max_size=6, unique_by=tuple))
def test_lookup_is_pure(owners):
    """Repeated lookups never change results (no hidden mutation)."""
    zone = Zone("zone.test.")
    for index, owner_labels in enumerate(owners):
        zone.add(a_record(in_zone_name(owner_labels), f"10.0.0.{index % 250 + 1}"))
    target = in_zone_name(owners[0])
    first = zone.lookup(target, QType.A)
    second = zone.lookup(target, QType.A)
    assert first.records == second.records
    assert len(zone) == len(owners)

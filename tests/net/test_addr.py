"""Bogon space and address parsing."""

import ipaddress

import pytest

from repro.net.addr import (
    BOGON_V4_PREFIXES,
    BOGON_V6_PREFIXES,
    DEFAULT_BOGON_V4,
    DEFAULT_BOGON_V6,
    is_bogon,
    parse_ip,
)


class TestBogons:
    @pytest.mark.parametrize(
        "address",
        [
            "10.1.2.3",
            "192.168.1.1",
            "172.16.0.1",
            "100.64.0.1",
            "192.0.2.53",
            "198.51.100.1",
            "203.0.113.7",
            "198.18.0.1",
            "169.254.1.1",
            "127.0.0.1",
            "240.0.0.1",
            "0.1.2.3",
        ],
    )
    def test_v4_bogons(self, address):
        assert is_bogon(address)

    @pytest.mark.parametrize(
        "address",
        ["8.8.8.8", "1.1.1.1", "24.0.4.1", "193.0.6.139", "104.16.0.1"],
    )
    def test_v4_routable(self, address):
        assert not is_bogon(address)

    @pytest.mark.parametrize(
        "address",
        ["2001:db8::53", "fc00::1", "fe80::1", "::1", "100::1"],
    )
    def test_v6_bogons(self, address):
        assert is_bogon(address)

    @pytest.mark.parametrize(
        "address", ["2001:4860:4860::8888", "2606:4700:4700::1111", "2a00::1"]
    )
    def test_v6_routable(self, address):
        assert not is_bogon(address)

    def test_default_probe_addresses_are_bogons(self):
        """The methodology's chosen probes must actually be unroutable."""
        assert is_bogon(DEFAULT_BOGON_V4)
        assert is_bogon(DEFAULT_BOGON_V6)

    def test_prefix_lists_parse(self):
        assert all(p.version == 4 for p in BOGON_V4_PREFIXES)
        assert all(p.version == 6 for p in BOGON_V6_PREFIXES)


class TestParse:
    def test_parse_string(self):
        assert parse_ip("1.2.3.4") == ipaddress.IPv4Address("1.2.3.4")

    def test_parse_identity(self):
        addr = ipaddress.IPv6Address("2001:db8::1")
        assert parse_ip(addr) is addr

"""Firmware profiles and the Table-5 software mix."""

from repro.cpe.firmware import (
    TABLE5_SOFTWARE_MIX,
    dnat_interceptor,
    honest_forwarder,
    honest_router,
    open_wan_forwarder,
    pihole_profile,
    xb6_profile,
)


class TestProfiles:
    def test_honest_router_has_no_dns(self):
        profile = honest_router()
        assert profile.software is None
        assert not profile.is_interceptor
        assert not profile.wan_port53_open

    def test_honest_forwarder_serves_lan_only(self):
        profile = honest_forwarder()
        assert profile.software is not None
        assert not profile.is_interceptor
        assert not profile.wan_port53_open

    def test_open_wan_forwarder(self):
        profile = open_wan_forwarder()
        assert profile.wan_port53_open
        assert not profile.is_interceptor

    def test_dnat_interceptor(self):
        profile = dnat_interceptor()
        assert profile.is_interceptor
        assert profile.intercepts_v4 and not profile.intercepts_v6

    def test_dnat_v6(self):
        profile = dnat_interceptor(v6=True)
        assert profile.intercepts_v6

    def test_xb6_buggy_flag(self):
        assert xb6_profile(buggy=True).is_interceptor
        assert not xb6_profile(buggy=False).is_interceptor
        assert xb6_profile().model == "XB6"

    def test_pihole(self):
        profile = pihole_profile()
        assert profile.is_interceptor
        assert profile.software.family == "dnsmasq-pi-hole-*"


class TestTable5Mix:
    def test_total_is_49(self):
        """The paper's Table 5 covers exactly 49 CPE interceptors."""
        assert sum(count for _, count in TABLE5_SOFTWARE_MIX) == 49

    def test_family_counts(self):
        from collections import Counter

        counter = Counter()
        for software, count in TABLE5_SOFTWARE_MIX:
            counter[software.family] += count
        assert counter["dnsmasq-*"] == 23
        assert counter["dnsmasq-pi-hole-*"] == 8
        assert counter["unbound*"] == 6
        assert counter["*-RedHat"] == 2
        # ten one-off families
        singles = [f for f, c in counter.items() if c == 1]
        assert len(singles) == 10

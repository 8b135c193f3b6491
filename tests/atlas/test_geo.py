"""The organization catalog: validity and the documented biases."""

import ipaddress

import pytest

from repro.atlas.geo import (
    ORGANIZATIONS,
    organization_by_name,
)


class TestCatalogValidity:
    def test_prefixes_parse(self):
        for org in ORGANIZATIONS:
            v4 = ipaddress.ip_network(org.v4_prefix)
            v6 = ipaddress.ip_network(org.v6_prefix)
            assert v4.version == 4 and v6.version == 6

    def test_names_unique(self):
        names = [org.name for org in ORGANIZATIONS]
        assert len(names) == len(set(names))

    def test_asns_unique(self):
        asns = [org.asn for org in ORGANIZATIONS]
        assert len(asns) == len(set(asns))

    def test_v4_prefixes_disjoint(self):
        nets = [ipaddress.ip_network(org.v4_prefix) for org in ORGANIZATIONS]
        for i, a in enumerate(nets):
            for b in nets[i + 1 :]:
                assert not a.overlaps(b), (a, b)

    def test_prefixes_not_bogon(self):
        from repro.net.addr import is_bogon

        for org in ORGANIZATIONS:
            assert not is_bogon(ipaddress.ip_network(org.v4_prefix).network_address + 1024)

    def test_weights_positive(self):
        for org in ORGANIZATIONS:
            assert org.probe_weight > 0
            assert org.intercept_weight >= 0

    def test_prefix_capacity_for_fleet(self):
        """Each org prefix must hold the per-probe addressing scheme."""
        for org in ORGANIZATIONS:
            v4 = ipaddress.ip_network(org.v4_prefix)
            assert v4.num_addresses > 1024, org.name


class TestBiases:
    def test_comcast_is_top_interceptor(self):
        """Figure 3's headline: Comcast has the most intercepted probes."""
        comcast = organization_by_name("Comcast")
        assert comcast.intercept_weight == max(
            org.intercept_weight for org in ORGANIZATIONS
        )

    def test_europe_na_dominate_probe_weight(self):
        """The RIPE-Atlas geographic bias the paper cautions about (§4)."""
        eur_na = {
            "US", "CA", "DE", "FR", "GB", "NL", "SE", "NO", "CH", "BE",
            "ES", "IT", "PL", "CZ", "HU", "AT",
        }
        weight_eur_na = sum(
            org.probe_weight for org in ORGANIZATIONS if org.country in eur_na
        )
        total = sum(org.probe_weight for org in ORGANIZATIONS)
        assert weight_eur_na / total > 0.75

    def test_xb6_isps_flagged(self):
        """The ISPs the paper names as XB6/RDK-B deployers (§5)."""
        for name in ("Comcast", "Shaw", "Vodafone DE"):
            assert organization_by_name(name).deploys_xb6

    def test_lookup_helpers(self):
        with pytest.raises(KeyError):
            organization_by_name("Nonexistent ISP")


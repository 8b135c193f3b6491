"""DNS *redirection* (NXDOMAIN wildcarding) vs. *interception* (§2).

The paper is careful to separate the two manipulations. These tests pin
the boundary: a wildcarding resolver forges answers for nonexistent
names (redirection, detectable by comparing responses), but the
location-query technique is about *interception* and is neither fooled
nor triggered by wildcarding alone.
"""

from repro.dnswire import QType, RCode, make_query
from repro.resolvers.directory import build_default_directory
from repro.resolvers.recursive import RecursiveResolverNode
from repro.resolvers.software import unbound

from .harness import wire_up

AD_SERVER = "203.0.113.250"


def make_resolver(wildcard=True):
    return RecursiveResolverNode(
        "isp-resolver",
        addresses=["24.0.0.53"],
        directory=build_default_directory(),
        software=unbound(),
        nxdomain_wildcard_to=AD_SERVER if wildcard else None,
    )


class TestNxdomainWildcarding:
    def test_nonexistent_name_forged(self):
        client = wire_up(make_resolver())
        result = client.exchange(
            "24.0.0.53", make_query("no-such-site.example.", QType.A, msg_id=1)
        )
        assert result.response.rcode == RCode.NOERROR
        assert result.response.a_addresses() == [AD_SERVER]

    def test_existing_names_untouched(self):
        client = wire_up(make_resolver())
        result = client.exchange(
            "24.0.0.53", make_query("www.example.com.", QType.A, msg_id=2)
        )
        assert result.response.a_addresses() == ["93.184.216.34"]

    def test_aaaa_not_wildcarded_by_v4_target(self):
        client = wire_up(make_resolver())
        result = client.exchange(
            "24.0.0.53", make_query("no-such-site.example.", QType.AAAA, msg_id=3)
        )
        assert result.response.rcode == RCode.NXDOMAIN

    def test_honest_resolver_returns_nxdomain(self):
        client = wire_up(make_resolver(wildcard=False))
        result = client.exchange(
            "24.0.0.53", make_query("no-such-site.example.", QType.A, msg_id=4)
        )
        assert result.response.rcode == RCode.NXDOMAIN


class TestBoundaryWithInterception:
    def test_wildcarding_alone_is_not_interception(self):
        """A probe whose ISP resolver wildcards NXDOMAIN but whose path
        is clean must NOT be flagged: the user *chose* that resolver (or
        at least reached the one they addressed). The technique measures
        interception, not resolver behaviour."""
        from repro import diagnose_household
        from repro.atlas.geo import organization_by_name
        from repro.core.classifier import LocatorVerdict
        from tests.conftest import make_spec

        org = organization_by_name("Comcast")
        # A clean household: location queries go to the real public
        # resolvers, which do not wildcard.
        result = diagnose_household(make_spec(org, probe_id=1500))
        assert result.verdict is LocatorVerdict.NOT_INTERCEPTED

    def test_location_queries_immune_to_wildcarding(self):
        """Even if an intercepted probe's alternate resolver wildcards,
        the location-query verdict rests on format mismatch, which
        wildcarding only makes more obvious (a forged A answer to a TXT
        query never matches)."""
        client = wire_up(make_resolver())
        result = client.exchange(
            "24.0.0.53",
            make_query("o-o.myaddr.l.google.com.", QType.TXT, msg_id=5),
        )
        # The resolver answers with its own egress (interception-style
        # leak), not a Google address: non-standard either way.
        from repro.core.matchers import match_google

        assert not match_google(result.response).standard

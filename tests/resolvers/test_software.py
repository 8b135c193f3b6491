"""Software personalities and their version.bind strings."""

from repro.dnswire import RCode
from repro.resolvers.software import (
    ChaosAction,
    ChaosBehavior,
    QUIRKY_STRINGS,
    bind_debian,
    bind_redhat,
    bind_vanilla,
    dnsmasq,
    microsoft,
    mute,
    pi_hole,
    powerdns,
    quirky,
    silent_forwarder,
    unbound,
    unbound_hidden,
    windows_ns,
    xdns,
)


class TestBehaviors:
    def test_answer(self):
        b = ChaosBehavior.answer("hello")
        assert b.action is ChaosAction.ANSWER and b.text == "hello"

    def test_refuse_default(self):
        assert ChaosBehavior.refuse().rcode == RCode.REFUSED

    def test_notimp_nxdomain(self):
        assert ChaosBehavior.notimp().rcode == RCode.NOTIMP
        assert ChaosBehavior.nxdomain().rcode == RCode.NXDOMAIN

    def test_forward_ignore(self):
        assert ChaosBehavior.forward().action is ChaosAction.FORWARD
        assert ChaosBehavior.ignore().action is ChaosAction.IGNORE


class TestPersonalities:
    def test_dnsmasq_string(self):
        sw = dnsmasq("2.80")
        assert sw.label == "dnsmasq-2.80"
        assert sw.family == "dnsmasq-*"
        assert sw.version_bind.text == "dnsmasq-2.80"

    def test_pi_hole_string(self):
        sw = pi_hole("2.81")
        assert sw.label == "dnsmasq-pi-hole-2.81"
        assert sw.family == "dnsmasq-pi-hole-*"

    def test_unbound_default_hides_identity(self):
        sw = unbound("1.9.0")
        assert sw.version_bind.text == "unbound 1.9.0"
        assert sw.id_server.action is ChaosAction.RCODE

    def test_unbound_identity_configured(self):
        sw = unbound("1.9.0", identity="routing.v2.pw")
        assert sw.id_server.text == "routing.v2.pw"
        assert sw.hostname_bind.text == "routing.v2.pw"

    def test_unbound_hidden(self):
        sw = unbound_hidden()
        assert sw.version_bind.action is ChaosAction.RCODE
        assert sw.version_bind.rcode == RCode.NOTIMP
        assert sw.family == "unbound*"

    def test_bind_families(self):
        assert bind_redhat().family == "*-RedHat"
        assert bind_debian().family == "*-Debian"
        assert bind_vanilla("9.16.15").label == "9.16.15"

    def test_powerdns(self):
        assert powerdns().label.startswith("PowerDNS Recursor")

    def test_windows_and_microsoft(self):
        assert windows_ns().label == "Windows NS"
        assert microsoft().label == "Microsoft"

    def test_quirky_strings(self):
        for text in QUIRKY_STRINGS:
            assert quirky(text).version_bind.text == text

    def test_xdns_is_dnsmasq_on_the_wire(self):
        """RDK-B's data plane is dnsmasq: XB6 units must land in the
        dnsmasq-* row of Table 5."""
        sw = xdns()
        assert sw.family == "dnsmasq-*"
        assert sw.version_bind.text.startswith("dnsmasq-")

    def test_silent_forwarder_forwards_everything(self):
        sw = silent_forwarder()
        assert sw.version_bind.action is ChaosAction.FORWARD
        assert sw.id_server.action is ChaosAction.FORWARD

    def test_mute_ignores(self):
        assert mute().version_bind.action is ChaosAction.IGNORE

    def test_table5_string_shapes(self):
        """The catalog can produce every Table-5 family."""
        families = {
            dnsmasq().family,
            pi_hole().family,
            unbound().family,
            bind_redhat().family,
            powerdns().family,
            bind_vanilla().family,
            bind_debian().family,
            windows_ns().family,
            microsoft().family,
        } | {quirky(t).family for t in QUIRKY_STRINGS}
        assert "dnsmasq-*" in families
        assert "dnsmasq-pi-hole-*" in families
        assert "unbound*" in families
        assert "*-RedHat" in families
        assert len(families) >= 13

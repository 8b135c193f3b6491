"""§5 case study — the XB6 DNAT interception mechanism, end to end.

Benchmarks one full hijacked resolution through an XB6 and checks every
step of the mechanism in the packet trace: the PREROUTING DNAT rewrite,
the XDNS forwarder's relay to the ISP resolver, and the spoofed-source
reply. Also verifies the §5 observation that the same RDK-B image with
the redirection dormant (buggy=False) leaves traffic untouched.
"""

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.probe import ProbeSpec
from repro.atlas.scenario import ScenarioSpec, build_scenario
from repro.cpe.firmware import xb6_profile
from repro.dnswire import QType, make_query


def make_household(buggy: bool, trace: bool = False):
    spec = ProbeSpec(
        probe_id=5150 if buggy else 5151,
        organization=organization_by_name("Comcast"),
        firmware=xb6_profile(buggy=buggy),
    )
    return build_scenario(ScenarioSpec(probe=spec, trace=trace))


def test_xb6_hijack_mechanism(benchmark):
    scenario = make_household(buggy=True, trace=True)
    client = MeasurementClient(scenario.network, scenario.host)
    counter = [0]

    def hijacked_resolution():
        counter[0] += 1
        query = make_query("www.example.com.", QType.A, msg_id=counter[0] & 0xFFFF)
        return client.exchange("8.8.8.8", query)

    result = benchmark(hijacked_resolution)

    # The client saw a correct, ordinary-looking answer.
    assert result.response is not None
    assert result.response.a_addresses() == ["93.184.216.34"]

    events = scenario.network.recorder.events
    dnat = [e for e in events if e.action == "intercept" and "DNAT" in e.detail]
    assert dnat, "expected a PREROUTING DNAT rewrite in the trace"
    assert any("8.8.8.8" in e.detail for e in dnat)

    relayed = [e for e in events if "forwarder -> upstream" in e.detail]
    assert relayed, "expected the XDNS forwarder to relay upstream"

    spoofed = [e for e in events if "spoofed source" in e.detail]
    assert spoofed, "expected the reply source to be spoofed to 8.8.8.8"
    assert any(str(e.packet.src) == "8.8.8.8" for e in spoofed)

    print()
    print("Trace of one hijacked resolution (first 16 events):")
    for event in events[:16]:
        print(" ", event.format())


def test_xb6_with_redirection_dormant(benchmark):
    scenario = make_household(buggy=False)
    client = MeasurementClient(scenario.network, scenario.host)
    counter = [0]

    def clean_resolution():
        counter[0] += 1
        query = make_query("www.example.com.", QType.A, msg_id=counter[0] & 0xFFFF)
        return client.exchange("8.8.8.8", query)

    result = benchmark(clean_resolution)
    assert result.response is not None
    # Google itself answered: one more resolution, traced, shows the CPE
    # only source-NATing the query, never DNATing it to the forwarder.
    scenario.network.recorder.enabled = True
    assert clean_resolution().response is not None
    cpe = [e for e in scenario.network.recorder.events if e.node == "cpe"]
    assert any(e.action == "rewrite" and e.detail.startswith("SNAT") for e in cpe)
    assert not [e for e in cpe if e.action == "intercept"]

"""A fleet holds one instance per distinct value.

The generator builds each distinct firmware profile, ISP behaviour,
policy tuple and response tuple once, and a campaign's upgrades and
flips reuse instances too, so probe dedup and fingerprinting cost per
distinct value, not per probe. Scenarios run the resolver software
personalities (and their CHAOS behaviours) the same way: one instance
per value, however many servers and forwarders run it. Going back to
building one per probe or per server fails here: the number of distinct
``id()``\\ s of a field must equal the number of its distinct values.
"""

import json
from pathlib import Path

import pytest

from repro.atlas.population import generate_population
from repro.atlas.scenario import build_scenario
from repro.campaigns import LongitudinalCampaign, bundle_from_dict
from repro.resolvers import DnsServerNode, build_default_directory
from repro.resolvers.software import dnsmasq, unbound, xdns

ROLLOUT = Path(__file__).parents[2] / "scenarios" / "firmware-rollout.json"

FIELDS = ("firmware", "isp", "external_policies", "responds_v4", "responds_v6")


def _assert_one_instance_per_value(values, label):
    assert len({id(value) for value in values}) == len(set(values)), label


def _assert_shared(specs):
    for name in FIELDS:
        _assert_one_instance_per_value([getattr(spec, name) for spec in specs], name)


def test_pilot_fleet_shares_every_value():
    fleet = generate_population(9800, 2021)
    _assert_shared(fleet)
    # The pilot fleet is mostly the same few values repeated.
    assert len({spec.firmware for spec in fleet}) < 40
    assert len({spec.isp for spec in fleet}) < 150


def _rollout(**schedule) -> dict:
    data = json.loads(ROLLOUT.read_text(encoding="utf-8"))
    data["schedule"].update(schedule)
    return data


@pytest.mark.parametrize(
    "schedule",
    [
        {},
        {
            "policy_flips": [
                {"epoch": 1, "action": "stop-intercepting", "fraction": 0.5},
                {"epoch": 3, "action": "start-intercepting", "fraction": 0.5},
            ]
        },
    ],
    ids=["firmware-rollout", "with-policy-flips"],
)
def test_campaign_epochs_share_every_value(schedule):
    bundle = bundle_from_dict(_rollout(**schedule))
    campaign = LongitudinalCampaign(bundle)
    fleets = [campaign.epoch_fleet(epoch) for epoch in range(bundle.schedule.epochs)]
    for fleet in fleets:
        _assert_shared(fleet)
    # Base probes, joiners and upgraded probes share across epochs too.
    _assert_shared([spec for fleet in fleets for spec in fleet])


def test_scenarios_share_every_software_value():
    """Every server and forwarder of every scenario runs one instance per
    software value, and those share their CHAOS behaviours."""
    fleet = generate_population(300, 2021)
    directory = build_default_directory()
    softwares = [spec.firmware.software for spec in fleet if spec.firmware.software]
    for spec in fleet[:60]:
        scenario = build_scenario(spec, directory)
        softwares += [
            node.software
            for node in scenario.network.nodes.values()
            if isinstance(node, DnsServerNode)
        ]
    _assert_one_instance_per_value(softwares, "software")
    behaviors = [
        behavior
        for software in softwares
        for behavior in (software.version_bind, software.id_server, software.hostname_bind)
    ]
    _assert_one_instance_per_value(behaviors, "chaos behaviour")
    # Equal values from different factories or spellings are one instance.
    assert xdns("2.85") is dnsmasq("2.85")
    assert unbound() is unbound("1.9.0") is unbound(version="1.9.0")

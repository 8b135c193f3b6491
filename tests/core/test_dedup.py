"""Probe dedup is sound: a record never reads its probe's organization.

The fast engine measures one probe per dedup key and hands every other
probe with that key a copy of the record with its own identity fields
(:func:`repro.core.parallel._as_sibling`). The key leaves out
``probe_id`` and ``organization``, so this suite re-homes households
into organizations with different prefixes, ASNs and countries, measures
every copy on the reference engine (no dedup, no scenario reuse) and
checks that the first copy's record, re-labelled, *is* each other copy's
record. Beside the dedup key, it pins what the scenario-reuse key
(:func:`repro.atlas.scenario.scenario_signature`) covers.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.export import record_to_dict
from repro.atlas.geo import organization_by_name
from repro.atlas.probe import IspBehavior, ProbeSpec
from repro.atlas.scenario import ScenarioSpec, scenario_signature
from repro.core.parallel import _as_sibling, _dedup_key, _key_number, measure_fleet
from repro.core.study import StudyConfig
from repro.cpe.firmware import dnat_interceptor, xb6_profile
from repro.interceptors.encrypted import downgrade_all
from repro.interceptors.policy import intercept_all
from repro.net.impairment import impairment_profile
from repro.resolvers import Provider

from tests.conftest import make_spec

#: Different prefixes, ASNs and countries; Comcast deploys XB6 gateways.
ORGANIZATIONS = tuple(
    organization_by_name(name) for name in ("Comcast", "Deutsche Telekom", "Telstra")
)


def _households(org):
    """One spec per household shape the locator and extra passes tell
    apart, homed in ``org``."""
    dual = intercept_all(families={4, 6})
    return {
        "honest": make_spec(org),
        "cpe-xb6": make_spec(org, firmware=xb6_profile()),
        "cpe-dnat-dual-stack": make_spec(
            org, firmware=dnat_interceptor(v6=True), has_ipv6=True
        ),
        "isp-middlebox": make_spec(org, middlebox_policies=[intercept_all()]),
        "isp-resolver-outside-as": make_spec(
            org, middlebox_policies=[intercept_all()], resolver_outside_as=True
        ),
        "isp-dual-stack": make_spec(org, middlebox_policies=[dual], has_ipv6=True),
        # Port 853 redirected to the in-AS resolver, which presents its
        # per-AS TLS identity to the cert fetches and encrypted retries.
        "isp-intercept-dot": make_spec(
            org,
            middlebox_policies=[
                dataclasses.replace(intercept_all(), intercept_dot=True)
            ],
        ),
        "isp-encrypted-only": make_spec(
            org,
            middlebox_policies=[
                dataclasses.replace(
                    intercept_all(), plaintext=False, encrypted=downgrade_all()
                )
            ],
        ),
        "isp-nxdomain-wildcard": dataclasses.replace(
            make_spec(org),
            isp=IspBehavior(
                middlebox_policies=(intercept_all(),),
                nxdomain_wildcard_to="203.0.113.80",
            ),
        ),
        "external": make_spec(org, external_policies=[intercept_all()]),
        "partial-responses": dataclasses.replace(
            make_spec(org, external_policies=[intercept_all()]),
            responds_v4=(True, False, True, False),
        ),
        "offline": dataclasses.replace(make_spec(org), online=False),
    }


SHAPES = tuple(_households(ORGANIZATIONS[0]))

#: A household re-homed into every organization, each copy its own probe.
FLEET = [
    dataclasses.replace(spec, probe_id=8000 + 100 * home + row)
    for home, org in enumerate(ORGANIZATIONS)
    for row, spec in enumerate(_households(org).values())
]

CONFIGS = {
    "heuristic": {},
    "both-fingerprint": {"detector": "both", "fingerprint": True},
    "evasion-dot": {"transport": "dot", "evasion": True},
    "evasion-doh": {"transport": "doh", "evasion": True},
    "evasion-doq": {"transport": "doq", "evasion": True},
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def reference_records(request):
    config = StudyConfig(workers=1, engine="reference", **CONFIGS[request.param])
    return measure_fleet(FLEET, config).records


@pytest.mark.parametrize("row", range(len(SHAPES)), ids=SHAPES)
def test_sibling_of_first_home_is_each_homes_record(reference_records, row):
    first = reference_records[row]
    # Fill the record's lazy provider-status index: a sibling must
    # still pickle like a freshly built record.
    first.responded_all(4)
    for home in range(1, len(ORGANIZATIONS)):
        index = home * len(SHAPES) + row
        spec, record = FLEET[index], reference_records[index]
        assert _dedup_key(spec) == _dedup_key(FLEET[row])
        sibling = _as_sibling(first, spec)
        assert sibling == record
        assert record_to_dict(sibling) == record_to_dict(record)
        assert pickle.dumps(sibling) == pickle.dumps(record)


def test_key_covers_every_field_but_identity():
    """Changing any spec field but ``probe_id`` or ``organization``
    changes the key; a new ``ProbeSpec`` field must be added here, and
    then fails unless the key reads it."""
    base = make_spec(ORGANIZATIONS[0])
    altered = {
        "firmware": xb6_profile(),
        "isp": IspBehavior(resolver_outside_as=True),
        "external_policies": (intercept_all(),),
        "has_ipv6": True,
        "responds_v4": (False, True, True, True),
        "responds_v6": (True, False, True, True),
        "online": False,
    }
    identity = {"probe_id": 1, "organization": ORGANIZATIONS[1]}
    names = {field.name for field in dataclasses.fields(ProbeSpec)}
    assert names == set(altered) | set(identity)
    for name, value in altered.items():
        assert _dedup_key(dataclasses.replace(base, **{name: value})) != _dedup_key(
            base
        ), name
    assert _dedup_key(dataclasses.replace(base, **identity)) == _dedup_key(base)


def test_scenario_signature_covers_every_field_a_build_reads():
    """Changing any ``ProbeSpec`` field but the homed ``probe_id`` and
    ``organization`` and the three a build never reads, or any
    ``ScenarioSpec`` field but ``probe`` and the homed
    ``impairment_seed``, changes the signature. A new field must be
    added here, and then fails unless the signature reads it: a
    topology-shaping field it left out would reuse the wrong topology."""
    base = ScenarioSpec(make_spec(ORGANIZATIONS[0]))
    probe_altered = {
        "firmware": xb6_profile(),
        "isp": IspBehavior(resolver_outside_as=True),
        "external_policies": (intercept_all(),),
        "has_ipv6": True,
    }
    probe_homed = {"probe_id": 2, "organization": ORGANIZATIONS[1]}
    probe_unread = {
        "online": False,
        "responds_v4": (False, True, True, True),
        "responds_v6": (True, False, True, True),
    }
    spec_altered = {
        "providers": (Provider.GOOGLE,),
        "isp_policies": (intercept_all(),),
        "external_policies": (intercept_all(),),
        "impairment": impairment_profile("residential"),
        "trace": True,
    }
    spec_homed = {"impairment_seed": 3}
    names = {field.name for field in dataclasses.fields(ProbeSpec)}
    assert names == set(probe_altered) | set(probe_homed) | set(probe_unread)
    names = {field.name for field in dataclasses.fields(ScenarioSpec)}
    assert names == set(spec_altered) | set(spec_homed) | {"probe"}
    signature = scenario_signature(base)
    for name, value in probe_altered.items():
        probe = dataclasses.replace(base.probe, **{name: value})
        altered = dataclasses.replace(base, probe=probe)
        assert scenario_signature(altered) != signature, name
    for name, value in spec_altered.items():
        altered = dataclasses.replace(base, **{name: value})
        assert scenario_signature(altered) != signature, name
    probe = dataclasses.replace(base.probe, **probe_homed, **probe_unread)
    unread = dataclasses.replace(base, probe=probe, **spec_homed)
    assert scenario_signature(unread) == signature


def test_unhashable_spec_has_no_key():
    spec = dataclasses.replace(
        make_spec(ORGANIZATIONS[0]), external_policies=[intercept_all()]
    )
    assert _key_number(spec, {}) is None

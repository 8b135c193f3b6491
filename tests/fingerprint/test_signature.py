"""The signature database: prediction, distinctness, live confusion.

The acceptance bar for the fingerprint engine is the confusion
diagonal: for *every* personality the scenario builder can put in the
interception path — each CPE firmware software, each middlebox mode,
the external transit interceptor — the live six-probe signature must
match the database entry for the software actually answering.
"""

import pytest

from repro.atlas.geo import organization_by_name
from repro.atlas.measurement import MeasurementClient
from repro.atlas.scenario import _RESOLVER_SOFTWARE_FACTORIES, build_scenario
from repro.cpe.firmware import TABLE5_SOFTWARE_MIX, dnat_interceptor
from repro.dnswire import RCode
from repro.fingerprint import (
    PROBE_AXES,
    build_signature_database,
    run_ambiguity_probes,
    true_software_label,
)
from repro.fingerprint.signature import (
    DROP_SIGNATURE,
    SignatureDatabase,
    block_signature,
    expected_signature,
    replicate_signature,
)
from repro.interceptors.policy import InterceptMode, intercept_all
from repro.resolvers.software import silent_forwarder

from tests.conftest import make_spec

ORG = organization_by_name("Comcast")

CPE_SOFTWARES = sorted(
    {software.label: software for software, _count in TABLE5_SOFTWARE_MIX}.items()
)
CPE_SOFTWARES.append((silent_forwarder().label, silent_forwarder()))


def live_signature(spec, destination="8.8.8.8"):
    sc = build_scenario(spec)
    return run_ambiguity_probes(MeasurementClient(sc.network, sc.host), destination)


class TestDatabase:
    def test_builds_without_collisions(self):
        db = build_signature_database()
        # 19 forwarder personalities + 7 resolver keys with a replicate
        # variant each (distinct only when the profile drops) + 3 block
        # rcodes + silence.
        assert len(db) == 25

    def test_every_entry_round_trips(self):
        db = build_signature_database()
        for signature, label in db.entries():
            assert len(signature) == len(PROBE_AXES)
            assert db.identify(signature) == label

    def test_unknown_signature_is_none(self):
        assert build_signature_database().identify(("?",) * 6) is None

    def test_collision_refused(self):
        db = SignatureDatabase()
        db.add(DROP_SIGNATURE, "a")
        with pytest.raises(ValueError, match="collision"):
            db.add(DROP_SIGNATURE, "b")
        db.add(DROP_SIGNATURE, "a")  # same label is idempotent

    def test_expected_signature_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="role"):
            expected_signature(silent_forwarder().ambiguity, role="proxy")

    def test_replicate_backfills_only_drops(self):
        resolver_sig = ("lower", "drop", "rcode:1", "drop", "served", "all")
        composed = replicate_signature(resolver_sig)
        assert composed == ("lower", "served", "rcode:1", "opt-absent", "served", "all")


class TestConfusionDiagonalCpe:
    @pytest.mark.parametrize(
        "label,software", CPE_SOFTWARES, ids=[label for label, _ in CPE_SOFTWARES]
    )
    def test_cpe_personality_identified(self, label, software):
        spec = make_spec(
            ORG, probe_id=7000, firmware=dnat_interceptor(software=software)
        )
        signature = live_signature(spec)
        assert true_software_label(spec, "8.8.8.8", 4) == label
        assert build_signature_database().identify(signature) == label, signature


class TestConfusionDiagonalMiddlebox:
    @pytest.mark.parametrize("resolver_key", sorted(_RESOLVER_SOFTWARE_FACTORIES))
    def test_redirect_names_isp_resolver(self, resolver_key):
        spec = make_spec(
            ORG,
            probe_id=7100,
            middlebox_policies=(intercept_all(),),
            resolver_key=resolver_key,
        )
        signature = live_signature(spec)
        expected = _RESOLVER_SOFTWARE_FACTORIES[resolver_key]().label
        assert true_software_label(spec, "8.8.8.8", 4) == expected
        assert build_signature_database().identify(signature) == expected, signature

    @pytest.mark.parametrize(
        "resolver_key", ["unbound-hidden", "bind-9.16.15", "powerdns-4.1.11"]
    )
    def test_replicate_names_isp_resolver(self, resolver_key):
        spec = make_spec(
            ORG,
            probe_id=7200,
            middlebox_policies=(intercept_all(mode=InterceptMode.REPLICATE),),
            resolver_key=resolver_key,
        )
        signature = live_signature(spec)
        expected = _RESOLVER_SOFTWARE_FACTORIES[resolver_key]().label
        assert true_software_label(spec, "8.8.8.8", 4) == expected
        assert build_signature_database().identify(signature) == expected, signature

    @pytest.mark.parametrize("rcode", [RCode.REFUSED, RCode.SERVFAIL, RCode.NOTIMP])
    def test_block_rcodes_distinguished(self, rcode):
        spec = make_spec(
            ORG,
            probe_id=7300,
            middlebox_policies=(
                intercept_all(mode=InterceptMode.BLOCK, block_rcode=rcode),
            ),
        )
        signature = live_signature(spec)
        assert signature == block_signature(rcode)
        assert (
            build_signature_database().identify(signature)
            == true_software_label(spec, "8.8.8.8", 4)
        )

    def test_drop_is_all_silence(self):
        spec = make_spec(
            ORG,
            probe_id=7400,
            middlebox_policies=(intercept_all(mode=InterceptMode.DROP),),
        )
        signature = live_signature(spec)
        assert signature == DROP_SIGNATURE
        assert (
            build_signature_database().identify(signature)
            == true_software_label(spec, "8.8.8.8", 4)
            == "dropping middlebox"
        )

    def test_external_interceptor_names_off_as_resolver(self):
        spec = make_spec(
            ORG, probe_id=7500, external_policies=(intercept_all(),)
        )
        signature = live_signature(spec)
        expected = true_software_label(spec, "8.8.8.8", 4)
        assert expected == "unbound 1.13.1"
        assert build_signature_database().identify(signature) == expected, signature


class TestGroundTruth:
    def test_clean_path_has_no_true_software(self):
        spec = make_spec(ORG, probe_id=7600)
        assert true_software_label(spec, "8.8.8.8", 4) is None

    def test_cpe_precedes_middlebox(self):
        from repro.resolvers.software import pi_hole

        spec = make_spec(
            ORG,
            probe_id=7601,
            firmware=dnat_interceptor(software=pi_hole("2.84")),
            middlebox_policies=(intercept_all(),),
        )
        assert true_software_label(spec, "8.8.8.8", 4) == "dnsmasq-pi-hole-2.84"

    def test_policy_scope_respected(self):
        from repro.interceptors.policy import intercept_only

        spec = make_spec(
            ORG,
            probe_id=7602,
            middlebox_policies=(intercept_only(["8.8.8.8", "8.8.4.4"]),),
        )
        assert true_software_label(spec, "8.8.8.8", 4) is not None
        assert true_software_label(spec, "1.1.1.1", 4) is None

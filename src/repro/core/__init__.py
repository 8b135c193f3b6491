"""``repro.core`` — the paper's contribution: locating DNS interception.

The three-step technique of Figure 2 (location queries, the version.bind
CPE comparison, bogon queries), the §4.1.2 transparency check, the
probe-fleet pilot study, and the §6 future-work TTL-probing extension.
"""

from .catalog import (
    LOCATION_QUERIES,
    PROVIDER_ORDER,
    LocationQuerySpec,
    location_query_table,
    provider_addresses,
)
from .matchers import (
    MatchResult,
    describe_response,
    match_cloudflare,
    match_google,
    match_location_response,
    match_opendns,
    match_quad9,
)
from .detector import (
    DetectionReport,
    InterceptionStatus,
    LocationProbe,
    ProviderVerdict,
    detect_all,
    detect_provider,
)
from .cpe_check import CpeCheckResult, VersionBindObservation, check_cpe
from .isp_check import BogonProbe, IspCheckResult, check_isp, default_bogon
from .transparency import (
    ProbeTransparency,
    ProviderTransparency,
    TransparencyResult,
    WhoamiObservation,
    check_transparency,
)
from .classifier import InterceptionLocator, LocatorVerdict, ProbeClassification
from .encrypted_probe import (
    EncryptedProfile,
    EncryptedReport,
    EncryptedStatus,
    EncryptedVerdict,
    probe_encrypted_all,
    probe_encrypted_provider,
)
from .cert_validate import (
    CertCause,
    CertFetch,
    CertObservation,
    CertReport,
    CertVerdict,
    cert_fetch,
    validate_certificates,
)
from .detector_registry import (
    DETECTORS,
    STUDY_DETECTORS,
    Detector,
    DetectorVerdict,
    get_detector,
)
from .baseline import (
    AuthoritativeObservation,
    BaselineStatus,
    BaselineVerdict,
    PrevalenceExperiment,
)
from .report import render_diagnosis
from .ttl_probe import DEFAULT_MAX_TTL, TtlProbeResult, TtlStep, ttl_probe
from .metrics import (
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_REGISTRY,
    active_registry,
    use_registry,
)
from .study import (
    ProbeRecord,
    StudyConfig,
    StudyResult,
    classification_to_record,
    measure_probe,
    run_pilot_study,
)

__all__ = [
    "LOCATION_QUERIES",
    "PROVIDER_ORDER",
    "LocationQuerySpec",
    "location_query_table",
    "provider_addresses",
    "MatchResult",
    "describe_response",
    "match_cloudflare",
    "match_google",
    "match_location_response",
    "match_opendns",
    "match_quad9",
    "DetectionReport",
    "InterceptionStatus",
    "LocationProbe",
    "ProviderVerdict",
    "detect_all",
    "detect_provider",
    "CpeCheckResult",
    "VersionBindObservation",
    "check_cpe",
    "BogonProbe",
    "IspCheckResult",
    "check_isp",
    "default_bogon",
    "ProbeTransparency",
    "ProviderTransparency",
    "TransparencyResult",
    "WhoamiObservation",
    "check_transparency",
    "EncryptedProfile",
    "EncryptedReport",
    "EncryptedStatus",
    "EncryptedVerdict",
    "probe_encrypted_all",
    "probe_encrypted_provider",
    "CertCause",
    "CertFetch",
    "CertObservation",
    "CertReport",
    "CertVerdict",
    "cert_fetch",
    "validate_certificates",
    "DETECTORS",
    "STUDY_DETECTORS",
    "Detector",
    "DetectorVerdict",
    "get_detector",
    "InterceptionLocator",
    "LocatorVerdict",
    "ProbeClassification",
    "AuthoritativeObservation",
    "BaselineStatus",
    "BaselineVerdict",
    "PrevalenceExperiment",
    "render_diagnosis",
    "DEFAULT_MAX_TTL",
    "TtlProbeResult",
    "TtlStep",
    "ttl_probe",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_REGISTRY",
    "active_registry",
    "use_registry",
    "ProbeRecord",
    "StudyConfig",
    "StudyResult",
    "classification_to_record",
    "measure_probe",
    "run_pilot_study",
]

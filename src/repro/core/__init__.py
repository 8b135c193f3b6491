"""``repro.core`` — the paper's contribution: locating DNS interception.

The three-step technique of Figure 2 (location queries, the version.bind
CPE comparison, bogon queries), the §4.1.2 transparency check, the
probe-fleet pilot study, and the §6 future-work TTL-probing extension.
"""

from .catalog import (
    LOCATION_QUERIES,
    PROVIDER_ORDER,
    location_query_table,
    provider_addresses,
)
from .matchers import MatchResult, describe_response, match_location_response
from .detector import DetectionReport, InterceptionStatus, detect_all
from .cpe_check import CpeCheckResult, check_cpe
from .isp_check import IspCheckResult, check_isp
from .transparency import ProbeTransparency, TransparencyResult, check_transparency
from .classifier import InterceptionLocator, LocatorVerdict, ProbeClassification
from .encrypted_probe import (
    EncryptedProfile,
    EncryptedStatus,
    EncryptedVerdict,
    probe_encrypted_provider,
)
from .cert_validate import CertReport, CertVerdict, validate_certificates
from .detector_registry import DETECTORS, STUDY_DETECTORS, Detector, get_detector
from .baseline import PrevalenceExperiment
from .report import render_diagnosis
from .ttl_probe import ttl_probe
from .metrics import MetricsRegistry, MetricsSnapshot, active_registry, use_registry
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
    "location_query_table",
    "provider_addresses",
    "MatchResult",
    "describe_response",
    "match_location_response",
    "DetectionReport",
    "InterceptionStatus",
    "detect_all",
    "CpeCheckResult",
    "check_cpe",
    "IspCheckResult",
    "check_isp",
    "ProbeTransparency",
    "TransparencyResult",
    "check_transparency",
    "EncryptedProfile",
    "EncryptedStatus",
    "EncryptedVerdict",
    "probe_encrypted_provider",
    "CertReport",
    "CertVerdict",
    "validate_certificates",
    "DETECTORS",
    "STUDY_DETECTORS",
    "Detector",
    "get_detector",
    "InterceptionLocator",
    "LocatorVerdict",
    "ProbeClassification",
    "PrevalenceExperiment",
    "render_diagnosis",
    "ttl_probe",
    "MetricsRegistry",
    "MetricsSnapshot",
    "active_registry",
    "use_registry",
    "ProbeRecord",
    "StudyConfig",
    "StudyResult",
    "classification_to_record",
    "measure_probe",
    "run_pilot_study",
]

"""``repro.atlas`` — the RIPE-Atlas-style measurement substrate.

A calibrated synthetic probe fleet (the paper used ~10k real RIPE Atlas
probes; we generate households whose measured aggregates land on the
paper's published shapes), per-probe scenario construction, and the
measurement client that performs validated DNS exchanges over the
simulated network.
"""

from .campaign import Campaign, MeasurementDefinition
from .geo import ORGANIZATIONS, Organization, organization_by_name
from .measurement import (
    DEFAULT_TIMEOUT_MS,
    DnsExchangeResult,
    DohExchangeResult,
    DoqExchangeResult,
    DotExchangeResult,
    EncryptedExchangeResult,
    ExchangeResult,
    ExchangeStatus,
    MeasurementClient,
)
from .population import (
    CPE_TRUE_SOFTWARE,
    PROVIDERS,
    PopulationConfig,
    PopulationGenerator,
    example_probe_specs,
    generate_population,
)
from .probe import InterceptorLocation, IspBehavior, ProbeSpec
from .retry import (
    ExponentialBackoffRetry,
    FixedIntervalRetry,
    RetryPolicy,
    default_chaos_retry,
)
from .scenario import Scenario, ScenarioSpec, build_scenario, resolver_software
from .transport import ENCRYPTED_TRANSPORTS, TRANSPORTS, resolve, udp53_exchange

__all__ = [
    "Campaign",
    "MeasurementDefinition",
    "ORGANIZATIONS",
    "Organization",
    "organization_by_name",
    "DEFAULT_TIMEOUT_MS",
    "DnsExchangeResult",
    "DohExchangeResult",
    "DoqExchangeResult",
    "DotExchangeResult",
    "EncryptedExchangeResult",
    "ExchangeResult",
    "ExchangeStatus",
    "MeasurementClient",
    "ENCRYPTED_TRANSPORTS",
    "TRANSPORTS",
    "resolve",
    "udp53_exchange",
    "CPE_TRUE_SOFTWARE",
    "PROVIDERS",
    "PopulationConfig",
    "PopulationGenerator",
    "example_probe_specs",
    "generate_population",
    "InterceptorLocation",
    "IspBehavior",
    "ProbeSpec",
    "ExponentialBackoffRetry",
    "FixedIntervalRetry",
    "RetryPolicy",
    "default_chaos_retry",
    "Scenario",
    "ScenarioSpec",
    "build_scenario",
    "resolver_software",
]

"""``repro.campaigns`` — the longitudinal campaign service.

Three layers on top of :mod:`repro.store`:

- :mod:`~repro.campaigns.catalog` — named, validated, fingerprinted
  scenario bundles loaded from ``scenarios/*.json``;
- :mod:`~repro.campaigns.schedule` — the recurring campaign engine:
  run a catalog scenario at epochs over a time-varying fleet (seeded
  churn, firmware upgrades, ISP policy flips), journaling each epoch
  into one longitudinal store, deterministic per ``(seed, epoch)`` and
  worker-invariant;
- :mod:`~repro.campaigns.aggregate` — incremental aggregation folding
  newly-appended journal segments into persisted epoch/trend tables
  without rescanning the archive.

``repro serve`` (:mod:`repro.serve`) exposes the aggregation read-only
over HTTP.
"""

from .aggregate import StoreAggregator, canonical_json, load_epoch_page
from .catalog import (
    ScenarioBundle,
    ScenarioError,
    bundle_from_dict,
    find_bundle,
    load_catalog,
)
from .schedule import (
    CampaignSchedule,
    ChurnSpec,
    FirmwareUpgrade,
    LongitudinalCampaign,
    PolicyFlip,
)

__all__ = [
    "CampaignSchedule",
    "ChurnSpec",
    "FirmwareUpgrade",
    "LongitudinalCampaign",
    "PolicyFlip",
    "ScenarioBundle",
    "ScenarioError",
    "StoreAggregator",
    "bundle_from_dict",
    "canonical_json",
    "find_bundle",
    "load_catalog",
    "load_epoch_page",
]

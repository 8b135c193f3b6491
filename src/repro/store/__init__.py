"""``repro.store`` — the durable result store.

Crash-safe journaling, checkpointed fleet runs and resumable studies:
:class:`ResultStore` wraps an append-only sharded JSONL journal plus a
fingerprinted manifest, the fleet executor streams completed segments
into it, and ``run_pilot_study(config, store=...)`` /
``repro study --store DIR --resume`` skip already-journaled probes and
rebuild a byte-identical :class:`~repro.core.study.StudyResult`.
"""

from .journal import (
    JournalWriter,
    StoreCorruptError,
    StoreError,
    StoreIncompleteError,
    StoreInterrupted,
    StoreMismatchError,
    StoreResumeRequired,
    canonical_value,
    fingerprint,
    read_journal,
    read_journal_at,
    read_journal_tail,
    study_fingerprint,
)
from .result_store import (
    JOURNAL_DIR,
    MANIFEST_NAME,
    METRICS_PREFIX,
    RECORDS_PREFIX,
    STORE_SCHEMA,
    STUDY_EXPORT_NAME,
    ResultStore,
    StoreSummary,
    epoch_manifest,
    list_stores,
    load_manifest,
    load_stored_records,
    load_stored_study,
    summarize_store,
)

__all__ = [
    "JOURNAL_DIR",
    "JournalWriter",
    "MANIFEST_NAME",
    "METRICS_PREFIX",
    "RECORDS_PREFIX",
    "ResultStore",
    "STORE_SCHEMA",
    "STUDY_EXPORT_NAME",
    "StoreCorruptError",
    "StoreError",
    "StoreIncompleteError",
    "StoreInterrupted",
    "StoreMismatchError",
    "StoreResumeRequired",
    "StoreSummary",
    "canonical_value",
    "epoch_manifest",
    "fingerprint",
    "list_stores",
    "load_manifest",
    "load_stored_records",
    "load_stored_study",
    "read_journal",
    "read_journal_at",
    "read_journal_tail",
    "study_fingerprint",
    "summarize_store",
]

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
    RECORDS_PREFIX,
    ResultStore,
    epoch_manifest,
    list_stores,
    load_manifest,
    load_stored_study,
    summarize_store,
)

__all__ = [
    "JOURNAL_DIR",
    "JournalWriter",
    "RECORDS_PREFIX",
    "ResultStore",
    "StoreCorruptError",
    "StoreError",
    "StoreIncompleteError",
    "StoreInterrupted",
    "StoreMismatchError",
    "StoreResumeRequired",
    "canonical_value",
    "epoch_manifest",
    "fingerprint",
    "list_stores",
    "load_manifest",
    "load_stored_study",
    "read_journal",
    "read_journal_at",
    "read_journal_tail",
    "study_fingerprint",
    "summarize_store",
]

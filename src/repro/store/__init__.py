"""repro.store: durable, crash-consistent state for the pipeline.

* :mod:`repro.store.journal` — CRC-framed append-only record journal
  with torn-tail truncation and typed corrupt-record quarantine.
* :mod:`repro.store.snapshot` — CRC-guarded durable pickled snapshots.
* :mod:`repro.store.stats` — the one store of per-program mining
  results (``uspec learn --store-dir``): each program's sufficient
  statistics and match records, or its quarantine verdict, keyed by
  pipeline and program fingerprint, plus per-generation spec history
  for drift reporting.

Every durable writer crosses the write points of
:mod:`repro.runtime.faults`, so an armed fault plan can crash it at
any of them.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "QuarantinedRecord": "repro.store.journal",
    "RecordJournal": "repro.store.journal",
    "RecoveryReport": "repro.store.journal",
    "SnapshotCorrupt": "repro.store.snapshot",
    "SpecDrift": "repro.store.stats",
    "StatsStore": "repro.store.stats",
    "StoredProgram": "repro.store.stats",
    "load_snapshot": "repro.store.snapshot",
    "read_snapshot": "repro.store.snapshot",
    "spec_key": "repro.store.stats",
    "write_snapshot": "repro.store.snapshot",
}

__all__ = list(_LAZY)
__getattr__ = lazy_exports(__name__, _LAZY)

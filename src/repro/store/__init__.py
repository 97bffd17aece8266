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
from repro.store.journal import QuarantinedRecord, RecordJournal, RecoveryReport
from repro.store.snapshot import (
    SnapshotCorrupt,
    load_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.store.stats import SpecDrift, StatsStore, StoredProgram, spec_key

__all__ = [
    "QuarantinedRecord",
    "RecordJournal",
    "RecoveryReport",
    "SnapshotCorrupt",
    "SpecDrift",
    "StatsStore",
    "StoredProgram",
    "load_snapshot",
    "read_snapshot",
    "spec_key",
    "write_snapshot",
]

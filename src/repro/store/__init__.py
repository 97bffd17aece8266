"""repro.store: durable, crash-consistent state for the pipeline.

* :mod:`repro.store.faults` — deterministic crash-point injection
  (``CrashPlan``), threaded under every durable writer.
* :mod:`repro.store.journal` — CRC-framed append-only record journal
  with torn-tail truncation and typed corrupt-record quarantine.
* :mod:`repro.store.snapshot` — CRC-guarded durable pickled snapshots.
* :mod:`repro.store.stats` — the one store of per-program mining
  results (``uspec learn --store-dir``): each program's sufficient
  statistics and match records, or its quarantine verdict, keyed by
  pipeline and program fingerprint, plus per-generation spec history
  for drift reporting.

Submodules are re-exported lazily (PEP 562): ``repro.runtime.checkpoint``
imports :mod:`repro.store.faults`, and eager imports here would close
that into a cycle (journal/snapshot build on the checkpoint writers).
"""
from repro.store.faults import (  # the stdlib-only leaf: safe to eager
    CRASH_POINTS,
    CrashPlan,
    CrashSpec,
    SimulatedCrash,
    active_plan,
    crash_hook,
    install_crash_plan,
    install_crash_plan_from_env,
)

_LAZY = {
    "QuarantinedRecord": "repro.store.journal",
    "RecordJournal": "repro.store.journal",
    "RecoveryReport": "repro.store.journal",
    "SnapshotCorrupt": "repro.store.snapshot",
    "load_snapshot": "repro.store.snapshot",
    "read_snapshot": "repro.store.snapshot",
    "write_snapshot": "repro.store.snapshot",
    "SpecDrift": "repro.store.stats",
    "StatsStore": "repro.store.stats",
    "StoredProgram": "repro.store.stats",
    "spec_key": "repro.store.stats",
}

__all__ = [
    "CRASH_POINTS",
    "CrashPlan",
    "CrashSpec",
    "SimulatedCrash",
    "active_plan",
    "crash_hook",
    "install_crash_plan",
    "install_crash_plan_from_env",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

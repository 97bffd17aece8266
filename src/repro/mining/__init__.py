"""Sharded parallel mining, one fold of settled programs (scaling §7).

The paper mines specifications from corpora of up to 64M LoC — far
beyond what a single sequential pass handles comfortably.  This package
turns :class:`~repro.specs.pipeline.USpecPipeline` into a deterministic
map/reduce job:

* :mod:`partial` — the one fold every settled program goes through,
  once, whichever way it arrived, and the run's report;
* :mod:`cache` — the (pipeline, program) fingerprints that key every
  record of the durable store (:mod:`repro.store`), so a re-run after
  editing *k* corpus files re-analyses exactly *k*;
* :mod:`supervisor` — the one fault-tolerant dispatch loop, over
  spawned worker processes or the ``uspec worker`` daemons a
  :class:`~repro.dist.coordinator.Coordinator` accepts: deadlines,
  leases, retries that resume after the last settled program with
  backoff, poisoned programs, failure ledger;
* :mod:`engine` — the orchestrator: over round-robin corpus shards,
  one analyse pass emits each program's samples and Alg. 1 match
  records, the parent trains and scores; byte-identical output for any
  worker count, with or without injected worker faults (modulo
  quarantined toxic programs).
"""

from repro._lazy import lazy_exports

_LAZY = {
    "FailureLedger": "repro.mining.supervisor",
    "MiningConfig": "repro.mining.engine",
    "MiningEngine": "repro.mining.engine",
    "MiningReport": "repro.mining.partial",
    "ProgramFold": "repro.mining.partial",
    "ShardMetrics": "repro.mining.partial",
    "SupervisionConfig": "repro.mining.supervisor",
    "TaskScheduler": "repro.mining.supervisor",
    "pipeline_fingerprint": "repro.mining.cache",
    "program_fingerprint": "repro.mining.cache",
}

__all__ = list(_LAZY)
__getattr__ = lazy_exports(__name__, _LAZY)

"""Sharded parallel mining with mergeable partial results (scaling §7).

The paper mines specifications from corpora of up to 64M LoC — far
beyond what a single sequential pass handles comfortably.  This package
turns :class:`~repro.specs.pipeline.USpecPipeline` into a deterministic
map/reduce job:

* :mod:`sharding` — stable hash-based corpus shards;
* :mod:`partial` — per-shard results that merge as a monoid;
* :mod:`cache` — the (pipeline, program) fingerprints that key every
  record of the durable store (:mod:`repro.store`), so a re-run after
  editing *k* corpus files re-analyses exactly *k*;
* :mod:`supervisor` — fault-tolerant shard dispatch over a persistent
  worker pool: watchdogs, bounded retry/backoff, poison-shard
  bisection, failure ledger;
* :mod:`engine` — the orchestrator: one analyse pass emits each
  program's samples and Alg. 1 match records, the parent trains and
  scores; byte-identical output for any worker count, with or without
  injected worker faults (modulo quarantined toxic programs).
"""

from repro.mining.cache import pipeline_fingerprint, program_fingerprint
from repro.mining.engine import MiningConfig, MiningEngine, learn_sharded
from repro.mining.partial import MiningReport, ShardMetrics, ShardPartial
from repro.mining.sharding import ShardPlan, shard_of
from repro.mining.supervisor import (
    FailureLedger,
    ShardSupervisor,
    SupervisionConfig,
)

__all__ = [
    "FailureLedger",
    "MiningConfig",
    "MiningEngine",
    "MiningReport",
    "ShardMetrics",
    "ShardPartial",
    "ShardPlan",
    "ShardSupervisor",
    "SupervisionConfig",
    "learn_sharded",
    "pipeline_fingerprint",
    "program_fingerprint",
    "shard_of",
]

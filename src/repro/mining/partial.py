"""Mergeable per-shard mining results.

Every shard worker produces a :class:`ShardPartial` — its slice of the
corpus analysis folded into values that are cheap to pickle and that
*merge*: ``a.merge(b)`` is associative and, combined with the key-sorted
canonicalisation applied after the fold, insensitive to the order in
which shards complete.  That is the whole determinism story of the
parallel engine: workers may finish in any order, the fold may happen in
any order, and the canonical view is still byte-for-byte the one a
sequential run produces.

The partial carries:

* per-program :class:`~repro.runtime.executor.ProgramOutcome` records;
* the shard's :class:`~repro.runtime.manifest.QuarantineManifest`;
* :class:`~repro.model.logistic.SufficientStats` — the hashed training
  samples of the shard's programs, keyed by program so the merged
  stream has one canonical order;
* per-program Alg. 1 match records (:func:`repro.specs.candidates.
  match_records`), which the parent scores once the model is trained;
* :class:`ShardMetrics` — event/edge counts, store hits, wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.model.logistic import SufficientStats
from repro.runtime.executor import ProgramOutcome
from repro.runtime.manifest import QuarantineManifest

if TYPE_CHECKING:  # avoid the partial → supervisor import cycle
    from repro.mining.supervisor import FailureLedger


@dataclass
class ShardMetrics:
    """Counters of one shard's analysis pass."""

    shard_id: int
    n_programs: int = 0
    n_analyzed: int = 0  # computed fresh this run
    n_from_store: int = 0  # satisfied from a store record
    n_quarantined: int = 0
    n_events: int = 0  # event-graph nodes across the shard's bundles
    n_edges: int = 0  # event-graph edges (the event-pair count)
    n_samples: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "n_programs": self.n_programs,
            "n_analyzed": self.n_analyzed,
            "n_from_store": self.n_from_store,
            "n_quarantined": self.n_quarantined,
            "n_events": self.n_events,
            "n_edges": self.n_edges,
            "n_samples": self.n_samples,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class ShardPartial:
    """The mergeable result of mining one (or several merged) shards."""

    metrics: List[ShardMetrics] = field(default_factory=list)
    outcomes: List[ProgramOutcome] = field(default_factory=list)
    manifest: QuarantineManifest = field(default_factory=QuarantineManifest)
    stats: SufficientStats = field(default_factory=SufficientStats)
    #: program key → its match records (``MatchRecord`` tuples)
    records: Dict[str, Tuple] = field(default_factory=dict)
    #: keys actually *computed* this run (not from the store)
    analyzed_keys: List[str] = field(default_factory=list)
    #: program key → (n_events, n_edges) — the per-program graph sizes
    #: the statistics store persists alongside each program's samples
    program_meta: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @classmethod
    def empty(cls, shard_id: Optional[int] = None) -> "ShardPartial":
        partial = cls()
        if shard_id is not None:
            partial.metrics.append(ShardMetrics(shard_id=shard_id))
        return partial

    def merge(self, other: "ShardPartial") -> "ShardPartial":
        """Fold ``other`` into ``self`` (associative; returns self).

        Raw containers are concatenated; order-insensitivity comes from
        :meth:`canonicalize` (and from ``SufficientStats.stream`` /
        ``QuarantineManifest.to_json``, which sort by program key).
        """
        self.metrics.extend(other.metrics)
        self.outcomes.extend(other.outcomes)
        self.manifest.merge(other.manifest)
        self.stats.merge(other.stats)
        self.records.update(other.records)
        self.analyzed_keys.extend(other.analyzed_keys)
        self.program_meta.update(other.program_meta)
        return self

    def canonicalize(self) -> "ShardPartial":
        """Sort every per-program container by program key (in place).

        After this, two folds of the same shard set in different orders
        compare equal field-by-field — the property the monoid-law
        tests check, and the one the engine relies on before handing
        outcomes to the order-sensitive downstream stages.

        Metrics carrying the same shard id — the sub-partials a
        supervised bisection produced for one shard — are coalesced
        into a single per-shard entry, so reports look the same whether
        a shard ran whole or in pieces.
        """
        by_id: Dict[int, ShardMetrics] = {}
        for m in self.metrics:
            agg = by_id.get(m.shard_id)
            if agg is None:
                by_id[m.shard_id] = m
                continue
            for attr in ("n_programs", "n_analyzed", "n_from_store",
                         "n_quarantined", "n_events", "n_edges",
                         "n_samples", "seconds"):
                setattr(agg, attr, getattr(agg, attr) + getattr(m, attr))
        self.metrics = list(by_id.values())
        self.metrics.sort(key=lambda m: m.shard_id)
        self.outcomes.sort(key=lambda o: o.key)
        self.manifest.entries.sort(key=lambda e: e.program)
        self.analyzed_keys.sort()
        return self

    # ------------------------------------------------------------------

    @property
    def n_programs(self) -> int:
        return len(self.outcomes)

    @property
    def n_analyzed(self) -> int:
        return len(self.analyzed_keys)

    def __repr__(self) -> str:
        return (
            f"<ShardPartial {len(self.metrics)} shards, "
            f"{self.n_programs} programs ({self.n_analyzed} analyzed), "
            f"{len(self.manifest)} quarantined, "
            f"{self.stats.n_samples} samples>"
        )


@dataclass
class MiningReport:
    """What the mining engine did, for the run report and benchmarks."""

    jobs: int
    n_shards: int
    n_programs: int
    n_analyzed: int
    n_quarantined: int
    n_events: int
    n_edges: int
    n_samples: int
    seconds_analyze: float
    seconds_train: float
    #: scoring every match record with the trained model, plus τ
    #: selection (the name predates one-pass mining)
    seconds_extract: float
    seconds_total: float
    shards: List[ShardMetrics] = field(default_factory=list)
    analyzed_keys: List[str] = field(default_factory=list)
    #: supervision history (retries, bisections, poisoned programs);
    #: None when the run was unsupervised (sequential, no chaos)
    ledger: Optional["FailureLedger"] = None
    #: whether shard tasks ran in supervised worker processes
    supervised: bool = False
    #: whether shard tasks were dispatched to a repro.dist cluster
    distributed: bool = False
    #: repro.dist ClusterStats.to_dict() of a distributed run
    cluster: Optional[Dict[str, object]] = None
    #: programs whose record (statistics or quarantine verdict) came
    #: from the durable store instead of analysis
    n_from_store: int = 0
    #: StatsStore.recovery_counts() of the store this run opened:
    #: journal records quarantined, bytes truncated, snapshot damage
    #: (None without a store)
    store_recovery: Optional[Dict[str, object]] = None
    #: training generation recorded in the store (None without a store)
    store_generation: Optional[int] = None
    #: SpecDrift.to_dict() vs the previous generation (None without a
    #: store; a first generation reports ``previous: None``)
    drift: Optional[Dict[str, object]] = None
    #: DispatchStats.to_dict() of the supervisor or coordinator (round
    #: trips, batching, serialize/deserialize time, IPC bytes)
    dispatch: Optional[Dict[str, object]] = None
    #: always 0: the trained model never leaves the parent.  Kept
    #: because benchmarks/perf/child.py reads it
    model_broadcast_bytes: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of programs satisfied from the durable store."""
        return self.n_from_store / self.n_programs if self.n_programs \
            else 0.0

    @property
    def programs_per_second(self) -> float:
        total = self.seconds_total
        return self.n_programs / total if total > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "n_shards": self.n_shards,
            "n_programs": self.n_programs,
            "n_analyzed": self.n_analyzed,
            "n_quarantined": self.n_quarantined,
            "n_events": self.n_events,
            "n_edges": self.n_edges,
            "n_samples": self.n_samples,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "programs_per_second": round(self.programs_per_second, 6),
            "seconds_analyze": round(self.seconds_analyze, 6),
            "seconds_train": round(self.seconds_train, 6),
            "seconds_extract": round(self.seconds_extract, 6),
            "seconds_total": round(self.seconds_total, 6),
            "supervised": self.supervised,
            "distributed": self.distributed,
            "n_from_store": self.n_from_store,
            "store_recovery": self.store_recovery,
            "model_broadcast_bytes": self.model_broadcast_bytes,
            "dispatch": self.dispatch,
            "store_generation": self.store_generation,
            "drift": self.drift,
            "cluster": self.cluster,
            "supervision": (
                self.ledger.to_dict() if self.ledger is not None else None
            ),
            "shards": [m.to_dict() for m in self.shards],
        }

    def __repr__(self) -> str:
        return (
            f"<MiningReport {self.n_programs} programs / {self.n_shards} "
            f"shards / {self.jobs} jobs: {self.n_analyzed} analyzed, "
            f"{self.n_from_store} from store, "
            f"{self.n_quarantined} quarantined, "
            f"{self.seconds_total:.2f}s>"
        )

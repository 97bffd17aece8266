"""What a mining run folds: every settled program, once.

A program *settles* as one value, ``(outcome, record)``: its
:class:`~repro.runtime.executor.ProgramOutcome` and its
:class:`~repro.store.stats.StoredProgram`, which holds the hashed
training samples (one :class:`~repro.model.features.SampleBlock`), the
Alg. 1 match records (:func:`repro.specs.candidates.match_records`)
and the graph counts, or the quarantine entry.  The executor's sink
builds it, in process or in a worker that streams it to the parent;
the parent builds it for a store hit and for a poisoned program.
:meth:`ProgramFold.fold` takes it whichever way it arrived, and is the
only way a program enters a run's result.

Determinism: the fold keeps the first copy of each program key, and
every view sorts by program key: outcomes, the manifest, match records
in the order the parent scores them, and ``SufficientStats.stream``.
Arrival order therefore never changes a byte of the specs or the
quarantine manifest.  A retried attempt is sent only the programs the
fold does not hold yet (``key in fold``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.model.dataset import stream_key
from repro.model.logistic import SufficientStats
from repro.runtime.executor import ProgramOutcome
from repro.runtime.manifest import QuarantineEntry, QuarantineManifest

if TYPE_CHECKING:  # avoid the partial → supervisor import cycle
    from repro.mining.supervisor import FailureLedger
    from repro.store.stats import StoredProgram

#: outcome tier label for programs satisfied from the durable store
TIER_STORE = "store"

#: attempt tier label for supervisor-level quarantines (the program
#: never reached the analysis ladder — it killed the worker instead)
TIER_SUPERVISED = "supervised"


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


class ProgramFold:
    """Every settled program of one run, each folded once."""

    def __init__(
        self,
        places: Dict[str, Tuple[int, int]],
        journal: Optional[Callable[["StoredProgram"], None]] = None,
    ) -> None:
        #: program key → (corpus index, shard id)
        self.places = places
        #: persists a record before it is folded (None: no store)
        self.journal = journal
        self.stats = SufficientStats()
        self._outcomes: Dict[str, ProgramOutcome] = {}
        self._entries: List[QuarantineEntry] = []
        self._records: Dict[str, Tuple] = {}
        self._analyzed: List[str] = []
        self._shards: Dict[int, ShardMetrics] = {}

    def fold(self, outcome: ProgramOutcome,
             record: "StoredProgram") -> None:
        """Fold one settled program: the executor's, a store hit
        (``outcome.cached``) or a poisoned one.

        The first copy of a key wins and later ones are dropped before
        they reach the journal.  Anything not from the store is
        journaled before it is folded, so a storage error ends the run
        with the program in neither.
        """
        key = outcome.key
        if key in self._outcomes:
            return
        if self.journal is not None and not outcome.cached:
            self.journal(record)
        index, shard_id = self.places[key]
        metrics = self._shards.setdefault(shard_id, ShardMetrics(shard_id))
        self._outcomes[key] = outcome
        metrics.n_programs += 1
        if outcome.cached:
            metrics.n_from_store += 1
        elif all(a.tier != TIER_SUPERVISED for a in outcome.attempts):
            metrics.n_analyzed += 1
            self._analyzed.append(key)
        if record.entry is not None:
            self._entries.append(record.entry)
            metrics.n_quarantined += 1
            return
        self.stats.add(stream_key(outcome.source, index), record.samples)
        self._records[key] = tuple(record.records)
        metrics.n_samples += len(record.samples)
        metrics.n_events += record.n_events
        metrics.n_edges += record.n_edges

    def __contains__(self, key: str) -> bool:
        """Whether the program ``key`` is folded already."""
        return key in self._outcomes

    def clock(self, shard_id: int, seconds: float) -> None:
        """Add one task's wall-clock to its shard's."""
        metrics = self._shards.setdefault(shard_id, ShardMetrics(shard_id))
        metrics.seconds += seconds

    # ------------------------------------------------------------------
    # canonical views: sorted by program key (or shard id)

    @property
    def outcomes(self) -> List[ProgramOutcome]:
        return [self._outcomes[key] for key in sorted(self._outcomes)]

    @property
    def manifest(self) -> QuarantineManifest:
        return QuarantineManifest(
            sorted(self._entries, key=lambda e: e.program))

    def records(self) -> Iterator[Tuple]:
        """Every match record, in program-key order."""
        for key in sorted(self._records):
            yield from self._records[key]

    @property
    def analyzed_keys(self) -> List[str]:
        """Programs the executor settled this run, quarantined ones
        included (not store hits, nor poisoned programs)."""
        return sorted(self._analyzed)

    @property
    def shards(self) -> List[ShardMetrics]:
        return [self._shards[sid] for sid in sorted(self._shards)]


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
    #: supervision history (retries, poisoned programs);
    #: None when the run was unsupervised (sequential, no worker
    #: faults, no deadline)
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
    #: trips, serialize/deserialize time, IPC bytes)
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

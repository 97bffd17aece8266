"""The sharded parallel mining engine.

Splits :meth:`~repro.specs.pipeline.USpecPipeline.learn` into explicit
map/reduce phases over round-robin corpus shards (program *i* of *n*
shards goes to shard *i* mod *n*):

1. **map: analyse** — programs with a record in the durable
   :class:`~repro.store.stats.StatsStore` (same pipeline fingerprint,
   same program content) are taken from it; each shard's remaining
   programs run corpus analysis under the :mod:`repro.runtime` failure
   discipline.  Each program settles as one value
   (:mod:`repro.mining.partial`): its outcome and its store record,
   which holds its hashed training samples *and* its Alg. 1 match
   records (:func:`~repro.specs.candidates.match_records`) — the
   single-edge matches with their hashed ``ftr(e1, e2)``, which need no
   model — or its quarantine entry.  A worker sends every program to
   the parent as it settles, and its task reply carries only the
   shard's wall-clock;
2. **reduce: train** — the parent folds every settled program once,
   whichever way it arrived (:class:`~repro.mining.partial.ProgramFold`),
   journaling it to the store first; the model trains over the
   seed-shuffled sample stream, ordered by source name
   (:func:`~repro.model.dataset.stream_key`) as in the reference
   pipeline, whatever the corpus order;
3. **finalize** — the parent scores every match record in canonical
   program-key order (:func:`~repro.specs.candidates.score_records`)
   and the τ threshold selects the specification set.

Event graphs never leave the process that built them and are never
persisted: only samples, match records and quarantine verdicts cross
process boundaries, and workers never touch disk.  A warm re-run, a
resume after a kill and a run after edits are therefore one lookup:
exactly the programs without a journal record are analysed.

Determinism guarantee: because per-program work depends only on the
program identity and the corpus seed, and the fold keeps one copy per
program key and sorts by it, the final specifications and quarantine
manifest are **byte-identical for any worker count, shard count and
completion order**.  ``--jobs 4`` is a wall-clock knob, never a
results knob.

Parallel runs dispatch shards through the
:class:`~repro.mining.supervisor.TaskScheduler`: every task attempt
runs in a worker process under a wall-clock deadline, and a dead or
hung worker's task resumes after the last program it settled, with
bounded retries and exponential backoff; a program that keeps killing
workers is quarantined with a ``worker-*`` taxonomy label.
``strict=True`` aborts propagate out of the workers with their type
intact (exit codes 3/4 survive parallelism and supervision).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ir.program import Program
from repro.model.dataset import bundle_seed, encode_bundle_samples
from repro.model.features import FeatureHasher
from repro.runtime.checkpoint import program_key
from repro.runtime.executor import (
    CorpusExecutor,
    CorpusRunReport,
    ProgramOutcome,
)
from repro.runtime.faults import CorruptResult, FaultPlan, armed
from repro.runtime.manifest import QuarantineEntry, TierAttempt
from repro.specs.candidates import match_records, score_records
from repro.specs.pipeline import (
    LearnedSpecs,
    PipelineConfig,
    USpecPipeline,
)
from repro.mining.cache import pipeline_fingerprint, program_fingerprint
from repro.mining.partial import (
    TIER_STORE,
    TIER_SUPERVISED,
    MiningReport,
    ProgramFold,
)
from repro.store.stats import SpecDrift, StatsStore, StoredProgram
from repro.mining.supervisor import (
    FailureLedger,
    SupervisionConfig,
    TaskScheduler,
    send_interim,
)

if TYPE_CHECKING:  # engine → dist would close an import cycle at
    # runtime (repro.dist.coordinator imports repro.mining.supervisor),
    # so the coordinator is injected, never constructed here
    from repro.dist.coordinator import Coordinator

#: default shards per worker; several shards per job keep the pool
#: busy when some programs cost more than others
SHARDS_PER_JOB = 4

#: one corpus unit: (global index, program key, program)
Unit = Tuple[int, str, Program]

#: one settled program: its outcome and its store record (without a
#: fingerprint until the parent stamps one)
Settled = Tuple[ProgramOutcome, StoredProgram]


@dataclass(frozen=True)
class MiningConfig:
    """Parallelism, persistence and supervision policy of one mining run."""

    #: worker processes; 1 = run in-process with no pool (unless worker
    #: faults or a shard deadline force one supervised worker)
    jobs: int = 1
    #: shard count; None = 1 for sequential runs, jobs×4 for parallel
    shards: Optional[int] = None
    #: watchdog / retry policy
    supervision: SupervisionConfig = field(
        default_factory=SupervisionConfig
    )
    #: durable store directory (repro.store.StatsStore): programs with
    #: a record there skip analysis, and every analysed program is
    #: journaled as it settles; None = no persistence
    store_dir: Optional[str] = None
    #: no effect — every store-backed run is incremental.  Kept because
    #: benchmarks/perf/child.py sets it
    append: bool = False

    def resolve_jobs(self) -> int:
        return max(1, self.jobs)

    def resolve_shards(
        self, n_units: int, workers: Optional[int] = None
    ) -> int:
        """Default shard count; ``workers`` (a distributed run's
        registered worker count) widens the default the same way
        ``--jobs`` does locally."""
        jobs = max(self.resolve_jobs(), workers or 0)
        n = self.shards if self.shards is not None \
            else (1 if jobs == 1 else SHARDS_PER_JOB * jobs)
        return max(1, min(n, max(1, n_units)))


def pool_context() -> multiprocessing.context.BaseContext:
    """The local pool's start method: fork where the platform has it,
    else its first method."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


# ----------------------------------------------------------------------
# shard work (module-level so everything pickles under any start method)


@dataclass(frozen=True)
class AnalyzeTask:
    """One analyse-phase payload; self-contained and picklable."""

    config: PipelineConfig
    shard_id: int
    items: Tuple[Unit, ...]
    #: the armed fault plan; rides on the payload (not the pipeline
    #: config) so it can never perturb the store fingerprint
    faults: FaultPlan = field(default_factory=FaultPlan)


def _analyze_shard(
    config: PipelineConfig,
    items: Sequence[Unit],
    settle: Callable[[ProgramOutcome, StoredProgram], None],
    faults: Optional[FaultPlan] = None,
    attempt: Optional[int] = None,
) -> float:
    """Analyse one shard's programs with the corpus executor; returns
    its wall-clock seconds.

    ``settle(outcome, record)`` runs with each program's settled value
    as it settles: the record holds the program's encoded training
    samples, Alg. 1 match records and graph counts, or its quarantine
    entry, and its event graph is dropped here.  In process the fold
    takes it at once; a worker sends it to the parent, so a run killed
    mid-shard keeps everything that completed.  ``faults`` and
    ``attempt`` go to the executor: a worker passes the plan its task
    carried and the task attempt, the parent no attempt.
    """
    started = time.monotonic()
    index_of = {key: index for index, key, _ in items}
    hasher = FeatureHasher(config.feature)

    def sink(outcome, bundle, entry) -> None:
        key, source = outcome.key, outcome.source
        if bundle is None:
            settle(outcome, StoredProgram("", key, source, (), entry=entry))
            return
        # one feature table per program, for its samples and its match
        # records alike
        samples = encode_bundle_samples(
            bundle.features(hasher),
            config.max_positives_per_graph,
            config.negative_ratio,
            bundle_seed(config.seed, source, index_of[key]),
        )
        records = tuple(match_records(
            bundle, config.feature, config.max_receiver_distance,
            config.enable_retrecv,
        ))
        graph = bundle.graph
        settle(outcome, StoredProgram(
            "", key, source, samples, len(graph.events), graph.edge_count,
            records,
        ))

    executor = CorpusExecutor(config.pointsto, config.history,
                              config.runtime, faults=faults)
    executor.run(
        [program for _, _, program in items],
        keys=[key for _, key, _ in items],
        sink=sink,
        attempt=attempt,
    )
    return time.monotonic() - started


# ----------------------------------------------------------------------
# supervised runners / validators (module-level: they cross the process
# boundary by pickle under the spawn start method)


def _supervised_analyze(payload: AnalyzeTask, attempt: int):
    """Stream each settled program to the parent; reply with the
    shard's ``(shard id, seconds)``."""
    try:
        return payload.shard_id, _analyze_shard(
            payload.config, payload.items,
            lambda outcome, record: send_interim((outcome, record)),
            faults=payload.faults, attempt=attempt,
        )
    except CorruptResult as corrupt:
        # an ordinary reply that fails the parent's validator
        return str(corrupt)


def _valid_reply(result) -> bool:
    return (isinstance(result, tuple) and len(result) == 2
            and isinstance(result[0], int)
            and isinstance(result[1], float))


def _settles(payload: AnalyzeTask, item: object) -> bool:
    """Whether ``item`` is a settled program of ``payload``'s own task:
    an executor's outcome and record for one of its keys."""
    if not (isinstance(item, tuple) and len(item) == 2):
        return False
    outcome, record = item
    return (isinstance(outcome, ProgramOutcome)
            and isinstance(record, StoredProgram)
            and not outcome.cached
            and record.key == outcome.key
            and (record.entry is None) == outcome.succeeded
            and any(key == outcome.key for _, key, _ in payload.items))


def _poisoned(unit: Unit, label: str, error: str) -> Settled:
    """The settled value of a program that kills its worker: a
    ``worker-*`` quarantine the parent makes itself."""
    _, key, program = unit
    entry = QuarantineEntry(
        program=key,
        source=program.source,
        error_kind=label,
        error=error,
        attempts=[TierAttempt(
            tier=TIER_SUPERVISED, error_kind=label, error=error,
        )],
    )
    outcome = ProgramOutcome(key=key, source=program.source,
                             attempts=list(entry.attempts))
    return outcome, StoredProgram("", key, program.source, (), entry=entry)


# ----------------------------------------------------------------------


class MiningEngine:
    """Shard → map → fold orchestration around :class:`USpecPipeline`."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        mining: Optional[MiningConfig] = None,
        coordinator: Optional["Coordinator"] = None,
    ) -> None:
        self.pipeline = USpecPipeline(config)
        self.config = self.pipeline.config
        self.mining = mining or MiningConfig()
        #: a bound repro.dist Coordinator makes the run distributed:
        #: every phase dispatches to its registered workers instead of
        #: local worker processes (injected, not built — see the
        #: import-cycle note above)
        self.coordinator = coordinator

    # ------------------------------------------------------------------

    def learn(self, programs: Sequence[Program]) -> LearnedSpecs:
        """The full pipeline, sharded; same contract as ``Pipeline.learn``.

        Returns a :class:`LearnedSpecs` whose ``mining`` field carries
        the :class:`~repro.mining.partial.MiningReport` (store hit
        rate, per-shard wall-clock, throughput, failure ledger).
        """
        t0 = time.monotonic()
        jobs = self.mining.resolve_jobs()
        distributed = self.coordinator is not None
        faults = armed()
        # a deadline needs a watchdog outside the worker, so it puts
        # even --jobs 1 on the supervised path (as worker faults do)
        supervised = (jobs > 1 or distributed or faults.has_worker_faults
                      or self.mining.supervision.shard_deadline is not None)
        ledger = FailureLedger() if supervised else None
        if distributed:
            self.coordinator.configure(
                self.mining.supervision,
                strict=self.config.runtime.strict,
                ledger=ledger,
            )
            self.coordinator.bind()
            self.coordinator.wait_for_workers(
                self.coordinator.dist.min_workers
            )
        units: List[Unit] = [
            (index, program_key(program, index), program)
            for index, program in enumerate(programs)
        ]
        n_shards = self.mining.resolve_shards(
            len(units),
            workers=self.coordinator.n_workers if distributed else None,
        )

        store: Optional[StatsStore] = None
        journal: Optional[_Journal] = None
        if self.mining.store_dir:
            store = StatsStore(self.mining.store_dir,
                               pipeline_fingerprint(self.config))
            journal = _Journal(store, units)
        fold = ProgramFold(
            {key: (index, index % n_shards) for index, key, _ in units},
            journal=journal.put if journal is not None else None,
        )
        # the one lookup: programs with a store record skip dispatch.
        # Shards are round-robin slices: program i goes to shard i mod n
        tasks: List[Tuple[int, List[Unit]]] = []
        for sid in range(n_shards):
            fresh = []
            for unit in units[sid::n_shards]:
                held = journal.held(unit) if journal is not None else None
                if held is None:
                    fresh.append(unit)
                else:
                    fold.fold(*held)
            if fresh:
                tasks.append((sid, fresh))
        drift: Optional[SpecDrift] = None

        # the dispatcher: the coordinator, or a local scheduler
        supervisor = self.coordinator
        if supervised and not distributed:
            supervisor = self._local_scheduler(
                jobs, ledger, faults.has_worker_faults)

        def remaining(payload: AnalyzeTask) -> Optional[AnalyzeTask]:
            items = tuple(unit for unit in payload.items
                          if unit[1] not in fold)
            return replace(payload, items=items) if items else None

        def poison(payload: AnalyzeTask, label: str,
                   error: str) -> Optional[AnalyzeTask]:
            fold.fold(*_poisoned(payload.items[0], label, error))
            return remaining(payload)

        def interim(payload: AnalyzeTask, item: object) -> bool:
            if not _settles(payload, item):
                return False
            fold.fold(*item)
            return True

        try:
            # phase 1: map-analyze ------------------------------------
            if supervisor is not None and tasks:
                for sid, seconds in supervisor.run_phase(
                    "analyze",
                    [(sid, AnalyzeTask(self.config, sid, tuple(items),
                                       faults=faults))
                     for sid, items in tasks],
                    runner=_supervised_analyze,
                    remaining=remaining,
                    poisoner=poison,
                    validator=_valid_reply,
                    on_interim=interim,
                ):
                    fold.clock(sid, seconds)
            else:
                for sid, items in tasks:
                    fold.clock(sid, _analyze_shard(
                        self.config, items, fold.fold, faults=faults))
            t1 = time.monotonic()

            # phase 2: reduce-train -----------------------------------
            if journal is not None:
                journal.retire_departed()
            model = self.pipeline.train_from_stats(fold.stats)
            t2 = time.monotonic()

            # phase 3: finalize ---------------------------------------
            extraction = score_records(fold.records(), model)
            scores = self.pipeline.score(extraction)
            specs = self.pipeline.select(scores)
            t3 = time.monotonic()

            if store is not None:
                drift = store.record_generation(specs, scores)
                store.maybe_compact()
        finally:
            if store is not None:
                store.close()
            if supervisor is not None and supervisor is not self.coordinator:
                supervisor.close()

        run = CorpusRunReport(
            outcomes=fold.outcomes, manifest=fold.manifest,
        )
        shards, analyzed_keys = fold.shards, fold.analyzed_keys
        report = MiningReport(
            jobs=jobs,
            n_shards=n_shards,
            n_programs=len(run.outcomes),
            n_analyzed=len(analyzed_keys),
            n_quarantined=len(run.manifest),
            n_events=sum(m.n_events for m in shards),
            n_edges=sum(m.n_edges for m in shards),
            n_samples=sum(m.n_samples for m in shards),
            seconds_analyze=t1 - t0,
            seconds_train=t2 - t1,
            seconds_extract=t3 - t2,
            seconds_total=time.monotonic() - t0,
            shards=shards,
            analyzed_keys=analyzed_keys,
            ledger=ledger,
            supervised=supervised,
            distributed=distributed,
            cluster=(
                self.coordinator.stats.to_dict() if distributed else None
            ),
            n_from_store=sum(m.n_from_store for m in shards),
            store_recovery=(
                store.recovery_counts() if store is not None else None
            ),
            store_generation=store.generation if store is not None else None,
            drift=drift.to_dict() if drift is not None else None,
            dispatch=(
                supervisor.dispatch.to_dict()
                if supervisor is not None else None
            ),
        )
        return LearnedSpecs(
            specs, scores, extraction, model, self.config,
            run=run, mining=report,
        )

    def _local_scheduler(self, jobs: int,
                         ledger: Optional[FailureLedger],
                         worker_faults: bool) -> TaskScheduler:
        """The spawned workers of this run, one shard task per frame."""
        # the pool never oversubscribes the host: extra CPU-bound
        # workers on a smaller machine only add fork and timeshare
        # overhead.  Shard count (and therefore results) still follows
        # --jobs — specs are byte-identical for any worker count by
        # construction.  Runs with worker faults keep the full pool: a
        # fault targets the requested worker topology (kill one worker,
        # lose one worker's tasks).
        pool_jobs = jobs if worker_faults \
            else max(1, min(jobs, os.cpu_count() or jobs))
        return TaskScheduler(
            self.mining.supervision,
            strict=self.config.runtime.strict,
            ledger=ledger,
            ctx=pool_context(),
            jobs=pool_jobs,
        )


class _Journal:
    """The run's view of its store: the lookup before dispatch, and the
    write of each program the fold takes that is not from the store,
    so a crash or strict abort loses at most the programs still in
    flight."""

    def __init__(self, store: StatsStore, units: Sequence[Unit]) -> None:
        self.store = store
        #: program key → content fingerprint.  Source-less programs are
        #: never stored: their sample seed and key are their position.
        self.fps = {
            key: program_fingerprint(program)
            for _, key, program in units
            if program.source is not None
        }

    def held(self, unit: Unit) -> Optional[Settled]:
        """``unit``'s settled value from its store record, or None.

        The record is re-stamped to the unit's *current* corpus key,
        which is sound because persisted samples derive from the source
        name (``bundle_seed``), not the corpus position.
        """
        _, key, program = unit
        fp = self.fps.get(key)
        record = self.store.get(fp) if fp is not None else None
        if record is None:
            return None
        outcome = ProgramOutcome(key=key, source=program.source, cached=True)
        entry = record.entry
        if entry is None:
            outcome.tier = TIER_STORE
        else:
            entry = replace(entry, program=key)
        return outcome, replace(record, key=key, entry=entry)

    def put(self, record: StoredProgram) -> None:
        """Stamp ``record`` with its program's fingerprint and journal
        it (a source-less program has none and is not stored)."""
        fp = self.fps.get(record.key)
        if fp is not None:
            self.store.put_program(replace(record, fingerprint=fp))

    def retire_departed(self) -> None:
        """Retire the records of programs that left the corpus."""
        live = set(self.fps.values())
        self.store.retire([fp for fp in self.store.programs
                           if fp not in live])

"""The sharded parallel mining engine.

Splits :meth:`~repro.specs.pipeline.USpecPipeline.learn` into explicit
map/reduce phases over deterministic corpus shards
(:mod:`repro.mining.sharding`):

1. **map: analyse** — programs with a record in the durable
   :class:`~repro.store.stats.StatsStore` (same pipeline fingerprint,
   same program content) are taken from it; each shard's remaining
   programs run corpus analysis under the :mod:`repro.runtime` failure
   discipline and produce a :class:`~repro.mining.partial.ShardPartial`:
   per program, its hashed training samples *and* its Alg. 1 match
   records (:func:`~repro.specs.candidates.match_records`) — the
   single-edge matches with their hashed ``ftr(e1, e2)``, which need no
   model — or its quarantine entry.  The parent journals each program's
   result to the store as soon as it has it: workers send every
   settled program ahead of their task reply;
2. **reduce: train** — partials fold through ``ShardPartial.merge``
   into one canonical set of sufficient statistics; the model trains
   over their seed-shuffled sample stream, ordered by source name
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
program identity and the corpus seed, and every merge is canonicalised
by program key, the final specifications and quarantine manifest are
**byte-identical for any worker count, shard count and completion
order**.  ``--jobs 4`` is a wall-clock knob, never a results knob.

Parallel runs dispatch shards through the
:class:`~repro.mining.supervisor.ShardSupervisor`: every task attempt
runs in its own worker process under a wall-clock deadline, dead or
hung workers trigger bounded retries with exponential backoff, and a
shard that keeps killing workers is bisected until the toxic program
is isolated and quarantined with a ``worker-*`` taxonomy label.
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
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ir.program import Program
from repro.model.dataset import (
    bundle_seed,
    encode_bundle_samples,
    stream_key,
)
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
from repro.mining.partial import MiningReport, ShardPartial
from repro.store.stats import SpecDrift, StatsStore, StoredProgram
from repro.mining.sharding import ShardPlan
from repro.mining.supervisor import (
    FailureLedger,
    ShardSupervisor,
    SupervisionConfig,
    send_interim,
)

if TYPE_CHECKING:  # engine → dist would close an import cycle at
    # runtime (repro.dist.coordinator imports repro.mining.supervisor),
    # so the coordinator is injected, never constructed here
    from repro.dist.coordinator import Coordinator

#: default shards per worker; several shards per job keeps the pool
#: busy when shard sizes are skewed, at negligible merge cost
SHARDS_PER_JOB = 4

#: outcome tier label for programs satisfied from the durable store
TIER_STORE = "store"

#: attempt tier label for supervisor-level quarantines (the program
#: never reached the analysis ladder — it killed the worker instead)
TIER_SUPERVISED = "supervised"

#: one corpus unit: (global index, program key, program)
Unit = Tuple[int, str, Program]


@dataclass(frozen=True)
class MiningConfig:
    """Parallelism, persistence and supervision policy of one mining run."""

    #: worker processes; 1 = run in-process with no pool (unless worker
    #: faults or a shard deadline force one supervised worker)
    jobs: int = 1
    #: shard count; None = 1 for sequential runs, jobs×4 for parallel
    shards: Optional[int] = None
    #: multiprocessing start method; None = fork if available
    mp_context: Optional[str] = None
    #: watchdog / retry / bisection policy
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

    def resolve_context(self) -> multiprocessing.context.BaseContext:
        method = self.mp_context
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else methods[0]
        return multiprocessing.get_context(method)


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
    #: send each program to the parent as it settles (the parent
    #: journals it), so a kill loses at most the program in flight
    stream: bool = False


def _analyze_shard(
    config: PipelineConfig,
    shard_id: int,
    items: Sequence[Unit],
    settled=None,
    faults: Optional[FaultPlan] = None,
    attempt: Optional[int] = None,
) -> ShardPartial:
    """Analyse one shard's programs with the corpus executor.

    Every analysed program contributes its encoded training samples and
    its Alg. 1 match records to the partial; its event graph is dropped
    here.  ``settled(result)`` runs with each program's
    :func:`_settled` result as it settles: the in-process engine
    journals it there and a worker sends it to the parent, so a run
    killed mid-shard keeps everything that completed.  ``faults`` and
    ``attempt`` go to the executor: a worker passes the plan its task
    carried and the task attempt, the parent no attempt.
    """
    started = time.monotonic()
    partial = ShardPartial.empty(shard_id)
    metrics = partial.metrics[0]
    index_of = {key: index for index, key, _ in items}

    hasher = FeatureHasher(config.feature)

    def sink(outcome, bundle, entry) -> None:
        key = outcome.key
        samples: List = []
        if bundle is not None:
            # one feature table per program, for its samples and its
            # match records alike
            samples = encode_bundle_samples(
                bundle.features(hasher),
                config.max_positives_per_graph,
                config.negative_ratio,
                bundle_seed(config.seed, bundle.program.source,
                            index_of[key]),
            )
            graph = bundle.graph
            partial.stats.add(
                stream_key(bundle.program.source, index_of[key]), samples)
            partial.records[key] = tuple(match_records(
                bundle, config.feature, config.max_receiver_distance,
                config.enable_retrecv,
            ))
            partial.program_meta[key] = (len(graph.events),
                                         graph.edge_count)
            metrics.n_samples += len(samples)
            metrics.n_events += len(graph.events)
            metrics.n_edges += graph.edge_count
        partial.analyzed_keys.append(key)
        if settled is not None:
            settled(_settled(partial, key, entry, samples))

    executor = CorpusExecutor(config.pointsto, config.history,
                              config.runtime, faults=faults)
    report = executor.run(
        [program for _, _, program in items],
        keys=[key for _, key, _ in items],
        sink=sink,
        attempt=attempt,
    )
    partial.outcomes.extend(report.outcomes)
    partial.manifest.merge(report.manifest)
    metrics.n_programs = len(items)
    metrics.n_analyzed = len(partial.analyzed_keys)
    metrics.n_quarantined = len(partial.manifest)
    metrics.seconds = time.monotonic() - started
    return partial


# ----------------------------------------------------------------------
# supervised runners / splitters / validators (module-level: they cross
# the process boundary by pickle under the spawn start method)


def _settled(partial: ShardPartial, key: str,
             entry: Optional[QuarantineEntry], samples=()) -> Tuple:
    """One settled program as the journal stores it: ``(key, entry,
    samples, match records, n_events, n_edges)``, where a quarantined
    program has its entry and nothing else."""
    if entry is not None:
        return (key, entry, (), (), 0, 0)
    n_events, n_edges = partial.program_meta[key]
    return (key, None, tuple(samples), partial.records[key], n_events,
            n_edges)


def _supervised_analyze(payload: AnalyzeTask, attempt: int):
    try:
        return _analyze_shard(
            payload.config, payload.shard_id, payload.items,
            settled=send_interim if payload.stream else None,
            faults=payload.faults, attempt=attempt,
        )
    except CorruptResult as corrupt:
        # an ordinary reply that fails the parent's validator
        return str(corrupt)


def _split_analyze(payload: AnalyzeTask):
    if len(payload.items) <= 1:
        return None
    mid = len(payload.items) // 2
    return (
        replace(payload, items=payload.items[:mid]),
        replace(payload, items=payload.items[mid:]),
    )


def _valid_partial(result) -> bool:
    return isinstance(result, ShardPartial)


# ----------------------------------------------------------------------


class MiningEngine:
    """Shard → map → merge orchestration around :class:`USpecPipeline`."""

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
        supervised = (jobs > 1 or distributed or faults.has_worker_faults
                      or self.mining.supervision.wants_supervision)
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
        plan = ShardPlan.of(
            [program.source or key for _, key, program in units], n_shards
        )
        shard_items = [
            (shard_id, [units[i] for i in plan.members(shard_id)])
            for shard_id in range(n_shards)
        ]
        tasks = [(sid, items) for sid, items in shard_items if items]

        # the one lookup: programs with a store record skip dispatch
        store: Optional[StatsStore] = None
        journal: Optional[_Journal] = None
        store_partials: List[ShardPartial] = []
        if self.mining.store_dir:
            store = StatsStore(self.mining.store_dir,
                               pipeline_fingerprint(self.config))
            journal = _Journal(store, units)
            tasks, store_partials = self._fold_from_store(
                store, tasks, journal.fps)
        drift: Optional[SpecDrift] = None

        # the dispatcher: the coordinator, or a local supervisor
        supervisor = self.coordinator
        if supervised and not distributed:
            supervisor = self._local_supervisor(
                jobs, sum(len(items) for _, items in tasks), ledger,
                faults.has_worker_faults)

        try:
            # phase 1: map-analyze ------------------------------------
            if not tasks:
                partials: List[ShardPartial] = []
            elif supervisor is not None:
                partials = supervisor.run_phase(
                    "analyze",
                    [(sid, AnalyzeTask(self.config, sid, tuple(items),
                                       faults=faults,
                                       stream=journal is not None))
                     for sid, items in tasks],
                    runner=_supervised_analyze,
                    splitter=_split_analyze,
                    poisoner=journal.poison if journal else _poison_analyze,
                    validator=_valid_partial,
                    on_interim=journal.put if journal else None,
                )
            else:
                partials = [
                    _analyze_shard(self.config, sid, items,
                                   settled=journal.put if journal
                                   else None, faults=faults)
                    for sid, items in tasks
                ]
            partials = list(partials) + store_partials
            t1 = time.monotonic()

            # phase 2: reduce-train -----------------------------------
            merged = ShardPartial()
            for partial in sorted(
                partials, key=lambda p: p.metrics[0].shard_id
            ):
                merged.merge(partial)
            merged.canonicalize()
            if journal is not None:
                journal.retire_departed()
            model = self.pipeline.train_from_stats(merged.stats)
            t2 = time.monotonic()

            # phase 3: finalize ---------------------------------------
            extraction = score_records(
                (record for key in sorted(merged.records)
                 for record in merged.records[key]),
                model,
            )
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
            outcomes=merged.outcomes, manifest=merged.manifest,
        )
        report = self._report(
            jobs, n_shards, merged, t0, t1, t2, t3,
            ledger=ledger, supervised=supervised,
            distributed=distributed,
            cluster=(
                self.coordinator.stats.to_dict() if distributed else None
            ),
            store_generation=store.generation if store is not None else None,
            drift=drift.to_dict() if drift is not None else None,
            store_recovery=(
                store.recovery_counts() if store is not None else None
            ),
            dispatch=(
                supervisor.dispatch.to_dict()
                if supervisor is not None else None
            ),
        )
        return LearnedSpecs(
            specs, scores, extraction, model, self.config,
            run=run, mining=report,
        )

    def _local_supervisor(self, jobs: int, n_programs: int,
                          ledger: Optional[FailureLedger],
                          worker_faults: bool) -> ShardSupervisor:
        """The worker pool for the ``n_programs`` this run analyses."""
        # coalescing floor: pack small shard tasks until one frame
        # carries ~a worker's fair share of the programs to analyse, so
        # dispatch round trips scale with jobs, not shards.  Runs with
        # worker faults keep one task per frame — a fault (and the
        # tests asserting its exact attempt counts) targets single tasks.
        batch = 0 if worker_faults else max(1, -(-n_programs // jobs))
        # the pool never oversubscribes the host: extra CPU-bound
        # workers on a smaller machine only add fork and timeshare
        # overhead.  Shard count (and therefore results) still follows
        # --jobs — specs are byte-identical for any worker count by
        # construction.  Runs with worker faults keep the full pool: a
        # fault targets the requested worker topology (kill one worker,
        # lose one worker's tasks).
        pool_jobs = jobs if worker_faults \
            else max(1, min(jobs, os.cpu_count() or jobs))
        return ShardSupervisor(
            self.mining.resolve_context(), pool_jobs,
            self.mining.supervision,
            strict=self.config.runtime.strict,
            ledger=ledger,
            batch_programs=batch,
        )

    # ------------------------------------------------------------------
    # the durable store (--store-dir)

    def _fold_from_store(
        self,
        store: StatsStore,
        tasks: List[Tuple[int, List[Unit]]],
        fps: Dict[str, str],
    ) -> Tuple[List[Tuple[int, List[Unit]]], List[ShardPartial]]:
        """Partition shard tasks into fresh work and store-satisfied work.

        A unit is satisfied from the store when its content fingerprint
        has a journal record, which carries everything the run needs
        from it: samples, match records and graph counts, or the
        quarantine entry that keeps it from being re-attempted.
        Satisfied units become ready-made per-shard partials —
        re-stamped to the unit's *current* corpus key, which is sound
        because persisted samples derive from the source name
        (``bundle_seed``), not the corpus position.
        """
        remaining: List[Tuple[int, List[Unit]]] = []
        store_partials: List[ShardPartial] = []
        for sid, items in tasks:
            fresh: List[Unit] = []
            held: List[Tuple[Unit, StoredProgram]] = []
            for unit in items:
                fp = fps.get(unit[1])
                rec = store.get(fp) if fp is not None else None
                if rec is not None:
                    held.append((unit, rec))
                else:
                    fresh.append(unit)
            if held:
                sp = ShardPartial.empty(sid)
                metrics = sp.metrics[0]
                for (index, key, program), rec in held:
                    metrics.n_programs += 1
                    metrics.n_from_store += 1
                    if rec.entry is not None:
                        sp.outcomes.append(ProgramOutcome(
                            key=key, source=program.source, cached=True,
                        ))
                        sp.manifest.add(replace(rec.entry, program=key))
                        metrics.n_quarantined += 1
                        continue
                    sp.outcomes.append(ProgramOutcome(
                        key=key, source=program.source,
                        tier=TIER_STORE, cached=True,
                    ))
                    sp.stats.add(stream_key(program.source, index),
                                 list(rec.samples))
                    sp.records[key] = tuple(rec.records)
                    sp.program_meta[key] = (rec.n_events, rec.n_edges)
                    metrics.n_samples += len(rec.samples)
                    metrics.n_events += rec.n_events
                    metrics.n_edges += rec.n_edges
                store_partials.append(sp)
            if fresh:
                remaining.append((sid, fresh))
        return remaining, store_partials

    # ------------------------------------------------------------------

    def _report(
        self,
        jobs: int,
        n_shards: int,
        merged: ShardPartial,
        t0: float, t1: float, t2: float, t3: float,
        ledger: Optional[FailureLedger] = None,
        supervised: bool = False,
        distributed: bool = False,
        cluster: Optional[Dict[str, object]] = None,
        store_generation: Optional[int] = None,
        drift: Optional[Dict[str, object]] = None,
        store_recovery: Optional[Dict[str, object]] = None,
        dispatch: Optional[Dict[str, object]] = None,
    ) -> MiningReport:
        def total(attr: str) -> int:
            return sum(getattr(m, attr) for m in merged.metrics)

        return MiningReport(
            jobs=jobs,
            n_shards=n_shards,
            n_programs=merged.n_programs,
            n_analyzed=merged.n_analyzed,
            n_quarantined=len(merged.manifest),
            n_events=total("n_events"),
            n_edges=total("n_edges"),
            n_samples=total("n_samples"),
            seconds_analyze=t1 - t0,
            seconds_train=t2 - t1,
            seconds_extract=t3 - t2,
            seconds_total=time.monotonic() - t0,
            shards=list(merged.metrics),
            analyzed_keys=list(merged.analyzed_keys),
            ledger=ledger,
            supervised=supervised,
            distributed=distributed,
            cluster=cluster,
            n_from_store=total("n_from_store"),
            store_recovery=store_recovery,
            store_generation=store_generation,
            drift=drift,
            dispatch=dispatch,
        )


class _Journal:
    """Persists each settled program's result to the store at once.

    :meth:`put` takes each program's :func:`_settled` result as it
    settles: in-process, or sent ahead of its task reply by a pool or
    dist worker.  :meth:`poison` journals the verdict the parent itself
    makes for a program that kills its worker.  A later crash or strict
    abort therefore loses at most the programs still in flight.
    """

    def __init__(self, store: StatsStore, units: Sequence[Unit]) -> None:
        self.store = store
        self.sources = {key: program.source for _, key, program in units}
        #: program key → content fingerprint.  Source-less programs are
        #: never stored: their sample seed and key are their position.
        self.fps = {
            key: program_fingerprint(program)
            for _, key, program in units
            if program.source is not None
        }
        #: keys journaled this run (a retried task settles them again)
        self.done: set = set()

    def put(self, settled: Tuple) -> None:
        key, entry, samples, records, n_events, n_edges = settled
        fp = self.fps.get(key)
        if fp is None or key in self.done:
            return
        self.done.add(key)
        self.store.put_program(StoredProgram(
            fp, key, self.sources[key], samples, n_events, n_edges,
            records, entry=entry,
        ))

    def poison(self, payload: AnalyzeTask, label: str,
               error: str) -> ShardPartial:
        partial = _poison_analyze(payload, label, error)
        (entry,) = partial.manifest.entries
        self.put(_settled(partial, entry.program, entry))
        return partial

    def retire_departed(self) -> None:
        """Retire the records of programs that left the corpus."""
        live = set(self.fps.values())
        self.store.retire([fp for fp in self.store.programs
                           if fp not in live])


def _poison_analyze(payload: AnalyzeTask, label: str,
                    error: str) -> ShardPartial:
    """The result of a singleton task whose program kills its worker:
    a ``worker-*`` quarantine, journaled like any other verdict."""
    ((index, key, program),) = payload.items
    entry = QuarantineEntry(
        program=key,
        source=program.source,
        error_kind=label,
        error=error,
        attempts=[TierAttempt(
            tier=TIER_SUPERVISED, error_kind=label, error=error,
        )],
    )
    partial = ShardPartial.empty(payload.shard_id)
    partial.outcomes.append(ProgramOutcome(
        key=key, source=program.source,
        attempts=list(entry.attempts),
    ))
    partial.manifest.add(entry)
    metrics = partial.metrics[0]
    metrics.n_programs = 1
    metrics.n_quarantined = 1
    return partial


def learn_sharded(
    programs: Sequence[Program],
    config: Optional[PipelineConfig] = None,
    mining: Optional[MiningConfig] = None,
    coordinator: Optional["Coordinator"] = None,
) -> LearnedSpecs:
    """Convenience wrapper: one-call sharded learning."""
    return MiningEngine(config, mining, coordinator).learn(programs)

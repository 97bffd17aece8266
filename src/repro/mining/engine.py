"""The sharded parallel mining engine.

Splits :meth:`~repro.specs.pipeline.USpecPipeline.learn` into explicit
map/reduce phases over deterministic corpus shards
(:mod:`repro.mining.sharding`):

1. **map: analyse** — each shard independently runs corpus analysis
   under the :mod:`repro.runtime` failure discipline, consulting the
   incremental :class:`~repro.mining.cache.AnalysisCache` first, and
   produces a :class:`~repro.mining.partial.ShardPartial`: per program,
   its hashed training samples *and* its Alg. 1 match records
   (:func:`~repro.specs.candidates.match_records`) — the single-edge
   matches with their hashed ``ftr(e1, e2)``, which need no model;
2. **reduce: train** — partials fold through ``ShardPartial.merge``
   into one canonical set of sufficient statistics; the model trains
   over their key-sorted, seed-shuffled sample stream;
3. **finalize** — the parent scores every match record in canonical
   program-key order (:func:`~repro.specs.candidates.score_records`)
   and the τ threshold selects the specification set.

Event graphs never leave the process that built them: only samples,
match records and quarantine verdicts cross process boundaries.

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
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ir.program import Program
from repro.model.dataset import GraphBundle, bundle_seed, collect_bundle_samples
from repro.model.features import FeatureConfig, encode_sample
from repro.model.logistic import (
    LogisticRegression,
    SparseExample,
    SufficientStats,
    TrainConfig,
)
from repro.model.model import (
    EventPairModel,
    PositionKey,
    member_configs,
    train_members,
)
from repro.runtime.checkpoint import program_key
from repro.runtime.errors import WorkerCrash
from repro.runtime.executor import (
    CorpusExecutor,
    CorpusRunReport,
    ProgramOutcome,
)
from repro.runtime.faults import ChaosPlan
from repro.runtime.manifest import QuarantineEntry, TierAttempt
from repro.specs.candidates import match_records, score_records
from repro.specs.pipeline import (
    LearnedSpecs,
    PipelineConfig,
    USpecPipeline,
)
from repro.mining.cache import (
    AnalysisCache,
    pipeline_fingerprint,
    program_fingerprint,
)
from repro.mining.partial import MiningReport, ShardPartial
from repro.store.stats import SpecDrift, StatsStore, StoredProgram
from repro.mining.sharding import ShardPlan
from repro.mining.supervisor import (
    FailureLedger,
    ShardSupervisor,
    SupervisionConfig,
)

if TYPE_CHECKING:  # engine → dist would close an import cycle at
    # runtime (repro.dist.coordinator imports repro.mining.supervisor),
    # so the coordinator is injected, never constructed here
    from repro.dist.coordinator import Coordinator

#: default shards per worker; several shards per job keeps the pool
#: busy when shard sizes are skewed, at negligible merge cost
SHARDS_PER_JOB = 4

#: outcome tier label for cache-satisfied programs
TIER_CACHE = "cache"

#: outcome tier label for programs satisfied from the statistics store
#: (``--append``: samples and match records from the journal)
TIER_STORE = "store"

#: attempt tier label for supervisor-level quarantines (the program
#: never reached the analysis ladder — it killed the worker instead)
TIER_SUPERVISED = "supervised"

#: one corpus unit: (global index, program key, program)
Unit = Tuple[int, str, Program]


@dataclass(frozen=True)
class MiningConfig:
    """Parallelism, caching and supervision policy of one mining run."""

    #: worker processes; 1 = run in-process with no pool (unless
    #: supervision — chaos or a shard deadline — forces one worker)
    jobs: int = 1
    #: shard count; None = 1 for sequential runs, jobs×4 for parallel
    shards: Optional[int] = None
    #: incremental analysis cache directory; None = no cache
    cache_dir: Optional[str] = None
    #: cache size budget in bytes; LRU-by-mtime eviction runs at the
    #: end of the run (None = unbounded)
    cache_budget: Optional[int] = None
    #: multiprocessing start method; None = fork if available
    mp_context: Optional[str] = None
    #: watchdog / retry / bisection / chaos policy
    supervision: SupervisionConfig = field(
        default_factory=SupervisionConfig
    )
    #: run the training reduce in the worker pool: one task per
    #: position-key ensemble plus the shared fallback, specs
    #: byte-identical to the sequential reduce
    parallel_train: bool = False
    #: durable statistics store directory (repro.store.StatsStore);
    #: None = no persistence.  When set and no --cache-dir was named,
    #: the analysis cache co-locates under the store.
    store_dir: Optional[str] = None
    #: incremental mode: programs whose fingerprint is already in the
    #: store skip analysis — their persisted samples and match records
    #: fold straight into the merge
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

    @property
    def supervised(self) -> bool:
        """Whether shard tasks run in supervised worker processes."""
        return (self.resolve_jobs() > 1
                or self.supervision.wants_supervision
                or self.parallel_train)


# ----------------------------------------------------------------------
# shard work (module-level so everything pickles under any start method)


@dataclass(frozen=True)
class AnalyzeTask:
    """One analyse-phase payload; self-contained and picklable."""

    config: PipelineConfig
    cache_dir: Optional[str]
    fingerprint: str
    shard_id: int
    items: Tuple[Unit, ...]
    #: process-level fault injection; rides on the payload (not the
    #: pipeline config) so it can never perturb the cache fingerprint
    chaos: Optional[ChaosPlan] = None


def _analyze_shard(
    config: PipelineConfig,
    shard_id: int,
    items: Sequence[Unit],
    cache_dir: Optional[str],
    fingerprint: str,
    before=None,
) -> ShardPartial:
    """Analyse one shard: cache lookups, then the executor over misses.

    Every analysed program contributes its encoded training samples and
    its Alg. 1 match records to the partial; its event graph is dropped
    here.  Results are persisted to the cache *per program* (via the
    executor sink), so a run killed mid-shard keeps everything that
    completed.  ``before`` is threaded into the executor as its
    pre-program hook (the supervisor's chaos probe).
    """
    started = time.monotonic()
    cache = AnalysisCache(cache_dir, fingerprint) if cache_dir else None
    partial = ShardPartial.empty(shard_id)
    metrics = partial.metrics[0]

    def fold(key: str, samples, records, n_events: int,
             n_edges: int) -> None:
        partial.stats.add(key, list(samples))
        partial.records[key] = tuple(records)
        partial.program_meta[key] = (n_events, n_edges)
        metrics.n_samples += len(samples)
        metrics.n_events += n_events
        metrics.n_edges += n_edges

    def absorb(index: int, key: str, bundle: GraphBundle,
               fp: Optional[str]) -> None:
        samples = [
            encode_sample(s.feature, s.label, config.feature)
            for s in collect_bundle_samples(
                bundle,
                config.feature,
                config.max_positives_per_graph,
                config.negative_ratio,
                bundle_seed(config.seed, bundle.program.source, index),
            )
        ]
        records = match_records(
            bundle, config.feature, config.max_receiver_distance,
            config.enable_retrecv,
        )
        graph = bundle.graph
        fold(key, samples, records, len(graph.events), graph.edge_count)
        if (cache is not None and fp is not None
                and bundle.program.source is not None):
            # sidecar samples and records so the next warm run needs
            # neither the bundle nor any re-sampling or re-matching
            # (source-less programs are skipped: their sample seed is
            # positional, so the sidecar would not survive reordering)
            cache.store_samples(
                fp, samples, records, len(graph.events), graph.edge_count,
            )

    pending: List[Tuple[int, str, Program, Optional[str]]] = []
    for index, key, program in items:
        fp = program_fingerprint(program) if cache is not None else None
        if cache is not None and program.source is not None:
            side = cache.load_samples(fp)
            if side is not None:
                partial.outcomes.append(ProgramOutcome(
                    key=key, source=program.source, tier=TIER_CACHE,
                    cached=True,
                ))
                fold(key, side.samples, side.records, side.n_events,
                     side.n_edges)
                metrics.n_sample_hits += 1
                continue
        hit = cache.lookup(fp, key) if cache is not None else None
        if hit is None:
            pending.append((index, key, program, fp))
            continue
        if hit.bundle is not None:
            partial.outcomes.append(ProgramOutcome(
                key=key, source=program.source, tier=TIER_CACHE, cached=True,
            ))
            absorb(index, key, hit.bundle, fp)
        else:
            partial.outcomes.append(ProgramOutcome(
                key=key, source=program.source, cached=True,
            ))
            partial.manifest.add(hit.entry)

    if pending:
        runtime = config.runtime
        if runtime.checkpoint_dir:
            # one checkpoint subdirectory per shard: workers never
            # contend on a shared index.json
            runtime = replace(runtime, checkpoint_dir=str(
                Path(runtime.checkpoint_dir) / f"shard-{shard_id:04d}"
            ))
        by_key = {key: (index, fp) for index, key, _, fp in pending}

        def sink(outcome, bundle, entry) -> None:
            index, fp = by_key[outcome.key]
            if bundle is not None:
                if cache is not None:
                    cache.store_bundle(fp, bundle)
                absorb(index, outcome.key, bundle, fp)
            elif entry is not None and cache is not None:
                cache.store_quarantine(fp, entry)
            if not outcome.resumed:
                partial.analyzed_keys.append(outcome.key)

        executor = CorpusExecutor(config.pointsto, config.history, runtime)
        report = executor.run(
            [program for _, _, program, _ in pending],
            keys=[key for _, key, _, _ in pending],
            sink=sink,
            before=before,
        )
        partial.outcomes.extend(report.outcomes)
        partial.manifest.merge(report.manifest)

    metrics.n_programs = len(items)
    metrics.n_analyzed = len(partial.analyzed_keys)
    metrics.n_cached = partial.n_cached
    metrics.n_resumed = partial.n_resumed
    metrics.n_quarantined = len(partial.manifest)
    metrics.n_cache_corrupt = cache.n_corrupt if cache is not None else 0
    metrics.seconds = time.monotonic() - started
    return partial


# ----------------------------------------------------------------------
# supervised runners / splitters / validators (module-level: they cross
# the process boundary by pickle under the spawn start method)


def _supervised_analyze(payload: AnalyzeTask, attempt: int) -> ShardPartial:
    before = payload.chaos.probe(attempt) if payload.chaos is not None \
        else None
    return _analyze_shard(
        payload.config, payload.shard_id, payload.items,
        payload.cache_dir, payload.fingerprint, before=before,
    )


def _split_analyze(payload: AnalyzeTask):
    if len(payload.items) <= 1:
        return None
    mid = len(payload.items) // 2
    return (
        replace(payload, items=payload.items[:mid]),
        replace(payload, items=payload.items[mid:]),
    )


@dataclass(frozen=True)
class TrainTask:
    """One training-reduce payload: a single ensemble's example stream.

    ``key`` is the position key whose ensemble this task trains, or
    None for the shared fallback (which sees every example).  The
    examples arrive already in canonical stream order, so training is
    float-identical to the sequential reduce.
    """

    feature: FeatureConfig
    train: TrainConfig
    n_members: int
    group_id: int
    key: Optional[PositionKey]
    examples: Tuple[SparseExample, ...]

    @property
    def items(self) -> Tuple[SparseExample, ...]:
        # sized like its example stream so adaptive deadlines scale
        # with the actual work (see TaskScheduler._payload_size)
        return self.examples


def _supervised_train(
    payload: TrainTask, attempt: int
) -> Tuple[int, Optional[PositionKey], List[LogisticRegression]]:
    configs = member_configs(payload.train, payload.n_members)
    members = train_members(
        payload.feature.dim, configs, payload.examples
    )
    return payload.group_id, payload.key, members


def _split_train(payload: TrainTask):
    # an ensemble is atomic: its members must see the full example
    # stream, so a failing train task cannot be bisected
    return None


def _poison_train(payload: TrainTask, label: str, error: str):
    # dropping an ensemble would silently change the learned specs, so
    # an unrecoverable training failure is fatal even outside --strict
    what = "fallback" if payload.key is None else f"key {payload.key}"
    raise WorkerCrash(
        f"training task for {what} failed permanently ({label}): {error}"
    )


def _valid_training(result) -> bool:
    return (
        isinstance(result, tuple) and len(result) == 3
        and isinstance(result[0], int)
        and (result[1] is None or isinstance(result[1], tuple))
        and isinstance(result[2], list) and len(result[2]) > 0
        and all(isinstance(m, LogisticRegression) for m in result[2])
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
        the :class:`~repro.mining.partial.MiningReport` (cache hit
        rate, per-shard wall-clock, throughput, failure ledger).
        """
        t0 = time.monotonic()
        jobs = self.mining.resolve_jobs()
        distributed = self.coordinator is not None
        supervised = self.mining.supervised or distributed
        ledger = FailureLedger() if supervised else None
        supervisor = None  # the dispatcher: supervisor or coordinator
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
            supervisor = self.coordinator
        elif supervised:
            # coalescing floor: pack small shard tasks until one frame
            # carries ~a worker's fair share of the corpus, so dispatch
            # round trips scale with jobs, not shards.  Chaos runs keep
            # one task per frame — fault injection (and the tests
            # asserting its exact attempt counts) target single tasks.
            batch = 0
            if self.mining.supervision.chaos is None:
                batch = max(1, -(-len(programs) // jobs))
            # the pool never oversubscribes the host: extra CPU-bound
            # workers on a smaller machine only add fork and timeshare
            # overhead.  Shard count (and therefore results)
            # still follows --jobs — specs are byte-identical for any
            # worker count by construction.  Chaos runs keep the full
            # pool: fault injection targets the requested worker
            # topology (kill one worker, lose one worker's tasks).
            pool_jobs = max(1, min(jobs, os.cpu_count() or jobs))
            if self.mining.supervision.chaos is not None:
                pool_jobs = jobs
            supervisor = ShardSupervisor(
                self.mining.resolve_context(), pool_jobs,
                self.mining.supervision,
                strict=self.config.runtime.strict,
                ledger=ledger,
                batch_programs=batch,
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

        fingerprint = pipeline_fingerprint(self.config)
        store: Optional[StatsStore] = None
        if self.mining.store_dir:
            store = StatsStore(self.mining.store_dir, fingerprint)
        cache_dir = self.mining.cache_dir
        if cache_dir is None and store is not None:
            # analysis results must outlive the run for a crashed run's
            # rerun to reuse them: co-locate the cache with the store
            cache_dir = str(store.cache_dir)
        n_evicted = 0

        # --append: programs already in the store (same content
        # fingerprint) skip analysis entirely — their persisted samples
        # and match records become ready-made shard partials
        fps: Dict[str, str] = {}
        if store is not None:
            fps = {
                key: program_fingerprint(program)
                for _, key, program in units
                if program.source is not None
            }
        store_partials: List[ShardPartial] = []
        if store is not None and self.mining.append and store.programs:
            tasks, store_partials = self._fold_from_store(store, tasks, fps)
        drift: Optional[SpecDrift] = None

        try:
            # phase 1: map-analyze ------------------------------------
            if not tasks:
                partials: List[ShardPartial] = []
            elif supervisor is not None:
                partials = supervisor.run_phase(
                    "analyze",
                    [(sid, AnalyzeTask(self.config, cache_dir,
                                       fingerprint, sid, tuple(items),
                                       self.mining.supervision.chaos))
                     for sid, items in tasks],
                    runner=_supervised_analyze,
                    splitter=_split_analyze,
                    poisoner=self._poison_analyze(cache_dir, fingerprint),
                    validator=_valid_partial,
                )
            else:
                partials = [
                    _analyze_shard(self.config, sid, items, cache_dir,
                                   fingerprint)
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
            if store is not None:
                # journal this run's statistics *before* training: the
                # analysis work is complete and durable even if a later
                # phase crashes
                self._persist_stats(store, units, fps, merged)
            if supervisor is not None and self.mining.parallel_train:
                model = self._parallel_train(supervisor, merged.stats)
            else:
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

            if self.mining.cache_budget is not None and cache_dir:
                n_evicted = AnalysisCache(
                    cache_dir, fingerprint
                ).evict_to_budget(self.mining.cache_budget)
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
            ledger=ledger, n_evicted=n_evicted, supervised=supervised,
            distributed=distributed,
            parallel_train=bool(
                supervised and self.mining.parallel_train
            ),
            cluster=(
                self.coordinator.stats.to_dict() if distributed else None
            ),
            store_generation=store.generation if store is not None else None,
            drift=drift.to_dict() if drift is not None else None,
            cache_dir=cache_dir,
            dispatch=(
                supervisor.dispatch.to_dict()
                if supervisor is not None else None
            ),
        )
        return LearnedSpecs(
            specs, scores, extraction, model, self.config,
            run=run, mining=report,
        )

    # ------------------------------------------------------------------

    def _parallel_train(
        self, dispatcher, stats: SufficientStats
    ) -> EventPairModel:
        """The training reduce as a supervised/distributed phase.

        The canonical seed-shuffled stream is built in the parent, then
        split into one task per position-key ensemble plus one for the
        shared fallback.  Each ensemble depends only on its own
        (stream-ordered) example subsequence and the member seed
        configs, so the reassembled model — and therefore the specs —
        is float-identical to the sequential reduce.
        """
        cfg = self.config
        n_members = EventPairModel(cfg.feature, cfg.train).n_members
        stream = stats.stream(cfg.seed)
        grouped: Dict[PositionKey, List[SparseExample]] = {}
        all_examples: List[SparseExample] = []
        for sample in stream:
            example = (sample.indices, sample.label)
            grouped.setdefault(sample.position_key, []).append(example)
            all_examples.append(example)
        tasks: List[Tuple[int, TrainTask]] = []
        for group_id, (key, examples) in enumerate(sorted(grouped.items())):
            tasks.append((group_id, TrainTask(
                cfg.feature, cfg.train, n_members, group_id, key,
                tuple(examples),
            )))
        tasks.append((len(tasks), TrainTask(
            cfg.feature, cfg.train, n_members, len(tasks), None,
            tuple(all_examples),
        )))
        results = dispatcher.run_phase(
            "train", tasks,
            runner=_supervised_train,
            splitter=_split_train,
            poisoner=_poison_train,
            validator=_valid_training,
        )
        models: Dict[PositionKey, List[LogisticRegression]] = {}
        fallback: List[LogisticRegression] = []
        for _, key, members in results:
            if key is None:
                fallback = members
            else:
                models[key] = members
        return EventPairModel.from_trained(
            cfg.feature, cfg.train, models, fallback, len(stream),
            n_members=n_members,
        )

    # ------------------------------------------------------------------
    # the durable statistics store (--store-dir / --append)

    def _fold_from_store(
        self,
        store: StatsStore,
        tasks: List[Tuple[int, List[Unit]]],
        fps: Dict[str, str],
    ) -> Tuple[List[Tuple[int, List[Unit]]], List[ShardPartial]]:
        """Partition shard tasks into fresh work and store-satisfied work.

        A unit is satisfied from the store when its content fingerprint
        has a journal record, which carries everything the run needs
        from it: samples, match records and graph counts.  Satisfied
        units become ready-made per-shard partials — re-stamped to the
        unit's *current* corpus key, which is sound because persisted
        samples derive from the source name (``bundle_seed``), not the
        corpus position; source-less programs are never stored (their
        key is their position).
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
                for (_, key, program), rec in held:
                    sp.outcomes.append(ProgramOutcome(
                        key=key, source=program.source,
                        tier=TIER_STORE, cached=True,
                    ))
                    sp.stats.add(key, list(rec.samples))
                    sp.records[key] = tuple(rec.records)
                    sp.program_meta[key] = (rec.n_events, rec.n_edges)
                    metrics.n_programs += 1
                    metrics.n_cached += 1
                    metrics.n_from_store += 1
                    metrics.n_samples += len(rec.samples)
                    metrics.n_events += rec.n_events
                    metrics.n_edges += rec.n_edges
                store_partials.append(sp)
            if fresh:
                remaining.append((sid, fresh))
        return remaining, store_partials

    def _persist_stats(
        self,
        store: StatsStore,
        units: Sequence[Unit],
        fps: Dict[str, str],
        merged: ShardPartial,
    ) -> None:
        """Journal this run's per-program statistics (and retirements).

        A program's record carries its samples and its match records.

        Only programs that produced statistics are stored (quarantined
        ones re-attempt next run); a record whose fingerprint and key
        both match the store is already durable and is not rewritten.
        Fingerprints absent from the current corpus are retired.
        """
        live = set()
        for _, key, program in units:
            fp = fps.get(key)
            if fp is None:
                continue  # anonymous: position-dependent, never stored
            live.add(fp)
            if key not in merged.stats.blocks:
                continue  # quarantined / no bundle: nothing durable
            rec = store.get(fp)
            if rec is not None and rec.key == key:
                continue
            meta = merged.program_meta.get(key, (0, 0))
            store.put_program(StoredProgram(
                fingerprint=fp,
                key=key,
                source=program.source,
                samples=tuple(merged.stats.blocks[key]),
                n_events=meta[0],
                n_edges=meta[1],
                records=merged.records.get(key, ()),
            ))
        stale = [fp for fp in store.programs if fp not in live]
        store.retire(stale)

    # ------------------------------------------------------------------

    def _poison_analyze(self, cache_dir: Optional[str], fingerprint: str):
        def poison(payload: AnalyzeTask, label: str, error: str):
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
            if cache_dir:
                AnalysisCache(cache_dir, fingerprint).store_quarantine(
                    program_fingerprint(program), entry
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

        return poison

    def _report(
        self,
        jobs: int,
        n_shards: int,
        merged: ShardPartial,
        t0: float, t1: float, t2: float, t3: float,
        ledger: Optional[FailureLedger] = None,
        n_evicted: int = 0,
        supervised: bool = False,
        distributed: bool = False,
        parallel_train: bool = False,
        cluster: Optional[Dict[str, object]] = None,
        store_generation: Optional[int] = None,
        drift: Optional[Dict[str, object]] = None,
        cache_dir: Optional[str] = None,
        dispatch: Optional[Dict[str, object]] = None,
    ) -> MiningReport:
        def total(attr: str) -> int:
            return sum(getattr(m, attr) for m in merged.metrics)

        return MiningReport(
            jobs=jobs,
            n_shards=n_shards,
            n_programs=merged.n_programs,
            n_analyzed=merged.n_analyzed,
            n_cached=merged.n_cached,
            n_resumed=merged.n_resumed,
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
            cache_dir=cache_dir,
            ledger=ledger,
            n_evicted=n_evicted,
            supervised=supervised,
            distributed=distributed,
            parallel_train=parallel_train,
            cluster=cluster,
            n_from_store=total("n_from_store"),
            n_cache_corrupt=total("n_cache_corrupt"),
            store_generation=store_generation,
            drift=drift,
            dispatch=dispatch,
            n_sample_hits=total("n_sample_hits"),
        )


def learn_sharded(
    programs: Sequence[Program],
    config: Optional[PipelineConfig] = None,
    mining: Optional[MiningConfig] = None,
    coordinator: Optional["Coordinator"] = None,
) -> LearnedSpecs:
    """Convenience wrapper: one-call sharded learning."""
    return MiningEngine(config, mining, coordinator).learn(programs)

"""Fault-tolerant shard supervision for the mining engine.

PR 2's engine fanned shard tasks to a bare ``multiprocessing.Pool``:
one worker that segfaults, hangs, or gets OOM-killed took the whole
``uspec learn`` run with it.  :class:`ShardSupervisor` replaces that
fan-out with a watchdog dispatcher built from a pool of **persistent
worker processes** (one per job slot, respawned on death):

* **liveness + deadlines** — every worker runs a task loop over a
  duplex pipe; a process that dies without reporting (EOF on the
  pipe) is a *crash* and its slot is respawned, one that outlives the
  shard wall-clock deadline is *terminated* and recorded as a
  *timeout*, and a result that does not decode to the expected shape
  is *corrupt*;
* **bounded retries with exponential backoff** — a failed task is
  re-queued with a deterministic backoff schedule (``base × factor^n``,
  capped); backoff is implemented as a not-before timestamp so the
  supervisor keeps dispatching other work while a retry cools down;
* **poison-shard bisection** — a task that exhausts its retries is
  split in half and both halves re-enter the queue with fresh retry
  budgets; recursion isolates the toxic program in O(log shard)
  rounds, at which point the singleton is *poisoned*: quarantined with
  a ``worker-crash``/``worker-timeout`` taxonomy label (flowing into
  the quarantine manifest and the durable store, so it is never
  re-attempted) while every other program's results are kept;
* **failure ledger** — the complete per-task attempt history (retries,
  bisections, stragglers, backoff) is recorded in a
  :class:`FailureLedger` and merged into the
  :class:`~repro.mining.partial.MiningReport`.

Determinism: supervision changes *scheduling*, never *results*.  A
killed attempt contributes nothing (workers never write to disk; the
parent persists each result as it settles), a retried attempt
recomputes the same per-program values, and bisected halves produce the
same mergeable partials the whole shard would have — so specs and
manifest stay byte-identical with worker faults on or off, for any
``--jobs`` and ``--shards``, modulo the quarantined toxic programs.

``strict=True`` keeps fail-fast semantics: a typed error shipped back
by a worker re-raises in the parent with its type intact (``--strict``
budget blow-ups still exit with code 3), and crash/timeout exhaustion
raises :class:`~repro.runtime.errors.WorkerCrash` /
:class:`~repro.runtime.errors.WorkerTimeout` instead of bisecting.
"""

from __future__ import annotations

import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.runtime.errors import (
    WORKER_CRASH,
    WORKER_TIMEOUT,
    WorkerCrash,
    WorkerTimeout,
)

#: attempt outcomes recorded in the ledger
OUTCOME_OK = "ok"
OUTCOME_CRASH = "crash"  # worker died without reporting (EOF on pipe)
OUTCOME_TIMEOUT = "timeout"  # watchdog reclaimed the worker at the deadline
OUTCOME_CORRUPT = "corrupt"  # worker reported, but the payload is garbage
OUTCOME_ERROR = "error"  # worker shipped a typed exception back

#: supervisor poll granularity (seconds); bounds how stale the deadline
#: watchdog can be when no pipe activity wakes it earlier
_POLL_SECONDS = 0.25


@dataclass(frozen=True)
class SupervisionConfig:
    """Retry/deadline/bisection policy of one supervised mining run."""

    #: retries per task before bisection (strict mode: before raising)
    max_retries: int = 2
    #: wall-clock seconds one shard-task attempt may run; None = no
    #: watchdog (hung workers are then only reclaimable by the user)
    shard_deadline: Optional[float] = None
    #: derive the effective per-attempt deadline from observed
    #: per-program analysis times (p95 × slack × task size) once enough
    #: OK attempts have been seen; ``shard_deadline`` stays as the
    #: floor, so slow-but-healthy shards are not killed as hangs
    adaptive_deadline: bool = False
    #: adaptive deadline = p95(per-program seconds) × slack × n_programs
    deadline_slack: float = 8.0
    #: OK attempts observed before the adaptive estimate kicks in
    deadline_min_samples: int = 3
    #: exponential backoff schedule: base × factor^(attempt-1), capped
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: an OK attempt slower than this fraction of the deadline is
    #: counted as a straggler in the ledger
    straggler_fraction: float = 0.5

    def backoff(self, attempt: int) -> float:
        """Cooldown before retry ``attempt`` (1-based) of a task."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )

    @property
    def wants_supervision(self) -> bool:
        """True if this config only makes sense with worker processes.

        A deadline needs a watchdog outside the worker, so it forces
        the engine onto the supervised path even for ``--jobs 1`` (as
        worker faults in the armed plan do).
        """
        return self.shard_deadline is not None or self.adaptive_deadline


class DeadlineTracker:
    """Adaptive per-attempt deadlines from observed analysis times.

    A fixed ``--shard-deadline`` mistakes slow-but-healthy shards for
    hangs: shard wall-clock scales with shard size and per-program
    cost, neither of which the flag knows.  The tracker records the
    per-program seconds of every OK attempt and, once
    ``deadline_min_samples`` have been seen, derives the allowance for
    a task of ``n`` programs as ``p95 × deadline_slack × n``.  The
    fixed flag survives as a *floor* (and as the whole policy until
    the estimate warms up), so a hang is always reclaimable even on
    the first wave of tasks.

    Shared by the in-process :class:`ShardSupervisor` and the
    :class:`repro.dist.coordinator.Coordinator` — both observe through
    the same instance per run, so remote and local attempts pool their
    evidence.
    """

    def __init__(self, supervision: SupervisionConfig) -> None:
        self.supervision = supervision
        self.samples: List[float] = []

    def observe(self, seconds: float, n_programs: int) -> None:
        """Record one OK attempt's per-program wall-clock."""
        if self.supervision.adaptive_deadline and seconds >= 0:
            self.samples.append(seconds / max(1, n_programs))

    def effective(self, n_programs: int) -> Optional[float]:
        """The deadline for a task of ``n_programs``, or None."""
        fixed = self.supervision.shard_deadline
        if (not self.supervision.adaptive_deadline
                or len(self.samples) < max(
                    1, self.supervision.deadline_min_samples)):
            return fixed
        ordered = sorted(self.samples)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        candidate = (p95 * self.supervision.deadline_slack
                     * max(1, n_programs))
        return candidate if fixed is None else max(fixed, candidate)


# ----------------------------------------------------------------------
# failure ledger


@dataclass
class AttemptRecord:
    """One launch of one task."""

    attempt: int
    outcome: str
    seconds: float = 0.0
    error: Optional[str] = None
    straggler: bool = False

    def to_dict(self, timings: bool = True) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "straggler": self.straggler,
        }
        if timings:
            payload["seconds"] = round(self.seconds, 6)
        return payload


@dataclass
class TaskRecord:
    """The full supervision history of one (possibly bisected) task.

    ``task_id`` encodes the bisection lineage: shard 3 splits into
    ``3.0`` and ``3.1``, which may split again (``3.1.0`` …) until a
    singleton is isolated.
    """

    task_id: str
    shard_id: int
    phase: str
    n_programs: int
    attempts: List[AttemptRecord] = field(default_factory=list)
    bisected: bool = False
    poisoned: Optional[str] = None  # taxonomy label of the isolated toxin

    @property
    def n_failures(self) -> int:
        return sum(1 for a in self.attempts if a.outcome != OUTCOME_OK)

    def to_dict(self, timings: bool = True) -> Dict[str, object]:
        return {
            "task_id": self.task_id,
            "shard_id": self.shard_id,
            "phase": self.phase,
            "n_programs": self.n_programs,
            "bisected": self.bisected,
            "poisoned": self.poisoned,
            "attempts": [a.to_dict(timings) for a in self.attempts],
        }


@dataclass
class FailureLedger:
    """Everything the supervisor had to do beyond a clean dispatch."""

    tasks: List[TaskRecord] = field(default_factory=list)

    def record(self, record: TaskRecord) -> TaskRecord:
        self.tasks.append(record)
        return record

    def _count(self, outcome: str) -> int:
        return sum(
            1 for t in self.tasks for a in t.attempts if a.outcome == outcome
        )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_attempts(self) -> int:
        return sum(len(t.attempts) for t in self.tasks)

    @property
    def n_retries(self) -> int:
        """Re-launches of the *same* task (excludes bisection children)."""
        return sum(max(0, len(t.attempts) - 1) for t in self.tasks)

    @property
    def n_worker_crashes(self) -> int:
        return self._count(OUTCOME_CRASH)

    @property
    def n_worker_timeouts(self) -> int:
        return self._count(OUTCOME_TIMEOUT)

    @property
    def n_corrupt_results(self) -> int:
        return self._count(OUTCOME_CORRUPT)

    @property
    def n_worker_errors(self) -> int:
        return self._count(OUTCOME_ERROR)

    @property
    def n_bisections(self) -> int:
        return sum(1 for t in self.tasks if t.bisected)

    @property
    def n_poisoned(self) -> int:
        return sum(1 for t in self.tasks if t.poisoned is not None)

    @property
    def n_stragglers(self) -> int:
        return sum(
            1 for t in self.tasks for a in t.attempts if a.straggler
        )

    @property
    def clean(self) -> bool:
        return self.n_attempts == self.n_tasks and self.n_failures == 0

    @property
    def n_failures(self) -> int:
        return sum(t.n_failures for t in self.tasks)

    def to_dict(self, timings: bool = True) -> Dict[str, object]:
        """Deterministic dict: counters plus only the *troubled* tasks.

        Clean single-attempt tasks are summarised by the counters; the
        per-attempt trail is kept only where something went wrong, so
        ledgers stay small on healthy runs of many shards.
        """
        troubled = sorted(
            (t for t in self.tasks
             if t.bisected or t.poisoned or t.n_failures
             or any(a.straggler for a in t.attempts)),
            key=lambda t: (t.phase, t.shard_id, t.task_id),
        )
        return {
            "n_tasks": self.n_tasks,
            "n_attempts": self.n_attempts,
            "n_retries": self.n_retries,
            "n_worker_crashes": self.n_worker_crashes,
            "n_worker_timeouts": self.n_worker_timeouts,
            "n_corrupt_results": self.n_corrupt_results,
            "n_worker_errors": self.n_worker_errors,
            "n_bisections": self.n_bisections,
            "n_poisoned": self.n_poisoned,
            "n_stragglers": self.n_stragglers,
            "tasks": [t.to_dict(timings) for t in troubled],
        }

    def __repr__(self) -> str:
        return (
            f"<FailureLedger {self.n_tasks} tasks / {self.n_attempts} "
            f"attempts: {self.n_retries} retries, "
            f"{self.n_bisections} bisections, {self.n_poisoned} poisoned>"
        )


# ----------------------------------------------------------------------
# worker side

#: the running job's channel to its parent (per thread: loopback
#: clusters run several workers as threads of one process)
_channel = threading.local()


@contextmanager
def interim_channel(send: Callable[[object], None]) -> Iterator[None]:
    """Route :func:`send_interim` through ``send`` while jobs run."""
    _channel.send = send
    try:
        yield
    finally:
        _channel.send = None


def send_interim(item: object) -> None:
    """Hand ``item`` to the parent's ``on_interim`` hook now, ahead of
    the running job's reply (a no-op outside a pool or dist worker)."""
    send = getattr(_channel, "send", None)
    if send is not None:
        send(item)


def _run_job(runner, payload, attempt: int) -> Tuple:
    """Execute one task attempt; fold the outcome into a pipe message.

    The protocol back to the supervisor is one reply per job, after
    any interim messages the job sent: ``("ok", result)``, or
    ``("error", exc)`` with the typed exception (downgraded to a
    ``RuntimeError`` if unpicklable).  The *absence* of a message when
    the process dies is a supervision failure, not a result.
    """
    try:
        return ("ok", runner(payload, attempt))
    except BaseException as err:  # ships typed errors to the parent
        try:
            pickle.dumps(err)
            return ("error", err)
        except Exception:
            return ("error", RuntimeError(f"{type(err).__name__}: {err}"))


def _pool_main(conn, inherited: Sequence = ()) -> None:
    """Task loop of one persistent pool worker (runs in the child).

    Jobs arrive over the duplex pipe either as one ``(runner, payload,
    attempt)`` tuple (the original protocol, still spoken by
    :mod:`repro.serve.pool`) or as a coalesced ``("jobs", runner,
    [(payload, attempt), ...])`` frame, answered with a list of one
    message per entry; ``None`` is the shutdown sentinel.  A running
    job may precede its reply with ``("interim", item)`` messages
    (:func:`send_interim`).  The process persists across jobs and
    phases.  ``inherited`` are the parent's pipe ends a forked worker
    holds copies of; closing them lets a parent killed outright read as
    EOF (or a broken pipe) here, so the worker exits with it.
    """
    for end in inherited:
        end.close()
    # the process runs nothing but pool jobs: the channel stays set
    _channel.send = lambda item: conn.send(("interim", item))
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return  # parent gone
        if job is None:
            return
        if isinstance(job, tuple) and job and job[0] == "jobs":
            _, runner, entries = job
            message: object = [
                _run_job(runner, payload, attempt)
                for payload, attempt in entries
            ]
        else:
            runner, payload, attempt = job
            message = _run_job(runner, payload, attempt)
        try:
            conn.send(message)
        except (BrokenPipeError, EOFError, OSError):
            return
        except Exception as err:
            # unpicklable result: report instead of dying silently
            fallback: object = ("error", RuntimeError(
                f"unpicklable result: {err}"
            ))
            if isinstance(message, list):
                fallback = [fallback] * len(message)
            try:
                conn.send(fallback)
            except Exception:
                return


# ----------------------------------------------------------------------
# parent side


@dataclass
class DispatchStats:
    """Cheap per-run dispatch instrumentation of one supervisor.

    Every counter is incremented on the parent side of the pipe, so
    the numbers attribute *supervision overhead* (round trips, frame
    serialisation, result revalidation, queue scans) separately from
    the work the shards themselves do.  Folded into the
    :class:`~repro.mining.partial.MiningReport` as ``dispatch``.
    """

    #: worker round trips (frames sent), vs tasks those frames carried
    n_round_trips: int = 0
    n_tasks_dispatched: int = 0
    #: frames that coalesced >1 task / tasks riding such frames
    n_batches: int = 0
    n_tasks_batched: int = 0
    #: pipe traffic, parent-side (task frames out, result frames in)
    bytes_sent: int = 0
    bytes_received: int = 0
    #: parent-side pickle/unpickle wall-clock
    seconds_serialize: float = 0.0
    seconds_deserialize: float = 0.0
    #: result-shape revalidations run vs skipped on the warm batch path
    n_validations: int = 0
    n_validations_skipped: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_round_trips": self.n_round_trips,
            "n_tasks_dispatched": self.n_tasks_dispatched,
            "n_batches": self.n_batches,
            "n_tasks_batched": self.n_tasks_batched,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "seconds_serialize": round(self.seconds_serialize, 6),
            "seconds_deserialize": round(self.seconds_deserialize, 6),
            "n_validations": self.n_validations,
            "n_validations_skipped": self.n_validations_skipped,
        }


@dataclass
class _Task:
    """One schedulable unit: a payload plus its supervision state."""

    task_id: str
    shard_id: int
    payload: object
    record: TaskRecord
    attempt: int = 0
    ready_at: float = 0.0
    seq: int = 0  # launch-order tiebreak


@dataclass
class _PoolWorker:
    """One persistent slot of the local worker pool."""

    slot: int
    process: object
    conn: object
    #: the in-flight frame: one task, or several coalesced into one
    #: round trip (None when idle)
    current: Optional[List[_Task]] = None
    started: float = 0.0
    deadline: Optional[float] = None
    allowed: Optional[float] = None  # the deadline in relative seconds

    @property
    def idle(self) -> bool:
        return self.current is None


class TaskScheduler:
    """Shared retry / bisection / poison policy of one mining run.

    The in-process :class:`ShardSupervisor` and the socket-based
    :class:`repro.dist.coordinator.Coordinator` differ in *where*
    attempts run (local worker processes vs remote worker daemons) but
    not in *what happens when one fails*: bounded retries with
    deterministic backoff, poison-shard bisection down to a singleton,
    quarantine of the isolated toxin, strict-mode fail-fast, and a
    shared :class:`FailureLedger`.  That policy lives here so both
    dispatchers stay byte-identical in their failure semantics.
    """

    def __init__(
        self,
        supervision: Optional[SupervisionConfig] = None,
        *,
        strict: bool = False,
        ledger: Optional[FailureLedger] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.supervision = supervision or SupervisionConfig()
        self.strict = strict
        self.ledger = ledger if ledger is not None else FailureLedger()
        self._clock = clock
        self._seq = 0
        self._deadlines = DeadlineTracker(self.supervision)
        self.dispatch = DispatchStats()
        #: the running phase's ``on_interim`` hook: items a worker sent
        #: with :func:`send_interim` while its task still runs
        self._on_interim: Optional[Callable[[object], None]] = None

    # ------------------------------------------------------------------

    def _make_task(
        self, task_id: str, shard_id: int, phase: str, payload: object
    ) -> _Task:
        self._seq += 1
        record = self.ledger.record(TaskRecord(
            task_id=task_id, shard_id=shard_id, phase=phase,
            n_programs=self._payload_size(payload),
        ))
        return _Task(
            task_id=task_id, shard_id=shard_id, payload=payload,
            record=record, seq=self._seq,
        )

    @staticmethod
    def _pop_ready(queue: List[_Task], now: float) -> Optional[_Task]:
        """Pop the oldest ready task (``queue`` sorted by ready time)."""
        if not queue or queue[0].ready_at > now:
            return None
        return queue.pop(0)

    @staticmethod
    def _payload_size(payload: object) -> int:
        items = getattr(payload, "items", None)
        try:
            return len(items) if items is not None else 1
        except TypeError:
            return 1

    def _failed(
        self,
        task: _Task,
        outcome: str,
        error: str,
        seconds: float,
        now: float,
        queue: List[_Task],
        results: List[object],
        splitter,
        poisoner,
        recorded: bool = False,
    ) -> None:
        """Retry, bisect, or poison a task whose attempt just failed."""
        if not recorded:
            task.record.attempts.append(AttemptRecord(
                attempt=task.attempt, outcome=outcome,
                seconds=seconds, error=error,
            ))
        if task.attempt < self.supervision.max_retries:
            task.attempt += 1
            task.ready_at = now + self.supervision.backoff(task.attempt)
            queue.append(task)
            return
        if self.strict:
            cls = WorkerTimeout if outcome == OUTCOME_TIMEOUT else WorkerCrash
            raise cls(
                f"task {task.task_id} ({task.record.phase}) failed "
                f"{task.attempt + 1} attempt(s): {error}"
            )
        halves = splitter(task.payload)
        if halves is None:
            # the toxic program is isolated: quarantine, keep the rest
            label = WORKER_TIMEOUT if outcome == OUTCOME_TIMEOUT \
                else WORKER_CRASH
            task.record.poisoned = label
            results.append(poisoner(task.payload, label, error))
            return
        task.record.bisected = True
        for half_index, half in enumerate(halves):
            child = self._make_task(
                f"{task.task_id}.{half_index}", task.shard_id,
                task.record.phase, half,
            )
            child.ready_at = now
            queue.append(child)


class ShardSupervisor(TaskScheduler):
    """Watchdog dispatcher for one mining run's shard tasks.

    One instance supervises a mining run's analyse phase and
    accumulates its history in a shared :class:`FailureLedger`.  The
    worker pool is lazily spawned on the first phase and persists
    across phases; callers must
    :meth:`close` the supervisor when the run ends.  ``clock`` is
    injectable for tests and must be monotone.
    """

    def __init__(
        self,
        ctx,
        jobs: int,
        supervision: Optional[SupervisionConfig] = None,
        *,
        strict: bool = False,
        ledger: Optional[FailureLedger] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        batch_programs: int = 0,
    ) -> None:
        super().__init__(supervision, strict=strict, ledger=ledger,
                         clock=clock)
        self.ctx = ctx
        self.jobs = max(1, jobs)
        self._sleep = sleep
        self._workers: List[_PoolWorker] = []
        #: coalescing floor: first-attempt tasks are packed into one
        #: round trip until the frame carries at least this many
        #: programs (0 disables batching; the engine passes 0 whenever
        #: the armed plan has worker faults, so a fault still sees one
        #: task per frame)
        self.batch_programs = max(0, batch_programs)

    # ------------------------------------------------------------------
    # pool lifecycle

    def _spawn_worker(self, slot: int) -> _PoolWorker:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        inherited: Tuple = ()
        if self.ctx.get_start_method() == "fork":
            inherited = (parent_conn, *(w.conn for w in self._workers))
        process = self.ctx.Process(
            target=_pool_main, args=(child_conn, inherited), daemon=True,
        )
        process.start()
        child_conn.close()
        return _PoolWorker(
            slot=slot, process=process, conn=parent_conn,
        )

    def _ensure_pool(self) -> None:
        while len(self._workers) < self.jobs:
            self._workers.append(self._spawn_worker(len(self._workers)))

    def _replace_worker(self, worker: _PoolWorker) -> None:
        """Respawn one slot after its process died or was killed."""
        try:
            worker.conn.close()
        except Exception:
            pass
        self._kill_process(worker)
        self._workers[worker.slot] = self._spawn_worker(worker.slot)

    def close(self) -> None:
        """Tear the pool down (shutdown sentinel, then force-kill)."""
        for worker in self._workers:
            if worker.idle:
                try:
                    worker.conn.send(None)
                except Exception:
                    pass
        for worker in self._workers:
            try:
                worker.process.join(timeout=2.0)
            except Exception:
                pass
            self._kill_process(worker)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []

    # ------------------------------------------------------------------

    def run_phase(
        self,
        phase: str,
        tasks: Sequence[Tuple[int, object]],
        *,
        runner: Callable,
        splitter: Callable[[object], Optional[Tuple[object, object]]],
        poisoner: Callable[[object, str, str], object],
        validator: Callable[[object], bool],
        on_interim: Optional[Callable[[object], None]] = None,
    ) -> List[object]:
        """Dispatch ``tasks`` (``(shard_id, payload)``) under supervision.

        ``runner(payload, attempt)`` is the module-level function the
        worker process executes (module-level so it pickles under any
        start method).  ``splitter(payload)`` returns two halves for
        bisection, or None for an unsplittable singleton.
        ``poisoner(payload, outcome, error)`` converts an isolated
        toxic singleton into a phase result (quarantine entry + empty
        partial); it runs in the parent, so it may close over engine
        state.  ``validator(result)`` rejects corrupt result payloads.
        ``on_interim(item)`` runs in the parent for each item a worker
        sends with :func:`send_interim` while its task is still in
        flight, even if that attempt later fails.

        Returns one result per surviving leaf task, in no particular
        order — callers merge through the order-insensitive partials.
        """
        queue: List[_Task] = [
            self._make_task(str(shard_id), shard_id, phase, payload)
            for shard_id, payload in tasks
        ]
        results: List[object] = []
        self._on_interim = on_interim
        self._ensure_pool()
        try:
            while queue or any(not w.idle for w in self._workers):
                now = self._clock()
                self._launch_ready(queue, results, runner, now,
                                   splitter, poisoner)
                timeout = self._wait_timeout(queue, now)
                conns = [w.conn for w in self._workers]
                if conns:
                    ready = connection_wait(conns, timeout=timeout)
                elif timeout:
                    ready = []
                    self._sleep(timeout)
                else:
                    ready = []
                now = self._clock()
                for conn in ready:
                    self._handle_event(
                        conn, queue, results, now,
                        splitter, poisoner, validator,
                    )
                self._reap_deadlines(
                    queue, results, splitter, poisoner, validator,
                )
        except BaseException:
            # a strict-mode raise (or KeyboardInterrupt) can leave
            # workers mid-task; their stale results must not leak into
            # a later phase, so the pool dies with the phase
            self.close()
            raise
        finally:
            self._on_interim = None
        return results

    # ------------------------------------------------------------------

    def _coalesce(
        self, batch: List[_Task], queue: List[_Task], now: float,
    ) -> None:
        """Pack more small first-attempt tasks into one worker frame.

        Greedy over the (sorted) ready queue until the frame carries at
        least ``batch_programs`` programs.  Only clean first attempts
        ride along — retries keep their own frame so failures stay
        attributable.
        """
        total = self._payload_size(batch[0].payload)
        i = 0
        while total < self.batch_programs and i < len(queue):
            task = queue[i]
            if task.ready_at > now:
                break  # sorted: nothing ready past this point
            if task.attempt == 0:
                queue.pop(i)
                batch.append(task)
                total += self._payload_size(task.payload)
            else:
                i += 1

    def _launch_ready(
        self,
        queue: List[_Task],
        results: List[object],
        runner: Callable,
        now: float,
        splitter,
        poisoner,
    ) -> None:
        queue.sort(key=lambda t: (t.ready_at, t.seq))
        for worker in list(self._workers):
            if not worker.idle or not queue:
                continue
            task = self._pop_ready(queue, now)
            if task is None:
                break  # nothing ready yet (backoff cooldowns)
            batch = [task]
            if self.batch_programs > 0 and task.attempt == 0:
                self._coalesce(batch, queue, now)
            if len(batch) == 1:
                frame: object = (runner, task.payload, task.attempt)
            else:
                frame = ("jobs", runner,
                         [(t.payload, t.attempt) for t in batch])
            t0 = time.perf_counter()
            data = pickle.dumps(frame)
            self.dispatch.seconds_serialize += time.perf_counter() - t0
            try:
                # send_bytes of our own pickle: same wire format as
                # conn.send, but the byte count becomes observable
                worker.conn.send_bytes(data)
            except (OSError, ValueError):
                # the worker died idle; replace the slot and put the
                # tasks back untouched (the attempt never started)
                for t in batch:
                    t.ready_at = now
                    queue.append(t)
                queue.sort(key=lambda t: (t.ready_at, t.seq))
                self._replace_worker(worker)
                continue
            self.dispatch.n_round_trips += 1
            self.dispatch.n_tasks_dispatched += len(batch)
            self.dispatch.bytes_sent += len(data)
            if len(batch) > 1:
                self.dispatch.n_batches += 1
                self.dispatch.n_tasks_batched += len(batch)
            allowed = self._deadlines.effective(sum(
                self._payload_size(t.payload) for t in batch
            ))
            worker.current = batch
            worker.started = now
            worker.allowed = allowed
            worker.deadline = (
                (now + allowed) if allowed is not None else None
            )

    def _wait_timeout(
        self,
        queue: List[_Task],
        now: float,
    ) -> Optional[float]:
        horizons = [_POLL_SECONDS]
        horizons += [
            w.deadline - now for w in self._workers
            if w.deadline is not None and not w.idle
        ]
        if queue and any(w.idle for w in self._workers):
            horizons.append(queue[0].ready_at - now)
        return max(0.0, min(horizons))

    # ------------------------------------------------------------------

    def _worker_for(self, conn) -> Optional[_PoolWorker]:
        for worker in self._workers:
            if worker.conn is conn:
                return worker
        return None

    def _handle_event(
        self,
        conn,
        queue: List[_Task],
        results: List[object],
        now: float,
        splitter,
        poisoner,
        validator,
    ) -> None:
        worker = self._worker_for(conn)
        if worker is None:
            return
        batch = worker.current
        seconds = now - worker.started
        try:
            buf = conn.recv_bytes()
        except (EOFError, OSError):
            buf = None
        if buf is None:
            # the process died: reap it for its exit code, respawn the
            # slot, and fail the in-flight tasks (if any) as crashes
            self._kill_process(worker)
            exitcode = worker.process.exitcode
            self._replace_worker(worker)
            for task in batch or ():
                self._failed(
                    task, OUTCOME_CRASH,
                    f"worker died without reporting (exit code {exitcode})",
                    seconds, now, queue, results, splitter, poisoner,
                )
            return
        self.dispatch.bytes_received += len(buf)
        t0 = time.perf_counter()
        try:
            message: object = pickle.loads(buf)
        except Exception:
            message = ("undecodable-frame",)
        self.dispatch.seconds_deserialize += time.perf_counter() - t0
        if batch is None:
            return  # stray frame from an idle worker: ignore
        if isinstance(message, tuple) and message[:1] == ("interim",):
            # the frame is still running; its reply comes later
            if self._on_interim is not None:
                self._on_interim(message[1])
            return
        worker.current = None
        worker.deadline = None
        if len(batch) == 1:
            replies: List[object] = [message]
        elif isinstance(message, list) and len(message) == len(batch):
            replies = message
        else:
            # a batched frame must answer with one message per task
            replies = [("batch-shape-mismatch",)] * len(batch)
        straggler = bool(
            worker.allowed is not None
            and seconds > self.supervision.straggler_fraction
            * worker.allowed
        )
        any_ok = False
        for index, (task, reply) in enumerate(zip(batch, replies)):
            any_ok |= self._settle(
                task, reply, index, seconds, straggler,
                now, queue, results, splitter, poisoner, validator,
            )
        if any_ok:
            self._deadlines.observe(seconds, sum(
                self._payload_size(t.payload) for t in batch
            ))

    def _settle(
        self,
        task: _Task,
        reply: object,
        index: int,
        seconds: float,
        straggler: bool,
        now: float,
        queue: List[_Task],
        results: List[object],
        splitter,
        poisoner,
        validator,
    ) -> bool:
        """Fold one task's reply into results/retries; True on OK.

        ``index`` is the task's position in its frame: the first reply
        of every frame is shape-revalidated, later ones skip the
        validator on the warm path — they were produced by the same
        healthy worker in the same round trip, so one validation
        vouches for the frame (strict mode keeps validating every
        reply; runs with worker faults send one task per frame).
        """
        if (isinstance(reply, tuple) and len(reply) == 2
                and reply[0] == "ok"):
            if index == 0 or self.strict:
                self.dispatch.n_validations += 1
                valid = validator(reply[1])
            else:
                self.dispatch.n_validations_skipped += 1
                valid = True
            if valid:
                task.record.attempts.append(AttemptRecord(
                    attempt=task.attempt, outcome=OUTCOME_OK,
                    seconds=seconds, straggler=straggler,
                ))
                results.append(reply[1])
                return True
        elif (isinstance(reply, tuple) and len(reply) == 2
                and reply[0] == "error"
                and isinstance(reply[1], BaseException)):
            err = reply[1]
            task.record.attempts.append(AttemptRecord(
                attempt=task.attempt, outcome=OUTCOME_ERROR,
                seconds=seconds, error=f"{type(err).__name__}: {err}",
            ))
            if self.strict:
                # fail fast with the worker's typed error intact
                # (exit codes 3/4 survive supervision)
                raise err
            self._failed(
                task, OUTCOME_ERROR, f"{type(err).__name__}: {err}",
                seconds, now, queue, results, splitter, poisoner,
                recorded=True,
            )
            return False
        self._failed(
            task, OUTCOME_CORRUPT,
            "worker result failed validation (corrupt payload)",
            seconds, now, queue, results, splitter, poisoner,
        )
        return False

    def _reap_deadlines(
        self,
        queue: List[_Task],
        results: List[object],
        splitter,
        poisoner,
        validator,
    ) -> None:
        now = self._clock()
        for worker in list(self._workers):
            if (worker.idle or worker.deadline is None
                    or now < worker.deadline):
                continue
            if worker.conn.poll():
                # the result raced the deadline: results win
                self._handle_event(
                    worker.conn, queue, results, self._clock(),
                    splitter, poisoner, validator,
                )
                continue
            batch = worker.current
            allowed = worker.allowed
            started = worker.started
            self._replace_worker(worker)
            for task in batch or ():
                self._failed(
                    task, OUTCOME_TIMEOUT,
                    f"shard deadline of {allowed:g}s exceeded",
                    now - started, now, queue, results,
                    splitter, poisoner,
                )

    # ------------------------------------------------------------------

    @staticmethod
    def _kill_process(worker: _PoolWorker) -> None:
        try:
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
        except Exception:
            pass

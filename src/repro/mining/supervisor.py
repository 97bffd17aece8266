"""Fault-tolerant task dispatch for the mining engine.

PR 2's engine fanned shard tasks to a bare ``multiprocessing.Pool``:
one worker that segfaults, hangs, or gets OOM-killed took the whole
``uspec learn`` run with it.  :class:`TaskScheduler` replaces that
fan-out with one watchdog loop over workers that all speak one wire
(pickled frames on a :class:`multiprocessing.connection.Connection`).
A worker is *spawned* (a local process running :func:`_pool_main`,
killed and respawned when it dies) or *accepted* by a
:class:`~repro.dist.coordinator.Coordinator` (a ``uspec worker``
daemon holding a heartbeat lease); nothing else differs by kind:

* **liveness + deadlines** — EOF, or a frame that is oversized or not
  a pickle, drops the worker and fails its frame's tasks as *crashes*;
  a worker that outlives the shard deadline (or its lease) is dropped
  and its tasks fail as *timeouts*; a result that does not decode to
  the expected shape is *corrupt*.  Unread data is read before a
  deadline expires, and a frame whose send fails goes back untouched;
* **bounded retries with exponential backoff** — a failed task is
  re-queued with a deterministic backoff schedule (``base × factor^n``,
  capped); backoff is implemented as a not-before timestamp so the
  scheduler keeps dispatching other work while a retry cools down;
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

A task runs in at most one frame at a time, and an attempt that runs
too long has one rule: the shard deadline (or the lease) reclaims it
and the task goes down retry → bisect → poison.  A frame still in
flight when its phase ends (only after a raise) stays on its worker,
and its late reply and interims are dropped, so they can never settle
a later phase's task.

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

#: scheduler poll granularity (seconds); bounds how stale the lease and
#: deadline sweep can be when no worker activity wakes it earlier
_POLL_SECONDS = 0.25

#: sanity bound on one frame (a shard task over a huge corpus slice
#: stays far below this; anything larger is a framing bug, not data)
MAX_FRAME_BYTES = 1 << 30


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

    Each :class:`TaskScheduler` owns one, so every phase of a run
    observes through the same instance.  A run is either local or
    distributed, so the evidence comes from one kind of worker.
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
    """Cheap per-run dispatch instrumentation of one scheduler.

    Every counter is incremented on the parent side of the connection,
    so the numbers attribute *supervision overhead* (round trips, frame
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
class ClusterStats:
    """What the workers did, for the mining report and benchmarks.

    The loop counts for every scheduler; the engine reports the counts
    of distributed runs only (``MiningReport.cluster``).
    """

    n_workers_seen: int = 0
    n_workers_lost: int = 0
    n_lease_expiries: int = 0
    n_tasks_dispatched: int = 0
    #: OK results credited per worker name
    by_worker: Dict[str, int] = field(default_factory=dict)

    def credit(self, worker: str) -> None:
        self.by_worker[worker] = self.by_worker.get(worker, 0) + 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_workers_seen": self.n_workers_seen,
            "n_workers_lost": self.n_workers_lost,
            "n_lease_expiries": self.n_lease_expiries,
            "n_tasks_dispatched": self.n_tasks_dispatched,
            "by_worker": dict(sorted(self.by_worker.items())),
        }

    def __repr__(self) -> str:
        return (f"<ClusterStats {self.n_workers_seen} workers "
                f"({self.n_workers_lost} lost), "
                f"{self.n_tasks_dispatched} dispatched>")


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


class _Phase:
    """Mutable state of one ``run_phase`` call (task ids are unique
    within it)."""

    def __init__(self, runner, splitter, poisoner, validator,
                 on_interim) -> None:
        self.runner = runner  # as frames carry it
        self.splitter = splitter
        self.poisoner = poisoner
        self.validator = validator
        self.on_interim = on_interim
        self.queue: List[_Task] = []
        self.results: List[object] = []
        self.live: Dict[str, _Task] = {}


@dataclass(eq=False)
class _Frame:
    """One frame in flight: a task, or several coalesced into one round
    trip."""

    phase: _Phase
    tasks: List[_Task]
    started: float
    lease_expiry: Optional[float]  # absolute; None for spawned workers
    deadline: Optional[float]  # absolute, from the shard deadline
    allowed: Optional[float]  # the same deadline in relative seconds

    def lapsed(self, now: float) -> bool:
        return any(limit is not None and now > limit
                   for limit in (self.lease_expiry, self.deadline))


@dataclass(eq=False)
class _Worker:
    """One worker connection: a spawned child, or an accepted peer."""

    conn: object
    label: str
    #: a spawned worker's child process (None for an accepted peer)
    process: object = None
    #: an accepted worker's heartbeat lease in seconds, set when it
    #: registers (spawned workers hold none)
    lease: Optional[float] = None
    registered: bool = False
    #: the frame in flight on this connection (None when idle)
    frame: Optional[_Frame] = None


class TaskScheduler:
    """The one dispatch loop of a mining run, and its failure policy.

    ``ctx`` and ``jobs`` give the scheduler ``jobs`` spawned workers,
    started by the first phase and persisting across phases; the
    :class:`~repro.dist.coordinator.Coordinator` subclass accepts its
    workers over a listening socket instead.  ``batch_programs`` is the
    coalescing floor: first-attempt tasks are packed into one frame
    until it carries at least that many programs (0 sends one task per
    frame; the engine passes 0 whenever the armed plan has worker
    faults, so a fault still sees one task per frame).  One instance
    accumulates a run's history in one :class:`FailureLedger`; callers
    must :meth:`close` it when the run ends.
    """

    def __init__(
        self,
        supervision: Optional[SupervisionConfig] = None,
        *,
        strict: bool = False,
        ledger: Optional[FailureLedger] = None,
        ctx=None,
        jobs: int = 0,
        batch_programs: int = 0,
    ) -> None:
        self.supervision = supervision or SupervisionConfig()
        self.strict = strict
        self.ledger = ledger if ledger is not None else FailureLedger()
        self.ctx = ctx
        self.jobs = jobs
        self.batch_programs = max(0, batch_programs)
        self.dispatch = DispatchStats()
        self.stats = ClusterStats()
        self._deadlines = DeadlineTracker(self.supervision)
        self._workers: List[_Worker] = []
        self._phase: Optional[_Phase] = None
        self._seq = 0

    # ------------------------------------------------------------------
    # the dispatch loop

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
        worker executes (module-level so it pickles under any start
        method; an accepted worker imports it by name, so it must live
        under ``repro.``).  ``splitter(payload)`` returns two halves for
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
        state = _Phase(self._wire_runner(runner), splitter, poisoner,
                       validator, on_interim)
        for shard_id, payload in tasks:
            task = self._make_task(str(shard_id), shard_id, phase, payload)
            state.queue.append(task)
            state.live[task.task_id] = task
        self._phase = state
        try:
            while state.live:
                self._ensure_workers()
                now = time.monotonic()
                self._dispatch(state, now)
                self._pump(self._wait_timeout(state, now))
                self._expire(state)
        except BaseException:
            # a strict-mode raise (or KeyboardInterrupt) ends the phase
            # mid-frame: a spawned worker dies with it (and is respawned
            # when next needed); an accepted one keeps its frame, whose
            # reply is dropped when it arrives
            for worker in list(self._workers):
                if worker.process is not None and worker.frame is not None:
                    self._drop(worker)
            raise
        finally:
            self._phase = None
        return state.results

    def close(self, shutdown_workers: bool = True) -> None:
        """Release every worker, telling registered ones to exit first;
        spawned processes that do not exit are killed."""
        for worker in self._workers:
            if shutdown_workers and worker.registered:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for worker in list(self._workers):
            if worker.process is not None and worker.frame is None:
                worker.process.join(timeout=2.0)
            self._drop(worker)

    # ------------------------------------------------------------------
    # how workers arrive (a Coordinator accepts them instead)

    def _ensure_workers(self) -> None:
        """Spawn workers up to ``jobs``, in place of any killed."""
        while len(self._workers) < self.jobs:
            parent_conn, child_conn = self.ctx.Pipe(duplex=True)
            inherited: Tuple = ()
            if self.ctx.get_start_method() == "fork":
                inherited = (parent_conn, *(w.conn for w in self._workers))
            process = self.ctx.Process(
                target=_pool_main, args=(child_conn, inherited),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(
                conn=parent_conn, label=process.name, process=process,
                registered=True,
            ))

    def _sources(self) -> List[object]:
        """Listening sockets whose readiness admits a new worker."""
        return []

    def _accept(self, source) -> None:
        """Admit the peer waiting on one of :meth:`_sources`."""

    def _hello(self, worker: _Worker, message: object) -> None:
        """Handle an unregistered worker's message (spawned workers
        start registered, so only a Coordinator registers any)."""
        self._drop(worker)

    def _wire_runner(self, runner: Callable) -> object:
        """``runner`` as frames carry it: a spawned worker unpickles
        the function itself."""
        return runner

    # ------------------------------------------------------------------
    # transport

    def _pump(self, timeout: Optional[float]) -> None:
        """Wait up to ``timeout`` seconds, then read one message from
        every ready worker and admit every waiting peer."""
        by_conn = {worker.conn: worker for worker in self._workers}
        for ready in connection_wait([*self._sources(), *by_conn],
                                     timeout):
            worker = by_conn.get(ready)
            if worker is None:
                self._accept(ready)
            elif worker in self._workers:
                self._receive(worker)

    def _receive(self, worker: _Worker) -> None:
        """Read and handle one message; a frame that is stalled,
        oversized, truncated or not a pickle drops the worker."""
        try:
            frame = worker.conn.recv_bytes(MAX_FRAME_BYTES)
        except (EOFError, OSError):
            self._worker_lost(worker, "connection closed")
            return
        self.dispatch.bytes_received += len(frame)
        started = time.perf_counter()
        try:
            message = pickle.loads(frame)
        except Exception:
            self._worker_lost(worker, "undecodable frame")
            return
        finally:
            self.dispatch.seconds_deserialize += \
                time.perf_counter() - started
        self._handle_message(worker, message)

    def _send(self, worker: _Worker, message: object) -> bool:
        """Send one frame; False if the worker is gone."""
        started = time.perf_counter()
        # send_bytes of our own pickle: same wire format as conn.send,
        # but the byte count becomes observable
        data = pickle.dumps(message)
        self.dispatch.seconds_serialize += time.perf_counter() - started
        try:
            worker.conn.send_bytes(data)
        except OSError:
            return False
        self.dispatch.bytes_sent += len(data)
        return True

    # ------------------------------------------------------------------
    # message handling

    def _handle_message(self, worker: _Worker, message: object) -> None:
        kind = message[0] if isinstance(message, tuple) and message \
            else None
        frame = worker.frame
        if not worker.registered:
            self._hello(worker, message)
        elif kind == "heartbeat":
            if frame is not None and worker.lease is not None:
                frame.lease_expiry = time.monotonic() + worker.lease
        elif kind == "interim":
            # the frame is still running; its reply comes later
            if (frame is not None and frame.phase is self._phase
                    and len(message) == 2
                    and frame.phase.on_interim is not None):
                frame.phase.on_interim(message[1])
        elif kind == "goodbye":
            self._worker_lost(worker, "goodbye", graceful=True)
        else:
            self._handle_reply(worker, message)

    def _handle_reply(self, worker: _Worker, message: object) -> None:
        frame, worker.frame = worker.frame, None
        if frame is None or frame.phase is not self._phase:
            return  # a stray reply, or the late one of an ended phase
        state = frame.phase
        now = time.monotonic()
        seconds = now - frame.started
        if len(frame.tasks) == 1:
            replies: List[object] = [message]
        elif isinstance(message, list) and len(message) == len(frame.tasks):
            replies = message
        else:
            # a coalesced frame must answer with one message per task
            replies = [("batch-shape-mismatch",)] * len(frame.tasks)
        any_ok = False
        for index, (task, reply) in enumerate(zip(frame.tasks, replies)):
            # the first reply of a frame is shape-revalidated; later
            # ones come from the same healthy worker in the same round
            # trip, so one validation vouches for the frame (strict
            # mode validates every reply)
            outcome, value = self._classify(
                task, reply, seconds, frame.allowed, state.validator,
                validate=index == 0 or self.strict,
            )
            if outcome != OUTCOME_OK:
                self._attempt_failed(state, task, outcome, value,
                                     seconds, now,
                                     recorded=outcome == OUTCOME_ERROR)
                continue
            any_ok = True
            self.stats.credit(worker.label)
            state.results.append(value)
            state.live.pop(task.task_id, None)
        if any_ok:
            self._deadlines.observe(seconds, sum(
                self._payload_size(t.payload) for t in frame.tasks
            ))

    # ------------------------------------------------------------------
    # dispatch / expiry

    def _idle_workers(self) -> List[_Worker]:
        return [w for w in self._workers
                if w.registered and w.frame is None]

    def _dispatch(self, state: _Phase, now: float) -> None:
        state.queue.sort(key=lambda t: (t.ready_at, t.seq))
        for worker in self._idle_workers():
            task = self._pop_ready(state.queue, now)
            if task is None:
                break  # nothing ready yet (backoff cooldowns)
            tasks = [task]
            if self.batch_programs > 0 and task.attempt == 0:
                self._coalesce(tasks, state.queue, now)
            self._assign(state, worker, tasks, now)

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

    def _assign(
        self,
        state: _Phase,
        worker: _Worker,
        tasks: List[_Task],
        now: float,
    ) -> None:
        if len(tasks) == 1:
            message: object = (state.runner, tasks[0].payload,
                               tasks[0].attempt)
        else:
            message = ("jobs", state.runner,
                       [(t.payload, t.attempt) for t in tasks])
        if not self._send(worker, message):
            # the frame never started: its tasks go back untouched
            self._lose(worker)
            for task in tasks:
                task.ready_at = now
                state.queue.append(task)
            return
        allowed = self._deadlines.effective(sum(
            self._payload_size(t.payload) for t in tasks
        ))
        frame = _Frame(
            phase=state, tasks=tasks, started=now,
            lease_expiry=(now + worker.lease
                          if worker.lease is not None else None),
            deadline=(now + allowed) if allowed is not None else None,
            allowed=allowed,
        )
        worker.frame = frame
        self.dispatch.n_round_trips += 1
        self.dispatch.n_tasks_dispatched += len(tasks)
        self.stats.n_tasks_dispatched += len(tasks)
        if len(tasks) > 1:
            self.dispatch.n_batches += 1
            self.dispatch.n_tasks_batched += len(tasks)

    def _expire(self, state: _Phase) -> None:
        for worker in list(self._workers):
            # unread data first: a reply or heartbeat queued behind a
            # stalled peer wins over the clock
            while (worker.frame is not None
                   and worker.frame.lapsed(time.monotonic())
                   and worker.conn.poll()):
                self._receive(worker)
            frame = worker.frame
            if frame is None:
                continue
            now = time.monotonic()
            # a stale frame only holds its worker until the lease lapses
            live = frame.phase is state
            if frame.lease_expiry is not None and now > frame.lease_expiry:
                self.stats.n_lease_expiries += 1
                error = (f"lease expired: no heartbeat within "
                         f"{worker.lease:g}s")
            elif live and frame.deadline is not None \
                    and now > frame.deadline:
                error = f"shard deadline of {frame.allowed:g}s exceeded"
            else:
                continue
            # the worker is unresponsive or wedged — drop it so it can
            # never send a stale result for a re-dispatched task
            self._lose(worker)
            if live:
                for task in frame.tasks:
                    self._attempt_failed(state, task, OUTCOME_TIMEOUT,
                                         error, now - frame.started, now)

    def _wait_timeout(self, state: _Phase, now: float) -> float:
        horizons = [_POLL_SECONDS]
        for worker in self._workers:
            frame = worker.frame
            if frame is None:
                continue
            if frame.lease_expiry is not None:
                horizons.append(frame.lease_expiry - now)
            if frame.deadline is not None and frame.phase is state:
                horizons.append(frame.deadline - now)
        if state.queue and self._idle_workers():
            horizons.append(min(t.ready_at for t in state.queue) - now)
        return max(0.0, min(horizons))

    # ------------------------------------------------------------------
    # failures

    def _attempt_failed(
        self,
        state: _Phase,
        task: _Task,
        outcome: str,
        error: str,
        seconds: float,
        now: float,
        recorded: bool = False,
    ) -> None:
        """One attempt of ``task`` failed: retry, bisect or poison it."""
        if not recorded:
            task.record.attempts.append(AttemptRecord(
                attempt=task.attempt, outcome=outcome,
                seconds=seconds, error=error,
            ))
        if task.attempt < self.supervision.max_retries:
            task.attempt += 1
            task.ready_at = now + self.supervision.backoff(task.attempt)
            state.queue.append(task)
            return
        if self.strict:
            cls = WorkerTimeout if outcome == OUTCOME_TIMEOUT else WorkerCrash
            raise cls(
                f"task {task.task_id} ({task.record.phase}) failed "
                f"{task.attempt + 1} attempt(s): {error}"
            )
        state.live.pop(task.task_id, None)
        halves = state.splitter(task.payload)
        if halves is None:
            # the toxic program is isolated: quarantine, keep the rest
            label = WORKER_TIMEOUT if outcome == OUTCOME_TIMEOUT \
                else WORKER_CRASH
            task.record.poisoned = label
            state.results.append(state.poisoner(task.payload, label, error))
            return
        task.record.bisected = True
        for half_index, half in enumerate(halves):
            child = self._make_task(
                f"{task.task_id}.{half_index}", task.shard_id,
                task.record.phase, half,
            )
            child.ready_at = now
            state.queue.append(child)
            state.live[child.task_id] = child

    def _worker_lost(
        self, worker: _Worker, reason: str, graceful: bool = False
    ) -> None:
        """A worker died, left or broke the wire: the tasks of its frame
        fail as crashes, unless the frame is stale."""
        frame = self._lose(worker)
        state = self._phase
        if frame is None or frame.phase is not state:
            return
        now = time.monotonic()
        if worker.process is not None:
            error = (f"worker died without reporting (exit code "
                     f"{worker.process.exitcode})")
        else:
            label = "left" if graceful else "died"
            error = (f"worker {worker.label} {label} holding the lease "
                     f"({reason})")
        for task in frame.tasks:
            self._attempt_failed(state, task, OUTCOME_CRASH, error,
                                 now - frame.started, now)

    def _lose(self, worker: _Worker) -> Optional[_Frame]:
        """Take a dead or dropped worker out of service; returns the
        frame it held.  A spawned worker is killed (and respawned when
        next needed); an accepted one is counted lost."""
        frame, registered = worker.frame, worker.registered
        self._drop(worker)
        if worker.process is None and registered:
            self.stats.n_workers_lost += 1
        return frame

    def _drop(self, worker: _Worker) -> None:
        worker.conn.close()
        process = worker.process
        if process is not None:  # terminate; kill it if it lingers
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join()
        worker.registered = False
        worker.frame = None
        if worker in self._workers:
            self._workers.remove(worker)

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

    def _classify(
        self,
        task: _Task,
        reply: object,
        seconds: float,
        allowed: Optional[float],
        validator: Callable[[object], bool],
        validate: bool = True,
    ) -> Tuple[str, object]:
        """Classify one worker reply as ``(outcome, result or error)``.

        ``("ok", result)`` whose result passes ``validator`` is
        :data:`OUTCOME_OK` with the result (``validate=False`` trusts
        it unchecked); ``("error", exc)`` with a typed exception is
        :data:`OUTCOME_ERROR` and anything else
        :data:`OUTCOME_CORRUPT`, each with the ledger's error text.
        OK and error attempts are recorded here (an OK one slower than
        ``straggler_fraction`` of ``allowed`` as a straggler); in
        strict mode the worker's typed error is re-raised intact, so
        exit codes 3/4 survive supervision.
        """
        kind, value = reply if isinstance(reply, tuple) \
            and len(reply) == 2 else (None, None)
        if kind == "ok":
            if validate:
                self.dispatch.n_validations += 1
            else:
                self.dispatch.n_validations_skipped += 1
            if not validate or validator(value):
                task.record.attempts.append(AttemptRecord(
                    attempt=task.attempt, outcome=OUTCOME_OK,
                    seconds=seconds, straggler=bool(
                        allowed is not None and seconds
                        > self.supervision.straggler_fraction * allowed),
                ))
                return OUTCOME_OK, value
        elif kind == "error" and isinstance(value, BaseException):
            error = f"{type(value).__name__}: {value}"
            task.record.attempts.append(AttemptRecord(
                attempt=task.attempt, outcome=OUTCOME_ERROR,
                seconds=seconds, error=error,
            ))
            if self.strict:
                raise value
            return OUTCOME_ERROR, error
        return (OUTCOME_CORRUPT,
                "worker result failed validation (corrupt payload)")

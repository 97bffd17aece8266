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

* **one job contract** — each frame carries one ``(runner, payload,
  attempt)`` task and gets one reply, and every ``ok`` reply passes the
  validator before it counts;
* **liveness + deadlines** — EOF, or a frame that is oversized or not
  a pickle, drops the worker and fails its frame's task as a *crash*;
  a worker that outlives the shard deadline (or its lease) is dropped
  and its task fails as a *timeout*; a result that does not decode to
  the expected shape is *corrupt*.  Unread data is read before a
  deadline expires, and a task whose send fails goes back untouched;
* **resume after the last settled program** — a failed attempt's
  task is re-queued with only the programs it left unsettled, the
  first of which is the one the worker was running (a worker settles
  each program before it starts the next);
* **bounded retries with exponential backoff** — the re-queued task
  cools down first (0.05 s after its first failure on a program,
  doubling, capped at 2 s); backoff is implemented as a not-before
  timestamp so the scheduler keeps dispatching other work meanwhile;
* **poisoning** — once a task has failed ``max_retries`` + 1 times on
  the same program, that program is *poisoned*: quarantined with a
  ``worker-crash``/``worker-timeout`` taxonomy label (flowing into the
  quarantine manifest and the durable store, so it is never
  re-attempted) while the rest of the task goes on at once;
* **failure ledger** — the complete per-task attempt history (retries
  and poisoned programs) is recorded in a :class:`FailureLedger` and
  merged into the :class:`~repro.mining.partial.MiningReport`.

A task runs in at most one frame at a time, and an attempt that runs
too long has one rule: ``shard_deadline`` seconds after dispatch (or
when the lease lapses) it is reclaimed and the task resumes at the
program it was running, so a program is poisoned only after attempts
that ran it failed ``max_retries`` + 1 times in a row.  Slow programs
are the per-program budget's job, not the scheduler's.  A frame still
in flight when its phase ends (only after a raise) stays on its
worker, and its late reply and interims are dropped, so they can never
settle a later phase's task.

Determinism: supervision changes *scheduling*, never *results*.  A
failed attempt contributes only the programs it settled before it died
(workers never write to disk; the parent folds and persists each
program as it settles), and the resumed attempt settles the rest with
the same per-program values — so specs and manifest stay
byte-identical with worker faults on or off, for any ``--jobs`` and
``--shards``, modulo the poisoned toxic programs.

``strict=True`` keeps fail-fast semantics: a typed error shipped back
by a worker re-raises in the parent with its type intact (``--strict``
budget blow-ups still exit with code 3), and crash/timeout exhaustion
raises :class:`~repro.runtime.errors.WorkerCrash` /
:class:`~repro.runtime.errors.WorkerTimeout` instead of poisoning.
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

#: cooldown before a task's first retry (seconds); it doubles with each
#: further retry, up to the cap
_BACKOFF_FIRST = 0.05
_BACKOFF_CAP = 2.0


@dataclass(frozen=True)
class SupervisionConfig:
    """Retry/deadline policy of one supervised mining run."""

    #: retries of a task on one program before that program is poisoned
    #: (strict mode: before raising)
    max_retries: int = 2
    #: wall-clock seconds one shard-task attempt may run, counted from
    #: dispatch; None = no watchdog (a hung spawned worker is then only
    #: reclaimable by the user, a hung accepted one by its lease)
    shard_deadline: Optional[float] = None


# ----------------------------------------------------------------------
# failure ledger


@dataclass
class AttemptRecord:
    """One launch of one task."""

    attempt: int
    outcome: str
    seconds: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class TaskRecord:
    """The full supervision history of one shard's task."""

    shard_id: int
    phase: str
    n_programs: int
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: taxonomy label of each program the task poisoned, in order
    poisoned: List[str] = field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return sum(1 for a in self.attempts if a.outcome != OUTCOME_OK)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "phase": self.phase,
            "n_programs": self.n_programs,
            "poisoned": list(self.poisoned),
            "attempts": [a.to_dict() for a in self.attempts],
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
        """Re-launches of a task after a failed attempt."""
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
    def n_poisoned(self) -> int:
        return sum(len(t.poisoned) for t in self.tasks)

    @property
    def clean(self) -> bool:
        return self.n_attempts == self.n_tasks and self.n_failures == 0

    @property
    def n_failures(self) -> int:
        return sum(t.n_failures for t in self.tasks)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic dict: counters plus only the *troubled* tasks.

        Clean single-attempt tasks are summarised by the counters; the
        per-attempt trail is kept only where something went wrong, so
        ledgers stay small on healthy runs of many shards.
        """
        troubled = sorted(
            (t for t in self.tasks if t.poisoned or t.n_failures),
            key=lambda t: (t.phase, t.shard_id),
        )
        return {
            "n_tasks": self.n_tasks,
            "n_attempts": self.n_attempts,
            "n_retries": self.n_retries,
            "n_worker_crashes": self.n_worker_crashes,
            "n_worker_timeouts": self.n_worker_timeouts,
            "n_corrupt_results": self.n_corrupt_results,
            "n_worker_errors": self.n_worker_errors,
            "n_poisoned": self.n_poisoned,
            "tasks": [t.to_dict() for t in troubled],
        }

    def __repr__(self) -> str:
        return (
            f"<FailureLedger {self.n_tasks} tasks / {self.n_attempts} "
            f"attempts: {self.n_retries} retries, "
            f"{self.n_poisoned} poisoned>"
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

    Every job arrives over the duplex pipe as one ``(runner, payload,
    attempt)`` tuple and gets one reply (:func:`_run_job`), whether a
    mining scheduler or the :mod:`repro.serve.pool` sent it; ``None``
    is the shutdown sentinel.  A running job may precede its reply with
    ``("interim", item)`` messages (:func:`send_interim`).  Worker
    faults fire only from the plan the payload carries.  The process
    persists across jobs and phases.  ``inherited`` are the parent's
    pipe ends a forked worker holds copies of; closing them lets a
    parent killed outright read as EOF (or a broken pipe) here, so the
    worker exits with it.
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
        runner, payload, attempt = job
        message = _run_job(runner, payload, attempt)
        try:
            conn.send(message)
        except (BrokenPipeError, EOFError, OSError):
            return
        except Exception as err:
            # unpicklable result: report instead of dying silently
            try:
                conn.send(("error", RuntimeError(
                    f"unpicklable result: {err}")))
            except Exception:
                return


# ----------------------------------------------------------------------
# parent side


@dataclass
class DispatchStats:
    """Cheap per-run dispatch instrumentation of one scheduler.

    Every counter is incremented on the parent side of the connection,
    so the numbers attribute *supervision overhead* (round trips and
    frame serialisation) separately from the work the shards themselves
    do.  Folded into the :class:`~repro.mining.partial.MiningReport` as
    ``dispatch``.
    """

    #: worker round trips: task frames sent, one task each
    n_round_trips: int = 0
    #: pipe traffic, parent-side (task frames out, result frames in)
    bytes_sent: int = 0
    bytes_received: int = 0
    #: parent-side pickle/unpickle wall-clock
    seconds_serialize: float = 0.0
    seconds_deserialize: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_round_trips": self.n_round_trips,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "seconds_serialize": round(self.seconds_serialize, 6),
            "seconds_deserialize": round(self.seconds_deserialize, 6),
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

    shard_id: int
    #: what the next attempt runs: the programs still unsettled
    payload: object
    record: TaskRecord
    #: the next attempt's number: attempts launched so far
    attempt: int = 0
    #: failed attempts in a row on the payload's first program
    failures: int = 0
    ready_at: float = 0.0
    seq: int = 0  # launch-order tiebreak


class _Phase:
    """Mutable state of one ``run_phase`` call (shard ids are unique
    within it)."""

    def __init__(self, runner, remaining, poisoner, validator,
                 on_interim) -> None:
        self.runner = runner  # as frames carry it
        self.remaining = remaining
        self.poisoner = poisoner
        self.validator = validator
        self.on_interim = on_interim
        self.queue: List[_Task] = []
        self.results: List[object] = []
        self.live: Dict[int, _Task] = {}


@dataclass(eq=False)
class _Frame:
    """One frame in flight: one task's attempt on one worker."""

    phase: _Phase
    task: _Task
    started: float
    lease_expiry: Optional[float]  # absolute; None for spawned workers
    deadline: Optional[float]  # absolute, from the shard deadline

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
    workers over a listening socket instead.  Either kind gets one task
    per frame and answers it with one reply.  One instance accumulates
    a run's history in one :class:`FailureLedger`; callers must
    :meth:`close` it when the run ends.
    """

    def __init__(
        self,
        supervision: Optional[SupervisionConfig] = None,
        *,
        strict: bool = False,
        ledger: Optional[FailureLedger] = None,
        ctx=None,
        jobs: int = 0,
    ) -> None:
        self.supervision = supervision or SupervisionConfig()
        self.strict = strict
        self.ledger = ledger if ledger is not None else FailureLedger()
        self.ctx = ctx
        self.jobs = jobs
        self.dispatch = DispatchStats()
        self.stats = ClusterStats()
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
        remaining: Callable[[object], Optional[object]],
        poisoner: Callable[[object, str, str], Optional[object]],
        validator: Callable[[object], bool],
        on_interim: Optional[Callable[[object, object], bool]] = None,
    ) -> List[object]:
        """Dispatch ``tasks`` (``(shard_id, payload)``) under supervision.

        ``runner(payload, attempt)`` is the module-level function the
        worker executes (module-level so it pickles under any start
        method; an accepted worker imports it by name, so it must live
        under ``repro.``).  ``remaining(payload)`` cuts ``payload``
        down to the programs not settled yet, in order, or returns None
        when none are left; after a failed attempt, the first of them
        is the program the worker was running.  ``poisoner(payload,
        label, error)`` quarantines the first program of such a
        remainder and returns the rest, or None; it runs in the parent,
        so it may close over engine state (the mining engine folds the
        program's quarantine entry there).  ``validator(result)``
        rejects corrupt result payloads.
        ``on_interim(payload, item)`` runs in the parent for each item
        a worker sends with :func:`send_interim` while its task is
        still in flight, even if that attempt later fails; it returns
        False for an item the task may not send, which drops the
        worker and fails the attempt as a crash, like an undecodable
        frame.

        Returns the result of each task whose last attempt succeeded,
        in no particular order.
        """
        state = _Phase(self._wire_runner(runner), remaining, poisoner,
                       validator, on_interim)
        for shard_id, payload in tasks:
            task = self._make_task(shard_id, phase, payload)
            state.queue.append(task)
            state.live[shard_id] = task
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
            # the frame is still running; its reply comes later.  A
            # stale frame's items are dropped, and an item its task may
            # not send breaks the wire like an undecodable frame
            live = frame is not None and frame.phase is self._phase
            hook = frame.phase.on_interim if live else None
            if hook is not None and not (
                    len(message) == 2
                    and hook(frame.task.payload, message[1])):
                self._worker_lost(worker, "rejected interim")
        elif kind == "goodbye":
            self._worker_lost(worker, "goodbye", graceful=True)
        else:
            self._handle_reply(worker, message)

    def _handle_reply(self, worker: _Worker, message: object) -> None:
        frame, worker.frame = worker.frame, None
        if frame is None or frame.phase is not self._phase:
            return  # a stray reply, or the late one of an ended phase
        state, task = frame.phase, frame.task
        now = time.monotonic()
        seconds = now - frame.started
        outcome, value = self._classify(task, message, seconds,
                                        state.validator)
        if outcome != OUTCOME_OK:
            self._attempt_failed(state, task, outcome, value, seconds,
                                 now, recorded=outcome == OUTCOME_ERROR)
            return
        self.stats.credit(worker.label)
        state.results.append(value)
        state.live.pop(task.shard_id, None)

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
            self._assign(state, worker, task, now)

    def _assign(
        self, state: _Phase, worker: _Worker, task: _Task, now: float,
    ) -> None:
        if not self._send(worker, (state.runner, task.payload,
                                   task.attempt)):
            # the frame never started: its task goes back untouched
            self._lose(worker)
            task.ready_at = now
            state.queue.append(task)
            return
        deadline = self.supervision.shard_deadline
        frame = _Frame(
            phase=state, task=task, started=now,
            lease_expiry=(now + worker.lease
                          if worker.lease is not None else None),
            deadline=(now + deadline) if deadline is not None else None,
        )
        worker.frame = frame
        self.dispatch.n_round_trips += 1
        self.stats.n_tasks_dispatched += 1

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
                error = (f"shard deadline of "
                         f"{self.supervision.shard_deadline:g}s exceeded")
            else:
                continue
            # the worker is unresponsive or wedged — drop it so it can
            # never send a stale result for a re-dispatched task
            self._lose(worker)
            if live:
                self._attempt_failed(state, frame.task, OUTCOME_TIMEOUT,
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
        """One attempt of ``task`` failed: re-queue the programs it left
        unsettled, or poison the first of them once the task has failed
        on it ``max_retries`` + 1 times in a row."""
        if not recorded:
            task.record.attempts.append(AttemptRecord(
                attempt=task.attempt, outcome=outcome,
                seconds=seconds, error=error,
            ))
        task.attempt += 1
        rest = state.remaining(task.payload)
        if rest is None:  # every program settled before the failure
            state.live.pop(task.shard_id, None)
            return
        # a remainder as long as the attempt's payload starts with the
        # program that attempt started with
        same = self._payload_size(rest) == self._payload_size(task.payload)
        task.failures = task.failures + 1 if same else 1
        task.payload = rest
        if task.failures <= self.supervision.max_retries:
            task.ready_at = now + min(
                _BACKOFF_CAP, _BACKOFF_FIRST * 2 ** (task.failures - 1))
            state.queue.append(task)
            return
        if self.strict:
            cls = WorkerTimeout if outcome == OUTCOME_TIMEOUT else WorkerCrash
            raise cls(
                f"task {task.shard_id} ({task.record.phase}) failed "
                f"{task.failures} attempt(s) on one program: {error}"
            )
        # the toxic program is found: quarantine it, keep the rest going
        label = WORKER_TIMEOUT if outcome == OUTCOME_TIMEOUT \
            else WORKER_CRASH
        task.record.poisoned.append(label)
        task.payload = state.poisoner(rest, label, error)
        if task.payload is None:
            state.live.pop(task.shard_id, None)
            return
        task.failures = 0
        task.ready_at = now
        state.queue.append(task)

    def _worker_lost(
        self, worker: _Worker, reason: str, graceful: bool = False
    ) -> None:
        """A worker died, left or broke the wire: its frame's task fails
        as a crash, unless the frame is stale."""
        frame = self._lose(worker)
        state = self._phase
        if frame is None or frame.phase is not state:
            return
        now = time.monotonic()
        if worker.process is None:
            label = "left" if graceful else "died"
            error = (f"worker {worker.label} {label} holding the lease "
                     f"({reason})")
        elif reason == "connection closed":
            error = (f"worker died without reporting (exit code "
                     f"{worker.process.exitcode})")
        else:  # the parent dropped it: its exit code is our SIGTERM
            error = f"worker {worker.label} dropped ({reason})"
        self._attempt_failed(state, frame.task, OUTCOME_CRASH, error,
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
        self, shard_id: int, phase: str, payload: object
    ) -> _Task:
        self._seq += 1
        record = self.ledger.record(TaskRecord(
            shard_id=shard_id, phase=phase,
            n_programs=self._payload_size(payload),
        ))
        return _Task(
            shard_id=shard_id, payload=payload, record=record,
            seq=self._seq,
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
        validator: Callable[[object], bool],
    ) -> Tuple[str, object]:
        """Classify one worker reply as ``(outcome, result or error)``.

        ``("ok", result)`` whose result passes ``validator`` is
        :data:`OUTCOME_OK` with the result; ``("error", exc)`` with a
        typed exception is :data:`OUTCOME_ERROR` and anything else
        :data:`OUTCOME_CORRUPT`, each with the ledger's error text.
        OK and error attempts are recorded here; in strict mode the
        worker's typed error is re-raised intact, so exit codes 3/4
        survive supervision.
        """
        kind, value = reply if isinstance(reply, tuple) \
            and len(reply) == 2 else (None, None)
        if kind == "ok" and validator(value):
            task.record.attempts.append(AttemptRecord(
                attempt=task.attempt, outcome=OUTCOME_OK, seconds=seconds,
            ))
            return OUTCOME_OK, value
        if kind == "error" and isinstance(value, BaseException):
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

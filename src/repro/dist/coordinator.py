"""The cluster coordinator: lease-based shard dispatch over TCP.

The :class:`Coordinator` is the distributed twin of the in-process
:class:`~repro.mining.supervisor.ShardSupervisor`: it owns a listening
socket instead of a process pool, and worker daemons
(:mod:`repro.dist.worker`) pull shard tasks over the wire instead of
being forked.  Everything *above* the transport is deliberately
identical — both dispatchers extend
:class:`~repro.mining.supervisor.TaskScheduler`, so reply
classification, retries, backoff, poison-shard bisection, strict-mode
fail-fast and the :class:`~repro.mining.supervisor.FailureLedger`
behave byte-for-byte the same whether a worker is a local child
process or a machine across the network.

Transport: each accepted socket is wrapped in a
:class:`multiprocessing.connection.Connection` — the type, frame
format and message tuples of the pool's pipes (see
:mod:`repro.dist.protocol`) — and one
:func:`multiprocessing.connection.wait` call multiplexes the listener
and every worker.  Blocking reads and writes on a connection are
bounded by a 30 s I/O timeout (``SO_RCVTIMEO``/``SO_SNDTIMEO``), so a
peer stalled mid-frame is dropped instead of wedging the loop.  A
lease or deadline never expires while its connection has unread data:
that data is read first, so a stall that held up the loop cannot
expire the leases of workers whose heartbeats queued behind it.

Failure model (mapping onto the existing taxonomy):

* **worker death** — EOF / reset on the connection while a task is
  leased is the remote analogue of EOF on a result pipe: the attempt
  is recorded as a *crash* and the task re-enters the queue
  (eventually bisecting down to a ``worker-crash`` quarantine);
* **protocol violation** — a frame that is oversized, truncated or
  not a pickle, or any first message but ``hello``, drops the
  connection the same way;
* **lease expiry** — every dispatched task carries a lease that
  heartbeats renew; a worker that stops heartbeating (network
  partition, paused VM, hard hang) loses the lease, the attempt is
  recorded as a *timeout*, the connection is dropped and the task is
  re-dispatched — the remote analogue of the watchdog deadline;
* **per-attempt deadline** — the ``--shard-deadline`` wall clock (or
  its adaptive p95-derived replacement) also applies remotely: a
  worker that heartbeats but never finishes is reclaimed as a
  *timeout*;
* **speculation** — when the queue is drained and workers sit idle,
  the slowest in-flight task is speculatively re-dispatched to an idle
  worker; the first result wins and later replies for the same task
  are dropped, so stragglers bound tail latency without changing
  results.

Determinism: like local supervision, distribution changes *scheduling*
only.  Results fold through the same order-canonicalised
``ShardPartial`` monoid, so a loopback cluster of N workers produces
specs and quarantine manifest byte-identical to ``--jobs N`` on one
machine.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dist.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, runner_ref
from repro.mining.supervisor import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AttemptRecord,
    FailureLedger,
    DeadlineTracker,
    SupervisionConfig,
    TaskScheduler,
    _Task,
)
from repro.runtime.errors import WorkerCrash

#: coordinator event-loop poll granularity (seconds)
_POLL_SECONDS = 0.25

#: seconds one blocking read or write on a worker connection may take;
#: a peer that cannot finish a frame in this long is treated as lost
_IO_TIMEOUT = 30.0


@dataclass(frozen=True)
class DistConfig:
    """Shape of one coordinator/worker cluster."""

    #: interface the coordinator listens on (bind loopback or a
    #: private network — the protocol is trusted-peer pickle)
    host: str = "127.0.0.1"
    #: 0 = ephemeral (the bound port is reported by :meth:`bind`)
    port: int = 0
    #: workers that must register before dispatch begins
    min_workers: int = 1
    #: seconds a leased task survives without a heartbeat before it is
    #: re-dispatched and the silent worker is dropped
    lease_seconds: float = 15.0
    #: speculatively re-dispatch the slowest in-flight task when the
    #: queue is empty and a worker sits idle (first result wins)
    speculate: bool = True
    #: a task is speculation-eligible once it has run longer than
    #: factor × median OK-attempt duration of this phase
    speculation_factor: float = 2.0
    #: OK attempts observed before speculation may trigger
    speculation_min_observations: int = 3
    #: abort (WorkerCrash) if work is queued but the cluster has had no
    #: registered workers for this long; None = wait forever
    no_worker_timeout: Optional[float] = None


@dataclass
class ClusterStats:
    """What the cluster did, for the mining report and benchmarks."""

    n_workers_seen: int = 0
    n_workers_lost: int = 0
    n_lease_expiries: int = 0
    n_tasks_dispatched: int = 0
    n_speculated: int = 0
    n_speculation_wins: int = 0
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
            "n_speculated": self.n_speculated,
            "n_speculation_wins": self.n_speculation_wins,
            "by_worker": dict(sorted(self.by_worker.items())),
        }

    def __repr__(self) -> str:
        return (f"<ClusterStats {self.n_workers_seen} workers "
                f"({self.n_workers_lost} lost), "
                f"{self.n_tasks_dispatched} dispatched, "
                f"{self.n_speculated} speculated>")


@dataclass(eq=False)
class _Remote:
    """One worker connection and its registration/lease state."""

    conn: Connection
    #: the peer address until ``hello`` names the worker
    label: str
    registered: bool = False
    #: the one task this connection holds; its replies and heartbeats
    #: belong to it (idle once registered and None)
    assignment: Optional["_Assignment"] = None


@dataclass(eq=False)
class _Assignment:
    """One live dispatch of one task to one worker."""

    task: _Task
    started: float
    lease_expiry: float
    deadline: Optional[float]  # absolute, from the shard deadline
    allowed: Optional[float]  # the same deadline in relative seconds
    speculative: bool = False

    def lapsed(self, now: float) -> bool:
        return now > self.lease_expiry or (
            self.deadline is not None and now > self.deadline)


class _Phase:
    """Mutable state of one ``run_phase`` call (task ids are unique
    within it)."""

    def __init__(self, runner: Callable, splitter, poisoner, validator):
        self.runner_ref = runner_ref(runner)
        self.splitter = splitter
        self.poisoner = poisoner
        self.validator = validator
        self.queue: List[_Task] = []
        self.results: List[object] = []
        self.live: Dict[str, _Task] = {}
        self.inflight: Dict[str, List[_Assignment]] = {}
        self.ok_seconds: List[float] = []


class Coordinator(TaskScheduler):
    """Socket server that leases shard tasks to remote workers.

    One instance serves every phase of one mining run.  Like the
    supervisor, ``clock`` is injectable and must be monotone.  The
    inherited ``dispatch`` counters are filled where frames are
    written and read.
    """

    def __init__(
        self,
        dist: Optional[DistConfig] = None,
        supervision: Optional[SupervisionConfig] = None,
        *,
        strict: bool = False,
        ledger: Optional[FailureLedger] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(supervision, strict=strict, ledger=ledger,
                         clock=clock)
        self.dist = dist or DistConfig()
        self.stats = ClusterStats()
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[socket.socket] = None
        self._remotes: List[_Remote] = []
        self._phase: Optional[_Phase] = None
        self._workerless_since: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle

    def bind(self) -> Tuple[str, int]:
        """Listen on the configured interface; returns (host, port)."""
        if self._server is not None:
            return self.address
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.dist.host, self.dist.port))
        server.listen(64)
        server.setblocking(False)
        self._server = server
        self.address = server.getsockname()[:2]
        return self.address

    def configure(
        self,
        supervision: SupervisionConfig,
        *,
        strict: bool = False,
        ledger: Optional[FailureLedger] = None,
    ) -> None:
        """Attach one mining run's policy (called by the engine)."""
        self.supervision = supervision
        self.strict = strict
        if ledger is not None:
            self.ledger = ledger
        self._deadlines = DeadlineTracker(supervision)

    @property
    def n_workers(self) -> int:
        return sum(1 for r in self._remotes if r.registered)

    def wait_for_workers(
        self, n: int, timeout: Optional[float] = None
    ) -> int:
        """Pump the event loop until ``n`` workers are registered."""
        self.bind()
        deadline = None if timeout is None else self._clock() + timeout
        while self.n_workers < n:
            if deadline is not None and self._clock() >= deadline:
                raise WorkerCrash(
                    f"only {self.n_workers}/{n} workers registered "
                    f"within {timeout:g}s"
                )
            self._pump(_POLL_SECONDS)
        return self.n_workers

    def close(self, shutdown_workers: bool = True) -> None:
        """Drop every connection (optionally telling workers to exit)."""
        for remote in list(self._remotes):
            if shutdown_workers and remote.registered:
                try:
                    remote.conn.send(None)
                except OSError:
                    pass
            self._drop(remote)
        if self._server is not None:
            self._server.close()
            self._server = None

    # ------------------------------------------------------------------
    # the dispatch loop (same contract as ShardSupervisor.run_phase)

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
        """Dispatch ``(shard_id, payload)`` tasks across the cluster.

        Identical contract to
        :meth:`~repro.mining.supervisor.ShardSupervisor.run_phase`;
        ``runner`` must be a module-level function under ``repro.`` —
        it crosses the wire by name and the worker imports it.
        """
        self.bind()
        state = _Phase(runner, splitter, poisoner, validator)
        self._phase = state
        self._on_interim = on_interim
        for shard_id, payload in tasks:
            task = self._make_task(str(shard_id), shard_id, phase, payload)
            state.queue.append(task)
            state.live[task.task_id] = task
        try:
            while state.live:
                now = self._clock()
                self._check_workerless(state, now)
                self._dispatch(state, now)
                self._maybe_speculate(state, now)
                self._pump(self._wait_timeout(state, now))
                self._expire(state)
        finally:
            # late results of an abandoned phase must not leak into
            # the next one
            self._phase = None
            self._on_interim = None
            for remote in self._remotes:
                remote.assignment = None
        return state.results

    # ------------------------------------------------------------------
    # transport

    def _pump(self, timeout: Optional[float]) -> None:
        if self._server is None:
            return
        by_conn = {remote.conn: remote for remote in self._remotes}
        for ready in connection_wait([self._server, *by_conn], timeout):
            if ready is self._server:
                self._accept()
            elif by_conn[ready] in self._remotes:
                self._receive(by_conn[ready])

    def _accept(self) -> None:
        try:
            sock, (host, port) = self._server.accept()
        except OSError:
            return
        sock.setblocking(True)
        # bound blocking I/O on the fd itself: Connection reads and
        # writes the raw descriptor, and settimeout would leave it
        # non-blocking
        seconds = int(_IO_TIMEOUT)
        timeval = struct.pack(
            "ll", seconds, int((_IO_TIMEOUT - seconds) * 1e6))
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            sock.setsockopt(socket.SOL_SOCKET, option, timeval)
        self._remotes.append(_Remote(
            conn=Connection(sock.detach()), label=f"{host}:{port}",
        ))

    def _receive(self, remote: _Remote) -> None:
        """Read and handle one message; a frame that is stalled,
        oversized, truncated or not a pickle drops the worker."""
        try:
            frame = remote.conn.recv_bytes(MAX_FRAME_BYTES)
        except (EOFError, OSError):
            self._worker_lost(remote, "connection closed")
            return
        self.dispatch.bytes_received += len(frame)
        started = time.perf_counter()
        try:
            message = pickle.loads(frame)
        except Exception:
            self._worker_lost(remote, "undecodable frame")
            return
        finally:
            self.dispatch.seconds_deserialize += \
                time.perf_counter() - started
        self._handle_message(remote, message)

    def _send(self, remote: _Remote, message: object) -> bool:
        started = time.perf_counter()
        frame = pickle.dumps(message)
        self.dispatch.seconds_serialize += time.perf_counter() - started
        try:
            remote.conn.send_bytes(frame)
        except OSError:
            self._worker_lost(remote, "send failed")
            return False
        self.dispatch.bytes_sent += len(frame)
        return True

    # ------------------------------------------------------------------
    # message handling

    def _handle_message(self, remote: _Remote, message: object) -> None:
        kind = message[0] if isinstance(message, tuple) and message \
            else None
        if not remote.registered:
            # an unregistered peer may only say hello
            if kind == "hello" and len(message) == 3:
                self._register(remote, message[1], message[2])
            else:
                self._drop(remote)
        elif kind == "heartbeat":
            if remote.assignment is not None:
                remote.assignment.lease_expiry = (
                    self._clock() + self.dist.lease_seconds
                )
        elif kind == "interim":
            if (remote.assignment is not None and len(message) == 2
                    and self._on_interim is not None):
                self._on_interim(message[1])
        elif kind == "goodbye":
            self._worker_lost(remote, "goodbye", graceful=True)
        else:
            self._handle_reply(remote, message)

    def _register(self, remote: _Remote, name: object,
                  version: object) -> None:
        if version != PROTOCOL_VERSION:
            self._send(remote, (
                "error", f"protocol version {version} != {PROTOCOL_VERSION}",
            ))
            self._drop(remote)
            return
        remote.label = str(name or remote.label)
        remote.registered = True
        self.stats.n_workers_seen += 1
        self._workerless_since = None
        # workers derive their heartbeat cadence from the lease
        self._send(remote, ("welcome", self.dist.lease_seconds))

    def _handle_reply(self, remote: _Remote, reply: object) -> None:
        assignment = remote.assignment
        remote.assignment = None
        state = self._phase
        if state is None or assignment is None:
            return  # a stray reply: nothing to settle
        task = assignment.task
        if task.task_id not in state.live:
            # speculation loser or a lease-expired straggler that
            # finished after its replacement: first result won already
            self._unassign(state, assignment)
            return
        now = self._clock()
        seconds = now - assignment.started
        outcome, value = self._classify(
            task, reply, seconds, assignment.allowed, state.validator,
        )
        if outcome != OUTCOME_OK:
            self._attempt_failed(state, assignment, outcome, value,
                                 seconds, now,
                                 recorded=outcome == OUTCOME_ERROR)
            return
        self._deadlines.observe(seconds, self._payload_size(task.payload))
        state.ok_seconds.append(seconds)
        if assignment.speculative:
            self.stats.n_speculation_wins += 1
        self.stats.credit(remote.label)
        state.results.append(value)
        state.live.pop(task.task_id, None)
        # a re-queued copy may be waiting for retry — the result wins
        state.queue[:] = [t for t in state.queue if t is not task]
        state.inflight.pop(task.task_id, None)

    # ------------------------------------------------------------------
    # failure bookkeeping

    def _attempt_failed(
        self,
        state: _Phase,
        assignment: _Assignment,
        outcome: str,
        error: str,
        seconds: float,
        now: float,
        recorded: bool = False,
    ) -> None:
        """One assignment failed; fail the *task* only when none survive."""
        task = assignment.task
        self._unassign(state, assignment)
        if state.inflight.get(task.task_id):
            # a speculative twin is still running — let it race on
            if not recorded:
                task.record.attempts.append(AttemptRecord(
                    attempt=task.attempt, outcome=outcome,
                    seconds=seconds, error=error,
                ))
            return
        was_poisoned = task.record.poisoned
        was_bisected = task.record.bisected
        self._failed(
            task, outcome, error, seconds, now,
            state.queue, state.results,
            state.splitter, state.poisoner, recorded=recorded,
        )
        if task.record.poisoned and not was_poisoned:
            state.live.pop(task.task_id, None)
        elif task.record.bisected and not was_bisected:
            # children entered the queue via _make_task; register them
            state.live.pop(task.task_id, None)
            for child in state.queue:
                state.live.setdefault(child.task_id, child)

    def _unassign(self, state: _Phase, assignment: _Assignment) -> None:
        tid = assignment.task.task_id
        copies = state.inflight.get(tid)
        if not copies:
            return
        copies[:] = [a for a in copies if a is not assignment]
        if not copies:
            del state.inflight[tid]

    # ------------------------------------------------------------------
    # dispatch / speculation / expiry

    def _idle_workers(self) -> List[_Remote]:
        return [r for r in self._remotes
                if r.registered and r.assignment is None]

    def _dispatch(self, state: _Phase, now: float) -> None:
        state.queue.sort(key=lambda t: (t.ready_at, t.seq))
        for remote in self._idle_workers():
            task = self._pop_ready(state.queue, now)
            if task is None:
                break
            self._assign(state, remote, task, now)

    def _assign(
        self,
        state: _Phase,
        remote: _Remote,
        task: _Task,
        now: float,
        speculative: bool = False,
    ) -> None:
        allowed = self._deadlines.effective(
            self._payload_size(task.payload)
        )
        assignment = _Assignment(
            task=task, started=now,
            lease_expiry=now + self.dist.lease_seconds,
            deadline=(now + allowed) if allowed is not None else None,
            allowed=allowed, speculative=speculative,
        )
        remote.assignment = assignment
        if not self._send(remote,
                          (state.runner_ref, task.payload, task.attempt)):
            return  # _worker_lost already requeued it
        state.inflight.setdefault(task.task_id, []).append(assignment)
        self.stats.n_tasks_dispatched += 1
        self.dispatch.n_round_trips += 1
        self.dispatch.n_tasks_dispatched += 1
        if speculative:
            self.stats.n_speculated += 1

    def _maybe_speculate(self, state: _Phase, now: float) -> None:
        if not self.dist.speculate:
            return
        if len(state.ok_seconds) < max(
                1, self.dist.speculation_min_observations):
            return
        if state.queue and state.queue[0].ready_at <= now:
            return  # real work first
        idle = self._idle_workers()
        if not idle:
            return
        ordered = sorted(state.ok_seconds)
        median = ordered[len(ordered) // 2]
        threshold = self.dist.speculation_factor * median
        candidates = [
            copies[0]
            for tid, copies in state.inflight.items()
            if len(copies) == 1 and not copies[0].speculative
            and now - copies[0].started > threshold
            and tid in state.live
        ]
        candidates.sort(key=lambda a: a.started)  # slowest first
        for remote, assignment in zip(idle, candidates):
            self._assign(state, remote, assignment.task, now,
                         speculative=True)

    def _expire(self, state: _Phase) -> None:
        for remote in list(self._remotes):
            # unread data first: a reply or heartbeat queued behind a
            # stalled peer wins over the clock
            while (remote.assignment is not None
                   and remote.assignment.lapsed(self._clock())
                   and remote.conn.poll()):
                self._receive(remote)
            assignment = remote.assignment
            if assignment is None:
                continue
            now = self._clock()
            # a zombie copy (its twin already won) only holds its
            # worker until the lease lapses
            live = assignment in state.inflight.get(
                assignment.task.task_id, ())
            if now > assignment.lease_expiry:
                self.stats.n_lease_expiries += 1
                error = (f"lease expired: no heartbeat within "
                         f"{self.dist.lease_seconds:g}s")
            elif live and assignment.deadline is not None \
                    and now > assignment.deadline:
                error = f"shard deadline of {assignment.allowed:g}s exceeded"
            else:
                continue
            # the worker is unresponsive or wedged — drop it so it can
            # never send a stale result for a re-dispatched lease
            self._drop(remote)
            self.stats.n_workers_lost += 1
            if live:
                self._attempt_failed(
                    state, assignment, OUTCOME_TIMEOUT, error,
                    now - assignment.started, now,
                )

    def _check_workerless(self, state: _Phase, now: float) -> None:
        if self.dist.no_worker_timeout is None:
            return
        if self.n_workers > 0 or not state.live:
            self._workerless_since = None
            return
        if self._workerless_since is None:
            self._workerless_since = now
            return
        if now - self._workerless_since > self.dist.no_worker_timeout:
            raise WorkerCrash(
                f"cluster had no registered workers for "
                f"{self.dist.no_worker_timeout:g}s with "
                f"{len(state.live)} task(s) outstanding"
            )

    def _wait_timeout(self, state: _Phase, now: float) -> float:
        horizons = [_POLL_SECONDS]
        for remote in self._remotes:
            assignment = remote.assignment
            if assignment is not None:
                horizons.append(assignment.lease_expiry - now)
                if assignment.deadline is not None:
                    horizons.append(assignment.deadline - now)
        if state.queue and self._idle_workers():
            horizons.append(state.queue[0].ready_at - now)
        return max(0.0, min(horizons))

    # ------------------------------------------------------------------
    # worker loss

    def _worker_lost(
        self, remote: _Remote, reason: str, graceful: bool = False
    ) -> None:
        assignment = remote.assignment
        was_registered = remote.registered
        self._drop(remote)
        if was_registered:
            self.stats.n_workers_lost += 1
        state = self._phase
        if state is None or assignment is None:
            return
        if assignment.task.task_id not in state.live:
            self._unassign(state, assignment)
            return
        now = self._clock()
        label = "left" if graceful else "died"
        self._attempt_failed(
            state, assignment, OUTCOME_CRASH,
            f"worker {remote.label} {label} holding the lease ({reason})",
            now - assignment.started, now,
        )

    def _drop(self, remote: _Remote) -> None:
        remote.conn.close()
        remote.registered = False
        remote.assignment = None
        if remote in self._remotes:
            self._remotes.remove(remote)

    def __repr__(self) -> str:
        where = (f"{self.address[0]}:{self.address[1]}"
                 if self.address else "unbound")
        return (f"<Coordinator {where}, {self.n_workers} worker(s), "
                f"{self.stats.n_tasks_dispatched} dispatched>")

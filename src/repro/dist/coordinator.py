"""The cluster coordinator: lease-based shard dispatch over TCP.

The :class:`Coordinator` is the distributed twin of the in-process
:class:`~repro.mining.supervisor.ShardSupervisor`: it owns a listening
socket instead of a process pool, and worker daemons
(:mod:`repro.dist.worker`) pull shard tasks over the wire instead of
being forked.  Everything *above* the transport is deliberately
identical — both dispatchers extend
:class:`~repro.mining.supervisor.TaskScheduler`, so retries, backoff,
poison-shard bisection, strict-mode fail-fast and the
:class:`~repro.mining.supervisor.FailureLedger` behave byte-for-byte
the same whether a worker is a local child process or a machine across
the network.

Failure model (mapping onto the existing taxonomy):

* **worker death** — EOF / reset on the connection while a task is
  leased is the remote analogue of EOF on a result pipe: the attempt
  is recorded as a *crash* and the task re-enters the queue
  (eventually bisecting down to a ``worker-crash`` quarantine);
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
  worker; the first result wins and duplicates are deduplicated by
  task id, so stragglers bound tail latency without changing results.

Determinism: like local supervision, distribution changes *scheduling*
only.  Results fold through the same order-canonicalised
``ShardPartial`` monoid, so a loopback cluster of N workers produces
specs and quarantine manifest byte-identical to ``--jobs N`` on one
machine.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dist.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    pack_payload,
    runner_ref,
    unpack_payload,
)
from repro.mining.supervisor import (
    OUTCOME_CRASH,
    OUTCOME_CORRUPT,
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

#: socket timeout for (blocking) sends to a worker; a peer that cannot
#: drain a task frame in this long is treated as lost
_SEND_TIMEOUT = 30.0


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


@dataclass
class _Remote:
    """One worker connection and its registration/lease state."""

    sock: socket.socket
    addr: Tuple[str, int]
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    name: str = ""
    registered: bool = False
    idle: bool = False
    assignment: Optional["_Assignment"] = None

    @property
    def label(self) -> str:
        return self.name or f"{self.addr[0]}:{self.addr[1]}"


@dataclass
class _Assignment:
    """One live dispatch of one task to one worker."""

    task: _Task
    remote: _Remote
    started: float
    lease_expiry: float
    deadline: Optional[float]  # absolute, from the shard deadline
    allowed: Optional[float]  # the same deadline in relative seconds
    speculative: bool = False


class _Phase:
    """Mutable state of one ``run_phase`` call."""

    def __init__(self, runner: Callable, splitter, poisoner, validator):
        self.runner_ref = runner_ref(runner)
        self.splitter = splitter
        self.poisoner = poisoner
        self.validator = validator
        self.queue: List[_Task] = []
        self.results: List[object] = []
        self.live: Dict[str, _Task] = {}
        self.inflight: Dict[str, List[_Assignment]] = {}
        self.done: Set[str] = set()
        self.ok_seconds: List[float] = []
        self.error: Optional[BaseException] = None  # strict-mode carry


def _wire_id(task: _Task) -> str:
    """Phase-qualified task id (task ids alone repeat across phases)."""
    return f"{task.record.phase}:{task.task_id}"


class Coordinator(TaskScheduler):
    """Socket server that leases shard tasks to remote workers.

    One instance serves every phase of one mining run.  Like the
    supervisor, ``clock`` is injectable and must be monotone.  The
    inherited ``dispatch`` counters are filled where task frames are
    written and worker frames read.
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
        self._selector: Optional[selectors.BaseSelector] = None
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
        self._selector = selectors.DefaultSelector()
        self._selector.register(server, selectors.EVENT_READ, data=None)
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
            if shutdown_workers:
                try:
                    remote.sock.settimeout(_SEND_TIMEOUT)
                    remote.sock.sendall(encode_frame({"type": "shutdown"}))
                except OSError:
                    pass
            self._drop(remote)
        if self._server is not None:
            try:
                self._selector.unregister(self._server)
            except (KeyError, ValueError):
                pass
            self._server.close()
            self._server = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None

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
            state.live[_wire_id(task)] = task
        try:
            while state.live:
                now = self._clock()
                self._check_workerless(state, now)
                self._dispatch(state, now)
                self._maybe_speculate(state, now)
                self._pump(self._wait_timeout(state, now))
                self._expire(state)
                if state.error is not None:
                    raise state.error
        finally:
            # late results of an abandoned phase must not leak into
            # the next one
            self._phase = None
            self._on_interim = None
            for remote in self._remotes:
                remote.assignment = None
        return state.results

    # ------------------------------------------------------------------
    # event pump

    def _pump(self, timeout: Optional[float]) -> None:
        if self._selector is None:
            return
        for key, _ in self._selector.select(timeout):
            if key.data is None:
                self._accept()
            else:
                self._receive(key.data)

    def _accept(self) -> None:
        try:
            sock, addr = self._server.accept()
        except OSError:
            return
        sock.setblocking(False)
        remote = _Remote(sock=sock, addr=addr)
        self._remotes.append(remote)
        self._selector.register(sock, selectors.EVENT_READ, data=remote)

    def _receive(self, remote: _Remote) -> None:
        chunks: List[bytes] = []
        closed = False
        while True:
            try:
                data = remote.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                closed = True
                break
            if not data:
                closed = True
                break
            self.dispatch.bytes_received += len(data)
            chunks.append(data)
        for chunk in chunks:
            try:
                messages = remote.decoder.feed(chunk)
            except ProtocolError:
                self._worker_lost(remote, "protocol error")
                return
            for message in messages:
                self._handle_message(remote, message)
                if remote.sock.fileno() < 0:
                    return  # handler dropped the connection
        if closed:
            self._worker_lost(remote, "connection closed")

    def _send(self, remote: _Remote, message: Dict[str, object]) -> bool:
        return self._send_frame(remote, encode_frame(message))

    def _send_frame(self, remote: _Remote, frame: bytes) -> bool:
        try:
            remote.sock.settimeout(_SEND_TIMEOUT)
            remote.sock.sendall(frame)
            remote.sock.setblocking(False)
            return True
        except OSError:
            self._worker_lost(remote, "send failed")
            return False

    # ------------------------------------------------------------------
    # message handling

    def _handle_message(
        self, remote: _Remote, message: Dict[str, object]
    ) -> None:
        kind = message.get("type")
        if kind == "hello":
            version = message.get("version")
            if version != PROTOCOL_VERSION:
                self._send(remote, {
                    "type": "error",
                    "error": f"protocol version {version} != "
                             f"{PROTOCOL_VERSION}",
                })
                self._drop(remote)
                return
            remote.name = str(message.get("worker") or remote.label)
            remote.registered = True
            self.stats.n_workers_seen += 1
            self._workerless_since = None
            self._send(remote, {
                "type": "welcome", "version": PROTOCOL_VERSION,
                # workers derive their heartbeat cadence from the lease
                "lease": self.dist.lease_seconds,
            })
        elif kind == "ready":
            remote.idle = True
        elif kind == "heartbeat":
            assignment = remote.assignment
            if (assignment is not None
                    and _wire_id(assignment.task) == message.get("task_id")):
                assignment.lease_expiry = (
                    self._clock() + self.dist.lease_seconds
                )
        elif kind == "interim":
            # an undecodable item is dropped: the task's result still
            # carries its program, only that program's journal record
            # (one re-analysis on the next run) is lost
            if self._on_interim is not None:
                try:
                    item = unpack_payload(str(message.get("payload")))
                except Exception:
                    return
                self._on_interim(item)
        elif kind == "result":
            self._handle_result(remote, message)
        elif kind == "goodbye":
            self._worker_lost(remote, "goodbye", graceful=True)

    def _handle_result(
        self, remote: _Remote, message: Dict[str, object]
    ) -> None:
        state = self._phase
        now = self._clock()
        tid = str(message.get("task_id"))
        assignment = remote.assignment
        remote.assignment = None
        if state is None:
            return
        mine = assignment if (
            assignment is not None and _wire_id(assignment.task) == tid
        ) else None
        task = state.live.get(tid)
        if task is None:
            # speculation loser or a lease-expired straggler that
            # finished after its replacement: first result won already
            if mine is not None:
                self._unassign(state, tid, mine)
            return
        seconds = now - (mine.started if mine is not None else now)
        status = message.get("status")
        if status == "ok":
            result: object = None
            valid = False
            started = time.perf_counter()
            try:
                result = unpack_payload(str(message.get("payload")))
                valid = state.validator(result)
            except Exception:
                valid = False
            self.dispatch.seconds_deserialize += \
                time.perf_counter() - started
            if valid:
                self._accept_result(state, remote, task, mine, result,
                                    seconds, now)
                return
            self._attempt_failed(
                state, task, mine, OUTCOME_CORRUPT,
                "worker result failed validation (corrupt payload)",
                seconds, now,
            )
            return
        if status == "error":
            try:
                err = unpack_payload(str(message.get("payload")))
            except Exception:
                err = RuntimeError(str(message.get("error", "unknown")))
            if not isinstance(err, BaseException):
                err = RuntimeError(str(err))
            task.record.attempts.append(AttemptRecord(
                attempt=task.attempt, outcome=OUTCOME_ERROR,
                seconds=seconds, error=f"{type(err).__name__}: {err}",
            ))
            if mine is not None:
                self._unassign(state, tid, mine)
            if self.strict:
                # fail fast with the worker's typed error intact
                state.error = err
                return
            self._attempt_failed(
                state, task, None, OUTCOME_ERROR,
                f"{type(err).__name__}: {err}", seconds, now,
                recorded=True,
            )
            return
        # an unrecognised status
        self._attempt_failed(
            state, task, mine, OUTCOME_CORRUPT,
            str(message.get("error") or "corrupt worker payload"),
            seconds, now,
        )

    # ------------------------------------------------------------------
    # result / failure bookkeeping

    def _accept_result(
        self,
        state: _Phase,
        remote: _Remote,
        task: _Task,
        mine: Optional[_Assignment],
        result: object,
        seconds: float,
        now: float,
    ) -> None:
        allowed = mine.allowed if mine is not None else None
        straggler = (
            allowed is not None
            and seconds > self.supervision.straggler_fraction * allowed
        )
        task.record.attempts.append(AttemptRecord(
            attempt=task.attempt, outcome=OUTCOME_OK,
            seconds=seconds, straggler=bool(straggler),
        ))
        self._deadlines.observe(seconds, self._payload_size(task.payload))
        state.ok_seconds.append(seconds)
        if mine is not None and mine.speculative:
            self.stats.n_speculation_wins += 1
        self.stats.credit(remote.label)
        tid = _wire_id(task)
        state.results.append(result)
        state.done.add(tid)
        state.live.pop(tid, None)
        # a re-queued copy may be waiting for retry — the result wins
        state.queue[:] = [t for t in state.queue if t is not task]
        state.inflight.pop(tid, None)  # zombie copies dedup via `done`

    def _attempt_failed(
        self,
        state: _Phase,
        task: _Task,
        mine: Optional[_Assignment],
        outcome: str,
        error: str,
        seconds: float,
        now: float,
        recorded: bool = False,
    ) -> None:
        """One assignment failed; fail the *task* only when none survive."""
        tid = _wire_id(task)
        if mine is not None:
            self._unassign(state, tid, mine)
        if state.inflight.get(tid):
            # a speculative twin is still running — let it race on
            if not recorded:
                task.record.attempts.append(AttemptRecord(
                    attempt=task.attempt, outcome=outcome,
                    seconds=seconds, error=error,
                ))
            return
        was_poisoned = task.record.poisoned
        was_bisected = task.record.bisected
        try:
            self._failed(
                task, outcome, error, seconds, now,
                state.queue, state.results,
                state.splitter, state.poisoner, recorded=recorded,
            )
        except BaseException as err:  # strict-mode WorkerCrash/Timeout
            state.error = err
            return
        if task.record.poisoned and not was_poisoned:
            state.live.pop(tid, None)
            state.done.add(tid)
        elif task.record.bisected and not was_bisected:
            # children entered the queue via _make_task; register them
            state.live.pop(tid, None)
            for child in state.queue:
                state.live.setdefault(_wire_id(child), child)

    def _unassign(
        self, state: _Phase, tid: str, assignment: _Assignment
    ) -> None:
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
                if r.registered and r.idle and r.assignment is None]

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
        tid = _wire_id(task)
        assignment = _Assignment(
            task=task, remote=remote, started=now,
            lease_expiry=now + self.dist.lease_seconds,
            deadline=(now + allowed) if allowed is not None else None,
            allowed=allowed, speculative=speculative,
        )
        remote.idle = False
        remote.assignment = assignment
        started = time.perf_counter()
        frame = encode_frame({
            "type": "task",
            "task_id": tid,
            "phase": task.record.phase,
            "attempt": task.attempt,
            "runner": state.runner_ref,
            "payload": pack_payload(task.payload),
        })
        self.dispatch.seconds_serialize += time.perf_counter() - started
        if not self._send_frame(remote, frame):
            return  # _worker_lost already requeued it
        state.inflight.setdefault(tid, []).append(assignment)
        self.stats.n_tasks_dispatched += 1
        self.dispatch.n_round_trips += 1
        self.dispatch.n_tasks_dispatched += 1
        self.dispatch.bytes_sent += len(frame)
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
        now = self._clock()
        expired: List[Tuple[_Assignment, str, str]] = []
        for copies in state.inflight.values():
            for assignment in copies:
                if now > assignment.lease_expiry:
                    expired.append((
                        assignment, OUTCOME_TIMEOUT,
                        f"lease expired: no heartbeat within "
                        f"{self.dist.lease_seconds:g}s",
                    ))
                    self.stats.n_lease_expiries += 1
                elif (assignment.deadline is not None
                        and now > assignment.deadline):
                    expired.append((
                        assignment, OUTCOME_TIMEOUT,
                        f"shard deadline of {assignment.allowed:g}s "
                        f"exceeded",
                    ))
        for assignment, outcome, error in expired:
            task = assignment.task
            # the worker is unresponsive or wedged — drop it so it can
            # never send a stale result for a re-dispatched lease
            self._drop(assignment.remote)
            self.stats.n_workers_lost += 1
            if _wire_id(task) not in state.live:
                self._unassign(state, _wire_id(task), assignment)
                continue
            self._attempt_failed(
                state, task, assignment, outcome, error,
                now - assignment.started, now,
            )
        # zombie leases: a worker still holding a task whose twin
        # already won (speculation / re-dispatch) leaves inflight when
        # the result is accepted, so reclaim it here once its lease
        # lapses — otherwise a silent loser pins its worker forever
        for remote in list(self._remotes):
            assignment = remote.assignment
            if assignment is None or now <= assignment.lease_expiry:
                continue
            copies = state.inflight.get(_wire_id(assignment.task), [])
            if assignment in copies:
                continue  # live copy: handled above
            self.stats.n_lease_expiries += 1
            self.stats.n_workers_lost += 1
            self._drop(remote)

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
        for copies in state.inflight.values():
            for assignment in copies:
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
        task = assignment.task
        tid = _wire_id(task)
        if tid not in state.live:
            self._unassign(state, tid, assignment)
            return
        now = self._clock()
        label = "left" if graceful else "died"
        self._attempt_failed(
            state, task, assignment, OUTCOME_CRASH,
            f"worker {remote.label} {label} holding the lease ({reason})",
            now - assignment.started, now,
        )

    def _drop(self, remote: _Remote) -> None:
        try:
            self._selector.unregister(remote.sock)
        except (KeyError, ValueError):
            pass
        try:
            remote.sock.close()
        except OSError:
            pass
        remote.registered = False
        remote.idle = False
        remote.assignment = None
        if remote in self._remotes:
            self._remotes.remove(remote)

    def __repr__(self) -> str:
        where = (f"{self.address[0]}:{self.address[1]}"
                 if self.address else "unbound")
        return (f"<Coordinator {where}, {self.n_workers} worker(s), "
                f"{self.stats.n_tasks_dispatched} dispatched>")

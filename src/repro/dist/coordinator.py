"""The cluster coordinator: accepts worker daemons into the one
dispatch loop.

The :class:`Coordinator` is the :class:`~repro.mining.supervisor.
TaskScheduler` whose workers arrive over TCP instead of being spawned:
worker daemons (:mod:`repro.dist.worker`) connect, register, and are
leased shard tasks by the same loop that drives local worker processes.
Reply classification, leases and deadlines, retries that resume after
the last settled program, backoff, poisoning, strict-mode fail-fast
and the :class:`~repro.mining.supervisor.FailureLedger` are therefore
byte-for-byte the same whether a worker is a local child process or a
machine across the network.  This module adds only what accepting
peers need: the listening socket, registration with its version check,
waiting for a quorum of workers, and aborting when the cluster has had
no workers for too long.

Transport: each accepted socket is wrapped in a
:class:`multiprocessing.connection.Connection` — the type, frame
format and message tuples of the pool's pipes (see
:mod:`repro.dist.protocol`) — and one
:func:`multiprocessing.connection.wait` call multiplexes the listener
and every worker.  Blocking reads and writes on a connection are
bounded by a 30 s I/O timeout (``SO_RCVTIMEO``/``SO_SNDTIMEO``), so a
peer stalled mid-frame is dropped instead of wedging the loop.  Both
ends set ``TCP_NODELAY``: ``Connection`` writes the 4-byte header of a
large frame as a send of its own, and Nagle's algorithm would hold the
frame's body back until that header is acknowledged.

Failure model (mapping onto the existing taxonomy):

* **worker death** — EOF / reset on the connection while a task is
  leased is the remote analogue of EOF on a result pipe: the attempt
  is recorded as a *crash* and the task re-enters the queue with the
  programs the worker had not settled (a program that keeps failing
  ends as a ``worker-crash`` quarantine);
* **protocol violation** — a frame that is oversized, truncated or
  not a pickle, or any first message but ``hello``, drops the
  connection the same way;
* **lease expiry** — every dispatched task carries a lease that
  heartbeats renew; a worker that stops heartbeating (network
  partition, paused VM, hard hang) loses the lease, the attempt is
  recorded as a *timeout*, the connection is dropped and the task is
  re-dispatched — the remote analogue of the watchdog deadline;
* **per-attempt deadline** — the ``--shard-deadline`` wall clock,
  counted from dispatch, also applies remotely: a worker that
  heartbeats but never finishes is dropped and the attempt recorded
  as a *timeout*.  This is the only rule for a slow attempt: no second
  copy of a task ever runs, so a hang costs one timeout and one
  worker, whichever workers sit idle.

Determinism: like local supervision, distribution changes *scheduling*
only.  A worker streams each program it settles in an ``interim``
frame, the engine folds it once by program key whichever worker sent
it, and a task's reply carries only the shard's wall-clock, so a
loopback cluster of N workers produces specs and quarantine manifest
byte-identical to ``--jobs N`` on one machine.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Callable, Optional, Tuple

from repro.dist.protocol import PROTOCOL_VERSION, runner_ref
from repro.mining.supervisor import (
    _POLL_SECONDS,
    FailureLedger,
    SupervisionConfig,
    TaskScheduler,
    _Worker,
)
from repro.runtime.errors import WorkerCrash

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
    #: abort (WorkerCrash) if work is queued but the cluster has had no
    #: registered workers for this long; None = wait forever
    no_worker_timeout: Optional[float] = None


class Coordinator(TaskScheduler):
    """Socket server that leases shard tasks to remote workers.

    One instance serves every phase of one mining run; the inherited
    ``dispatch`` and ``stats`` counters are filled by the loop.
    """

    def __init__(
        self,
        dist: Optional[DistConfig] = None,
        supervision: Optional[SupervisionConfig] = None,
        *,
        strict: bool = False,
        ledger: Optional[FailureLedger] = None,
    ) -> None:
        super().__init__(supervision, strict=strict, ledger=ledger)
        self.dist = dist or DistConfig()
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[socket.socket] = None
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

    @property
    def n_workers(self) -> int:
        return sum(1 for w in self._workers if w.registered)

    def wait_for_workers(
        self, n: int, timeout: Optional[float] = None
    ) -> int:
        """Pump the event loop until ``n`` workers are registered."""
        self.bind()
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.n_workers < n:
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerCrash(
                    f"only {self.n_workers}/{n} workers registered "
                    f"within {timeout:g}s"
                )
            self._pump(_POLL_SECONDS)
        return self.n_workers

    def close(self, shutdown_workers: bool = True) -> None:
        """Drop every connection (optionally telling workers to exit)."""
        super().close(shutdown_workers)
        if self._server is not None:
            self._server.close()
            self._server = None

    # ------------------------------------------------------------------
    # how accepted workers arrive

    def _ensure_workers(self) -> None:
        """Listen for workers; abort once the cluster has had none for
        ``no_worker_timeout`` seconds while a phase has work."""
        self.bind()
        limit = self.dist.no_worker_timeout
        if limit is None or self.n_workers > 0 or self._phase is None:
            self._workerless_since = None
            return
        now = time.monotonic()
        if self._workerless_since is None:
            self._workerless_since = now
        elif now - self._workerless_since > limit:
            raise WorkerCrash(
                f"cluster had no registered workers for {limit:g}s with "
                f"{len(self._phase.live)} task(s) outstanding"
            )

    def _sources(self):
        return [self._server] if self._server is not None else []

    def _accept(self, source) -> None:
        try:
            sock, (host, port) = source.accept()
        except OSError:
            return
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # bound blocking I/O on the fd itself: Connection reads and
        # writes the raw descriptor, and settimeout would leave it
        # non-blocking
        seconds = int(_IO_TIMEOUT)
        timeval = struct.pack(
            "ll", seconds, int((_IO_TIMEOUT - seconds) * 1e6))
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            sock.setsockopt(socket.SOL_SOCKET, option, timeval)
        self._workers.append(_Worker(
            conn=Connection(sock.detach()), label=f"{host}:{port}",
        ))

    def _hello(self, worker: _Worker, message: object) -> None:
        """An unregistered peer may only say hello, with our version."""
        if not (isinstance(message, tuple) and len(message) == 3
                and message[0] == "hello"):
            self._drop(worker)
            return
        _, name, version = message
        if version != PROTOCOL_VERSION:
            self._send(worker, (
                "error", f"protocol version {version} != {PROTOCOL_VERSION}",
            ))
            self._drop(worker)
            return
        worker.label = str(name or worker.label)
        worker.registered = True
        worker.lease = self.dist.lease_seconds
        self.stats.n_workers_seen += 1
        self._workerless_since = None
        # workers derive their heartbeat cadence from the lease
        if not self._send(worker, ("welcome", self.dist.lease_seconds)):
            self._worker_lost(worker, "send failed")

    def _wire_runner(self, runner: Callable) -> str:
        """Runners cross the wire by name; the worker imports them."""
        return runner_ref(runner)

    def __repr__(self) -> str:
        where = (f"{self.address[0]}:{self.address[1]}"
                 if self.address else "unbound")
        return (f"<Coordinator {where}, {self.n_workers} worker(s), "
                f"{self.stats.n_tasks_dispatched} dispatched>")

"""Asyncio front-end over the mining supervisor's worker subprocesses.

The serve daemon must never analyse a snippet in-process: client code
is untrusted input, and a segfault, runaway recursion, or memory blow-
up inside the Andersen solver would take the whole service down.  This
module reuses the supervisor's child loop
(:func:`repro.mining.supervisor._pool_main` — the exact process the
mining engine supervises, with its one job contract: one ``(runner,
payload, attempt)`` frame, one reply) and rebuilds the *parent* side
for an event loop: sockets are registered with ``loop.add_reader``
instead of ``connection.wait`` polling, and each in-flight job gets a
``call_later`` watchdog instead of a scheduler sweep.  Worker faults
come only from the fault plan a job's payload carries.

Failure detection is the supervisor's taxonomy, one-shot per request:

* **EOF on the socket** → the child died mid-job → the waiting future
  gets :class:`~repro.runtime.errors.WorkerCrash` and the worker is
  respawned.  Every *other* in-flight request has its own worker and
  never notices.
* **watchdog fires** → the child is killed, the future gets
  :class:`~repro.runtime.errors.WorkerTimeout`, respawn.
* **shape validation fails** → the reply is treated as corrupt
  (:class:`~repro.runtime.errors.WorkerCrash` with a corrupt label,
  counted in ``corrupt``) — a garbled socket is indistinguishable from a
  garbled worker.

Retry policy deliberately does *not* live here: the pool reports each
failure once, and the server decides whether to retry, serve a cached
reply, or trip the circuit breaker.

Each worker is a fresh interpreter (:func:`worker_command`), started
without spawn's resource tracker, that pays its boot and imports on
its first job, so the pool sends every spawned or respawned worker a
``warmup`` job before any request.  A worker takes requests, and
counts towards :attr:`AnalysisPool.healthy`, only once it has answered.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import socket
import subprocess
import sys
from multiprocessing.connection import Connection
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.runtime.errors import WorkerCrash, WorkerTimeout

#: shape-validation failures carry this prefix (tested by the server)
CORRUPT_PREFIX = "corrupt reply"

#: a pool worker's program; importing this module would load asyncio
_WORKER_MAIN = ("import sys; sys.path[:] = sys.argv[2:]; "
                "from multiprocessing.connection import Connection; "
                "from repro.mining.supervisor import _pool_main; "
                "_pool_main(Connection(int(sys.argv[1])))")


def worker_command(fd: int) -> List[str]:
    """A pool worker's command line: this interpreter, with the flags
    spawn would pass it and this process's ``sys.path``, running the
    supervisor's job loop on socket ``fd``."""
    return [sys.executable, *subprocess._args_from_interpreter_flags(),
            "-c", _WORKER_MAIN, str(fd), *sys.path]


class PoolClosed(RuntimeError):
    """Submission after :meth:`AnalysisPool.drain` began."""


class _Worker:
    """One supervised child process plus its parent-side socket."""

    __slots__ = ("label", "process", "conn", "job", "warm")

    def __init__(self, label: str, process, conn) -> None:
        self.label = label
        self.process = process
        self.conn = conn
        #: the in-flight (future, watchdog handle) pair, or None
        self.job: Optional[Tuple[asyncio.Future, Optional[asyncio.TimerHandle]]] = None
        #: False while the warm-up job is in flight
        self.warm = False

    @property
    def busy(self) -> bool:
        return self.job is not None


class AnalysisPool:
    """A fixed-size pool of analysis subprocesses on an event loop.

    ``validator`` is the shape check applied to every ``("ok", ...)``
    reply (default: accept anything) — the supervisor's corrupt-result
    guard, applied at the trust boundary where pickled bytes become a
    client-visible reply.  ``warmup`` returns the ``(runner, payload)``
    job each new worker runs first; its reply, whatever it is, only
    marks the worker warm.
    """

    def __init__(
        self,
        size: int = 2,
        *,
        warmup: Callable[[], Tuple[Callable, Any]],
        validator: Optional[Callable[[object], bool]] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.validator = validator
        self.warmup = warmup
        self._loop = loop or asyncio.get_event_loop()
        self._workers: Dict[str, _Worker] = {}
        self._idle: Deque[str] = collections.deque()
        self._backlog: Deque[Tuple[asyncio.Future, object, object,
                                   Optional[float], int]] = \
            collections.deque()
        self._labels = itertools.count(1)
        self._generation = itertools.count(1)
        self._closed = False
        self._drained = asyncio.Event()
        self.crashes = 0
        self.timeouts = 0
        self.corrupt = 0
        self.respawns = 0
        for _ in range(size):
            self._spawn()

    # ------------------------------------------------------------------
    # lifecycle

    def _spawn(self) -> _Worker:
        label = f"serve-w{next(self._labels)}.g{next(self._generation)}"
        ours, theirs = socket.socketpair()
        with ours, theirs:
            # close_fds: a respawned worker holding dups of live client
            # sockets would keep them half-open after the daemon closes
            process = subprocess.Popen(
                worker_command(theirs.fileno()), stdin=subprocess.DEVNULL,
                close_fds=True, pass_fds=(theirs.fileno(),))
            parent_conn = Connection(ours.detach())
        worker = _Worker(label, process, parent_conn)
        self._workers[label] = worker
        runner, payload = self.warmup()
        try:
            parent_conn.send((runner, payload, 0))
        except OSError:
            pass  # dead already: the reader sees EOF and respawns
        self._loop.add_reader(parent_conn.fileno(),
                              self._on_readable, label)
        return worker

    def _discard(self, worker: _Worker) -> None:
        """Tear one worker down (reader, socket, process)."""
        try:
            self._loop.remove_reader(worker.conn.fileno())
        except (OSError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.kill()  # skips a worker that has exited
        worker.process.wait()
        self._workers.pop(worker.label, None)
        try:
            self._idle.remove(worker.label)
        except ValueError:
            pass

    def _respawn(self) -> None:
        if self._closed:
            self._maybe_drained()
            return
        self.respawns += 1
        self._spawn()
        self._pump()

    # ------------------------------------------------------------------
    # submission

    def submit(self, runner, payload,
               deadline_seconds: Optional[float] = None,
               attempt: int = 0) -> asyncio.Future:
        """Queue one job; the future resolves with the runner's result.

        ``deadline_seconds`` arms the watchdog from *dispatch* (not
        submission — queueing delay is the admission layer's problem,
        already bounded by ``--max-queue``).  ``attempt`` is what the
        runner sees as its attempt number: the caller's retry count.
        """
        if self._closed:
            raise PoolClosed("analysis pool is draining")
        future: asyncio.Future = self._loop.create_future()
        self._backlog.append((future, runner, payload, deadline_seconds,
                              attempt))
        self._pump()
        return future

    def _pump(self) -> None:
        while self._backlog and self._idle:
            label = self._idle.popleft()
            worker = self._workers.get(label)
            if worker is None or worker.busy:
                continue
            job = self._backlog.popleft()
            future, runner, payload, deadline, attempt = job
            if future.cancelled():
                self._idle.appendleft(label)
                continue
            try:
                worker.conn.send((runner, payload, attempt))
            except (BrokenPipeError, OSError):
                # died while idle: the job never started, so requeue it
                # (invisible to the caller) and replace the worker
                self._backlog.appendleft(job)
                self.crashes += 1
                self._discard(worker)
                self._respawn()
                continue
            handle = None
            if deadline is not None:
                handle = self._loop.call_later(
                    deadline, self._on_deadline, label)
            worker.job = (future, handle)

    @staticmethod
    def _fail_job(future: asyncio.Future, err: Exception) -> None:
        if not future.done():
            future.set_exception(err)

    # ------------------------------------------------------------------
    # event-loop callbacks

    def _on_readable(self, label: str) -> None:
        worker = self._workers.get(label)
        if worker is None:
            return
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._on_crash(worker)
            return
        job, worker.job = worker.job, None
        if job is None:
            if not worker.warm:  # the warm-up's reply
                worker.warm = True
                self._idle.append(label)
                self._pump()
            return  # else a stray reply from a reclaimed job; drop it
        future, handle = job
        if handle is not None:
            handle.cancel()
        self._resolve(future, message, worker.label)
        self._idle.append(label)
        self._pump()
        self._maybe_drained()

    def _resolve(self, future: asyncio.Future, message, label: str) -> None:
        status, value = message if isinstance(message, tuple) \
            and len(message) == 2 else (None, None)
        if status == "ok" and (self.validator is None
                               or self.validator(value)):
            if not future.done():
                future.set_result(value)
        elif status == "error" and isinstance(value, BaseException):
            self._fail_job(future, value)
        else:
            self.corrupt += 1
            self._fail_job(future, WorkerCrash(
                f"{CORRUPT_PREFIX} from {label} (status {status!r})",
            ))

    def _on_crash(self, worker: _Worker) -> None:
        self.crashes += 1
        job, worker.job = worker.job, None
        if job is not None:
            future, handle = job
            if handle is not None:
                handle.cancel()
            self._fail_job(future, WorkerCrash(
                f"analysis worker {worker.label} died mid-request",
            ))
        self._discard(worker)
        self._respawn()
        self._maybe_drained()

    def _on_deadline(self, label: str) -> None:
        worker = self._workers.get(label)
        if worker is None or worker.job is None:
            return
        self.timeouts += 1
        future, _ = worker.job
        worker.job = None
        self._fail_job(future, WorkerTimeout(
            f"analysis worker {worker.label} blew the request deadline",
        ))
        self._discard(worker)
        self._respawn()
        self._maybe_drained()

    # ------------------------------------------------------------------
    # health / drain

    @property
    def alive(self) -> int:
        return sum(1 for w in self._workers.values()
                   if w.process.poll() is None)

    @property
    def busy_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.busy)

    @property
    def backlog(self) -> int:
        return len(self._backlog)

    @property
    def healthy(self) -> bool:
        warm = sum(1 for w in self._workers.values()
                   if w.warm and w.process.poll() is None)
        return not self._closed and warm >= max(1, self.size // 2)

    def stats(self) -> Dict[str, int]:
        return {
            "size": self.size,
            "alive": self.alive,
            "busy": self.busy_count,
            "backlog": self.backlog,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "corrupt": self.corrupt,
            "respawns": self.respawns,
        }

    def _maybe_drained(self) -> None:
        if self._closed and not self._backlog and all(
            not w.busy for w in self._workers.values()
        ):
            self._drained.set()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new jobs, wait for in-flight ones, then tear down.

        Returns True when every in-flight job finished inside
        ``timeout``; False when stragglers had to be killed (their
        futures resolve via the crash path, so no caller hangs).
        """
        self._closed = True
        while self._backlog:  # nothing new is coming; fail the queue
            future = self._backlog.popleft()[0]
            self._fail_job(future, PoolClosed("pool drained"))
        self._maybe_drained()
        clean = True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
        except asyncio.TimeoutError:
            clean = False
        for worker in list(self._workers.values()):
            if worker.job is not None:
                future, handle = worker.job
                worker.job = None
                if handle is not None:
                    handle.cancel()
                self._fail_job(future, WorkerTimeout(
                    f"worker {worker.label} still busy at drain deadline",
                ))
            self._discard(worker)
        return clean

    def close(self) -> None:
        """Immediate synchronous teardown (tests, error paths)."""
        self._closed = True
        while self._backlog:
            future = self._backlog.popleft()[0]
            self._fail_job(future, PoolClosed("pool closed"))
        for worker in list(self._workers.values()):
            if worker.job is not None:
                future, handle = worker.job
                worker.job = None
                if handle is not None:
                    handle.cancel()
                self._fail_job(future, PoolClosed("pool closed"))
            self._discard(worker)
        self._drained.set()

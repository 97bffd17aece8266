"""Asyncio front-end over the mining supervisor's worker subprocesses.

The serve daemon must never analyse a snippet in-process: client code
is untrusted input, and a segfault, runaway recursion, or memory blow-
up inside the Andersen solver would take the whole service down.  This
module reuses the supervisor's child loop
(:func:`repro.mining.supervisor._pool_main` — the exact process the
mining engine supervises) and rebuilds the *parent* side for an event
loop: pipes are registered with ``loop.add_reader`` instead of
``selectors`` polling, and each in-flight job gets a ``call_later``
watchdog instead of a scheduler sweep.

Failure detection is the supervisor's taxonomy, one-shot per request:

* **EOF on the pipe** → the child died mid-job → the waiting future
  gets :class:`~repro.runtime.errors.WorkerCrash` and the worker is
  respawned.  Every *other* in-flight request has its own worker and
  never notices.
* **watchdog fires** → the child is killed, the future gets
  :class:`~repro.runtime.errors.WorkerTimeout`, respawn.
* **shape validation fails** → the reply is treated as corrupt
  (:class:`~repro.runtime.errors.WorkerCrash` with a corrupt label) —
  a garbled pipe is indistinguishable from a garbled worker.

Retry policy deliberately does *not* live here: the pool reports each
failure once, and the server decides whether to retry, serve a cached
reply, or trip the circuit breaker.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import multiprocessing
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.mining.supervisor import _pool_main
from repro.runtime.errors import WorkerCrash, WorkerTimeout

#: shape-validation failures carry this prefix (tested by the server)
CORRUPT_PREFIX = "corrupt reply"


class PoolClosed(RuntimeError):
    """Submission after :meth:`AnalysisPool.drain` began."""


class _Worker:
    """One supervised child process plus its parent-side pipe."""

    __slots__ = ("label", "process", "conn", "job")

    def __init__(self, label: str, process, conn) -> None:
        self.label = label
        self.process = process
        self.conn = conn
        #: the in-flight (future, watchdog handle) pair, or None
        self.job: Optional[Tuple[asyncio.Future, Optional[asyncio.TimerHandle]]] = None

    @property
    def busy(self) -> bool:
        return self.job is not None


class AnalysisPool:
    """A fixed-size pool of analysis subprocesses on an event loop.

    ``validator`` is the shape check applied to every ``("ok", ...)``
    reply (default: accept anything) — the supervisor's corrupt-result
    guard, applied at the trust boundary where pickled bytes become a
    client-visible reply.
    """

    def __init__(
        self,
        size: int = 2,
        *,
        ctx_name: str = "fork",
        validator: Optional[Callable[[object], bool]] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.validator = validator
        self._loop = loop or asyncio.get_event_loop()
        try:
            self._ctx = multiprocessing.get_context(ctx_name)
        except ValueError:
            self._ctx = multiprocessing.get_context()
        self._workers: Dict[str, _Worker] = {}
        self._idle: Deque[str] = collections.deque()
        self._backlog: Deque[Tuple[asyncio.Future, object, object,
                                   Optional[float]]] = collections.deque()
        self._labels = itertools.count(1)
        self._generation = itertools.count(1)
        self._closed = False
        self._drained = asyncio.Event()
        self.crashes = 0
        self.timeouts = 0
        self.respawns = 0
        for _ in range(size):
            self._spawn()

    # ------------------------------------------------------------------
    # lifecycle

    def _spawn(self) -> _Worker:
        label = f"serve-w{next(self._labels)}.g{next(self._generation)}"
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_main, args=(child_conn,), daemon=True, name=label,
        )
        process.start()
        child_conn.close()
        worker = _Worker(label, process, parent_conn)
        self._workers[label] = worker
        self._idle.append(label)
        self._loop.add_reader(parent_conn.fileno(),
                              self._on_readable, label)
        return worker

    def _discard(self, worker: _Worker, *, kill: bool = True) -> None:
        """Tear one worker down (reader, pipe, process)."""
        try:
            self._loop.remove_reader(worker.conn.fileno())
        except (OSError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.process.is_alive():
            worker.process.kill()
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
               deadline_seconds: Optional[float] = None) -> asyncio.Future:
        """Queue one job; the future resolves with the runner's result.

        ``deadline_seconds`` arms the watchdog from *dispatch* (not
        submission — queueing delay is the admission layer's problem,
        already bounded by ``--max-queue``).
        """
        if self._closed:
            raise PoolClosed("analysis pool is draining")
        future: asyncio.Future = self._loop.create_future()
        self._backlog.append((future, runner, payload, deadline_seconds))
        self._pump()
        return future

    def _pump(self) -> None:
        while self._backlog and self._idle:
            label = self._idle.popleft()
            worker = self._workers.get(label)
            if worker is None or worker.busy:
                continue
            future, runner, payload, deadline = self._backlog.popleft()
            if future.cancelled():
                self._idle.appendleft(label)
                continue
            try:
                worker.conn.send((runner, payload, 0))
            except (BrokenPipeError, OSError):
                # died while idle: the job never started, so requeue it
                # (invisible to the caller) and replace the worker
                self._backlog.appendleft((future, runner, payload, deadline))
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
            return  # stray reply from a reclaimed job; drop it
        future, handle = job
        if handle is not None:
            handle.cancel()
        self._resolve(future, message, worker.label)
        self._idle.append(label)
        self._pump()
        self._maybe_drained()

    def _resolve(self, future: asyncio.Future, message, label: str) -> None:
        if not (isinstance(message, tuple) and len(message) == 2):
            self._fail_job(future, WorkerCrash(
                f"{CORRUPT_PREFIX} from {label}: bad frame shape",
            ))
            return
        status, value = message
        if status == "ok":
            if self.validator is not None and not self.validator(value):
                self._fail_job(future, WorkerCrash(
                    f"{CORRUPT_PREFIX} from {label}: failed validation",
                ))
                return
            if not future.done():
                future.set_result(value)
        elif status == "error" and isinstance(value, BaseException):
            self._fail_job(future, value)
        else:
            self._fail_job(future, WorkerCrash(
                f"{CORRUPT_PREFIX} from {label}: unknown status {status!r}",
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
    # health / chaos / drain

    @property
    def alive(self) -> int:
        return sum(1 for w in self._workers.values()
                   if w.process.is_alive())

    @property
    def busy_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.busy)

    @property
    def backlog(self) -> int:
        return len(self._backlog)

    @property
    def healthy(self) -> bool:
        return not self._closed and self.alive >= max(1, self.size // 2)

    def kill_one(self) -> Optional[str]:
        """Chaos hook: SIGKILL one worker (busy preferred), return label.

        The pipe EOF then drives the normal crash path — exactly what a
        real mid-request analysis-process death looks like.
        """
        victim = None
        for worker in self._workers.values():
            if worker.busy:
                victim = worker
                break
        if victim is None and self._workers:
            victim = next(iter(self._workers.values()))
        if victim is None:
            return None
        victim.process.kill()
        return victim.label

    def stats(self) -> Dict[str, int]:
        return {
            "size": self.size,
            "alive": self.alive,
            "busy": self.busy_count,
            "backlog": self.backlog,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
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
            future, _, _, _ = self._backlog.popleft()
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
            future, _, _, _ = self._backlog.popleft()
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

"""The worker daemon: serves shard tasks for a coordinator through the
exact in-process mining path.

One worker is the remote analogue of one spawned pool process (one
dispatch loop, :class:`~repro.mining.supervisor.TaskScheduler`, serves
both kinds): it connects with
:func:`multiprocessing.connection.Client`, registers
(``hello``/``welcome``), then answers each ``(runner_ref, payload,
attempt)`` task with :func:`repro.mining.supervisor._run_job` — the
function the pool's :func:`~repro.mining.supervisor._pool_main` runs —
so the budget ladder and the fault plan the task carried (never one of
the worker's own process) behave identically to local mining.  The
runner crosses the wire by name and must live under ``repro.``; the
messages are listed in :mod:`repro.dist.protocol`.

While a task runs, a daemon thread heartbeats the coordinator at a
third of the lease interval; a worker that dies (or whose network
does) simply stops heartbeating and its lease lapses.

With ``reconnect=True`` a lost coordinator connection is retried with
bounded exponential backoff instead of ending the worker.
"""

from __future__ import annotations

import os
import pickle
import random
import signal as signal_module
import socket
import threading
import time
from multiprocessing.connection import Client, Connection
from typing import Callable, List, Optional

from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    resolve_runner,
)
from repro.mining.supervisor import (
    MAX_FRAME_BYTES,
    _run_job,
    interim_channel,
)

#: heartbeats per lease interval — 3 gives two chances to survive one
#: dropped frame before the lease lapses
_BEATS_PER_LEASE = 3.0

#: floor/ceiling on the heartbeat period (seconds)
_MIN_BEAT = 0.05
_MAX_BEAT = 30.0

#: how often an idle worker checks its stop event while waiting for a
#: frame (seconds) — bounds SIGTERM reaction time between tasks
_STOP_POLL = 0.25

#: sentinel returned by :func:`_recv` when the stop event won
_STOP = object()


def install_stop_signals(
    stop: threading.Event,
    signals: tuple = (signal_module.SIGTERM, signal_module.SIGINT),
) -> None:
    """Route SIGTERM/SIGINT into a worker's stop event (CLI main thread).

    The handler only sets the event: the worker finishes and acks its
    in-flight task, deregisters with a ``goodbye``, and returns —
    giving ``uspec worker`` a graceful drain instead of an abandoned
    lease the coordinator must wait out.
    """
    for sig in signals:
        signal_module.signal(sig, lambda *_: stop.set())


def _recv(conn: Connection, stop: Optional[threading.Event]) -> object:
    """The next message, or :data:`_STOP` once ``stop`` is set.

    ``stop`` is checked every :data:`_STOP_POLL` seconds of an idle
    wait, but a frame already waiting is read first: a stop request
    that races the coordinator's welcome still ends with ``goodbye``.
    A frame that does not unpickle comes back as a
    :class:`ProtocolError`; a hung-up coordinator raises ``EOFError``
    or ``OSError``.
    """
    while True:
        stopping = stop is not None and stop.is_set()
        if conn.poll(0 if stopping else _STOP_POLL):
            frame = conn.recv_bytes(MAX_FRAME_BYTES)
            try:
                return pickle.loads(frame)
            except Exception as err:
                return ProtocolError(f"undecodable frame: {err}")
        if stopping:
            return _STOP


class _Heartbeat:
    """Background lease renewal for the currently running task."""

    def __init__(self, send: Callable[[object], None],
                 period: float) -> None:
        self._send = send
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=self._period * 2 + 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self._period):
            try:
                self._send(("heartbeat",))
            except OSError:
                return  # connection gone; the main loop will notice


def _connect(
    host: str,
    port: int,
    retries: int,
    retry_delay: float,
    sleep: Callable[[float], None],
) -> Connection:
    last: Optional[OSError] = None
    for attempt in range(max(1, retries)):
        if attempt:
            sleep(retry_delay)
        try:
            return Client((host, port))
        except OSError as err:
            last = err
    raise ConnectionError(
        f"could not reach coordinator at {host}:{port} after "
        f"{max(1, retries)} attempt(s): {last}"
    )


def _answer(job: object, send: Callable[[object], None],
            beat: float) -> tuple:
    """Run one task through the pool's ``_run_job`` under a heartbeat,
    streaming its interims ahead of the reply."""
    try:
        if isinstance(job, ProtocolError):
            raise job
        ref, payload, attempt = job
        runner = resolve_runner(ref)
    except Exception as err:
        return ("error", RuntimeError(f"undecodable task: {err}"))
    with _Heartbeat(send, beat), \
            interim_channel(lambda item: send(("interim", item))):
        return _run_job(runner, payload, attempt)


def run_worker(
    host: str,
    port: int,
    *,
    name: Optional[str] = None,
    connect_retries: int = 1,
    retry_delay: float = 0.5,
    max_tasks: Optional[int] = None,
    reconnect: bool = False,
    reconnect_rounds: int = 8,
    reconnect_max_delay: float = 30.0,
    jitter: float = 0.5,
    jitter_seed: Optional[int] = None,
    stop: Optional[threading.Event] = None,
    sleep: Callable[[float], None] = time.sleep,
    log: Callable[[str], None] = lambda line: None,
) -> int:
    """Serve one coordinator until it shuts the cluster down.

    Returns the number of tasks completed (any status).  Raises
    :class:`ConnectionError` if the coordinator is unreachable after
    ``connect_retries`` attempts, and :class:`ProtocolError` when it
    refuses registration (a version mismatch).  ``max_tasks`` bounds
    this worker's life for tests and canary deployments.

    With ``reconnect=True`` a dropped connection (coordinator restart,
    network cut) is retried with exponential backoff — doubling from
    ``retry_delay`` up to ``reconnect_max_delay`` — for at most
    ``reconnect_rounds`` consecutive failures; any session that
    registers successfully refills the budget.  Protocol violations
    still raise: reconnecting cannot fix a version mismatch.

    Each backoff delay is *jittered*: scaled by a uniform draw from
    ``[1 - jitter, 1]``.  Without it, a coordinator restart has every
    worker it dropped retrying on the same doubling schedule — a
    thundering herd arriving in synchronized waves exactly when the
    coordinator is busiest recovering.  The draw comes from a private
    ``random.Random`` seeded with ``jitter_seed`` (or the worker's
    label, so a fleet desynchronizes naturally yet each worker's
    schedule is reproducible).

    ``stop`` requests a graceful end: the worker finishes and acks the
    task in flight (if any), sends ``goodbye`` so the coordinator
    reclaims the slot immediately instead of waiting out the lease,
    and returns normally.  :func:`install_stop_signals` wires SIGTERM
    to it for the CLI.
    """
    label = name or f"worker-{socket.gethostname()}-{os.getpid()}"
    done = [0]  # shared with _serve so a lost connection keeps the tally
    attempts_left = reconnect_rounds
    rng = random.Random(jitter_seed if jitter_seed is not None else label)

    def backoff() -> float:
        exponent = max(0, reconnect_rounds - attempts_left)
        base = min(reconnect_max_delay, retry_delay * (2.0 ** exponent))
        if jitter <= 0:
            return base
        return base * (1.0 - jitter * rng.random())

    def pause(delay: float) -> None:
        # honour a stop request during backoff: SIGTERM should not
        # have to wait out a 30s retry sleep
        if stop is not None and sleep is time.sleep:
            stop.wait(delay)
        else:
            sleep(delay)

    while True:
        if stop is not None and stop.is_set():
            return done[0]
        try:
            conn = _connect(host, port, connect_retries, retry_delay,
                            sleep)
        except ConnectionError:
            if not reconnect or attempts_left <= 0:
                raise
            delay = backoff()
            attempts_left -= 1
            log(f"{label}: coordinator unreachable, retrying in "
                f"{delay:g}s ({attempts_left} round(s) left)")
            pause(delay)
            continue
        registered = [False]
        finished = False
        try:
            finished = _serve(conn, label, max_tasks, log, done,
                              registered, stop)
        except (EOFError, OSError):
            # the coordinator vanished (closed the cluster, crashed,
            # network cut)
            log(f"{label}: connection lost")
        finally:
            conn.close()
        if finished or not reconnect:
            return done[0]
        if registered[0]:
            attempts_left = reconnect_rounds
        if attempts_left <= 0:
            log(f"{label}: giving up after {reconnect_rounds} "
                f"reconnect round(s)")
            return done[0]
        delay = backoff()
        attempts_left -= 1
        log(f"{label}: reconnecting in {delay:g}s "
            f"({attempts_left} round(s) left)")
        pause(delay)


def _serve(
    conn: Connection,
    label: str,
    max_tasks: Optional[int],
    log: Callable[[str], None],
    done: List[int],
    registered: List[bool],
    stop: Optional[threading.Event] = None,
) -> bool:
    """The registration handshake and the task/reply loop.

    Returns True when the session ended deliberately (shutdown,
    ``max_tasks``, or a ``stop`` request); a coordinator that hangs up
    mid-session raises ``EOFError``/``OSError`` — the signal
    ``run_worker`` uses to decide whether to reconnect.
    """
    lock = threading.Lock()  # the heartbeat thread sends too

    def send(message: object) -> None:
        with lock:
            conn.send(message)

    send(("hello", label, PROTOCOL_VERSION))
    welcome = _recv(conn, stop)
    if welcome is _STOP:
        return True  # stopped before registering; nothing to undo
    kind, detail = welcome if isinstance(welcome, tuple) \
        and len(welcome) == 2 else (None, welcome)
    if kind != "welcome":
        raise ProtocolError(f"registration rejected: {detail}")
    registered[0] = True
    lease = float(detail)
    beat = min(_MAX_BEAT, max(_MIN_BEAT, lease / _BEATS_PER_LEASE))
    log(f"{label}: registered (lease {lease:g}s)")
    while True:
        job = _recv(conn, stop)
        if job is _STOP or job is None:
            send(("goodbye",))
            why = "stop requested" if job is _STOP else "shutdown"
            log(f"{label}: {why}; deregistered after {done[0]} task(s)")
            return True
        reply = _answer(job, send, beat)
        try:
            send(reply)
        except OSError:
            raise
        except Exception as err:
            # unpicklable result: report instead of dying silently
            send(("error", RuntimeError(f"unpicklable result: {err}")))
        done[0] += 1
        log(f"{label}: task {done[0]} replied {reply[0]}")
        if max_tasks is not None and done[0] >= max_tasks:
            send(("goodbye",))
            log(f"{label}: max-tasks reached ({done[0]})")
            return True

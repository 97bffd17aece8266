"""The worker daemon: pulls shard tasks from a coordinator and runs
them through the exact in-process mining path.

One worker is the remote analogue of one supervised child process: it
connects, registers (``hello``/``welcome``), then loops ``ready`` →
``task`` → ``result``.  The task frame names a module-level runner
(restricted to the ``repro.`` namespace) and carries the pickled
payload; the worker executes ``runner(payload, attempt)`` — the same
entry point :func:`repro.mining.supervisor._child_main` uses — so the
analysis cache, budget ladder and chaos hooks all behave identically
to local mining.

While a task runs, a daemon thread heartbeats the coordinator at a
third of the lease interval; a worker that dies (or whose network
does) simply stops heartbeating and its lease lapses.  Result frames
mirror the supervised child's pipe protocol: ``ok`` with a pickled
result, ``corrupt`` for a :class:`~repro.runtime.faults.CorruptResult`
chaos marker, ``error`` with the pickled typed exception otherwise.

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
from typing import Callable, Dict, List, Optional

from repro.dist.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    pack_payload,
    resolve_runner,
    send_frame,
    unpack_payload,
)
from repro.mining.supervisor import interim_channel
from repro.runtime.faults import CorruptResult

#: heartbeats per lease interval — 3 gives two chances to survive one
#: dropped frame before the lease lapses
_BEATS_PER_LEASE = 3.0

#: floor/ceiling on the heartbeat period (seconds)
_MIN_BEAT = 0.05
_MAX_BEAT = 30.0

#: how often an idle worker checks its stop event while waiting for a
#: frame (seconds) — bounds SIGTERM reaction time between tasks
_STOP_POLL = 0.25

#: sentinel returned by :func:`_recv_or_stop` when the stop event won
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


def _recv_or_stop(
    sock: socket.socket,
    decoder: FrameDecoder,
    pending: List[Dict[str, object]],
    stop: Optional[threading.Event],
) -> Optional[object]:
    """:func:`recv_frame`, interruptible and immune to idle timeouts.

    Blocking reads poll ``stop`` every :data:`_STOP_POLL` seconds and
    return :data:`_STOP` once it is set.  A ``socket.timeout`` is an
    *idle* connection, not a hangup — ``recv_frame`` itself folds it
    into its generic ``OSError`` → None path, which made any worker
    idle longer than the connect timeout falsely conclude the
    coordinator was gone.  Returns None only on real EOF/errors.
    """
    if pending:
        return pending.pop(0)
    original = sock.gettimeout()
    sock.settimeout(_STOP_POLL if stop is not None else original)
    try:
        while not pending:
            if stop is not None and stop.is_set():
                return _STOP
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue  # idle, not dead: keep waiting
            except OSError:
                return None
            if not data:
                return None
            pending.extend(decoder.feed(data))
        return pending.pop(0)
    finally:
        try:
            sock.settimeout(original)
        except OSError:
            pass


class _Heartbeat:
    """Background lease renewal for the currently running task."""

    def __init__(self, sock: socket.socket, lock: threading.Lock,
                 task_id: str, period: float) -> None:
        self._sock = sock
        self._lock = lock
        self._task_id = task_id
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
                with self._lock:
                    send_frame(self._sock, {
                        "type": "heartbeat", "task_id": self._task_id,
                    })
            except OSError:
                return  # connection gone; the main loop will notice


def _connect(
    host: str,
    port: int,
    retries: int,
    retry_delay: float,
    sleep: Callable[[float], None],
) -> socket.socket:
    last: Optional[OSError] = None
    for attempt in range(max(1, retries)):
        if attempt:
            sleep(retry_delay)
        try:
            return socket.create_connection((host, port), timeout=30.0)
        except OSError as err:
            last = err
    raise ConnectionError(
        f"could not reach coordinator at {host}:{port} after "
        f"{max(1, retries)} attempt(s): {last}"
    )


def _execute(runner: Callable, payload: object, attempt: int,
             task_id: str) -> Dict[str, object]:
    """Run one task; mirror ``_child_main``'s ok/corrupt/error protocol."""
    try:
        result = runner(payload, attempt)
    except CorruptResult as marker:
        return {"type": "result", "task_id": task_id,
                "status": "corrupt", "error": str(marker)}
    except BaseException as err:
        try:
            payload_text = pack_payload(err)
        except Exception:
            payload_text = pack_payload(RuntimeError(
                f"{type(err).__name__}: {err}"
            ))
        return {"type": "result", "task_id": task_id, "status": "error",
                "payload": payload_text,
                "error": f"{type(err).__name__}: {err}"}
    try:
        return {"type": "result", "task_id": task_id, "status": "ok",
                "payload": pack_payload(result)}
    except (pickle.PicklingError, TypeError, ValueError) as err:
        return {"type": "result", "task_id": task_id, "status": "error",
                "payload": pack_payload(RuntimeError(
                    f"unpicklable result: {err}"
                )),
                "error": f"unpicklable result: {err}"}


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
    """Serve one coordinator until it says ``shutdown``.

    Returns the number of tasks completed (any status).  Raises
    :class:`ConnectionError` if the coordinator is unreachable after
    ``connect_retries`` attempts, and :class:`ProtocolError` on a
    version mismatch.  ``max_tasks`` bounds this worker's life for
    tests and canary deployments.

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
            sock = _connect(host, port, connect_retries, retry_delay,
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
        decoder = FrameDecoder()
        pending: List[Dict[str, object]] = []
        send_lock = threading.Lock()
        registered = [False]
        finished = False
        try:
            try:
                finished = _serve(sock, decoder, pending, send_lock,
                                  label, max_tasks, log, done, registered,
                                  stop)
            except OSError:
                # the coordinator vanished mid-frame (closed the
                # cluster, crashed, network cut)
                log(f"{label}: connection lost")
        finally:
            try:
                sock.close()
            except OSError:
                pass
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
    sock: socket.socket,
    decoder: FrameDecoder,
    pending: List[Dict[str, object]],
    send_lock: threading.Lock,
    label: str,
    max_tasks: Optional[int],
    log: Callable[[str], None],
    done: List[int],
    registered: List[bool],
    stop: Optional[threading.Event] = None,
) -> bool:
    """The registration handshake and the ready/task/result loop.

    Returns True when the session ended deliberately (``shutdown``,
    ``max_tasks``, or a ``stop`` request), False when the coordinator
    hung up mid-session — the signal ``run_worker`` uses to decide
    whether to reconnect.
    """
    send_frame(sock, {
        "type": "hello", "worker": label, "pid": os.getpid(),
        "version": PROTOCOL_VERSION,
    })
    welcome = _recv_or_stop(sock, decoder, pending, stop)
    if welcome is _STOP:
        return True  # stopped before registering; nothing to undo
    if welcome is None:
        raise ConnectionError("coordinator hung up during handshake")
    if welcome.get("type") != "welcome":
        raise ProtocolError(
            f"registration rejected: {welcome.get('error', welcome)}"
        )
    registered[0] = True
    lease = float(welcome.get("lease") or 15.0)
    beat = min(_MAX_BEAT, max(_MIN_BEAT, lease / _BEATS_PER_LEASE))
    log(f"{label}: registered (lease {lease:g}s)")
    with send_lock:
        send_frame(sock, {"type": "ready"})
    while True:
        message = _recv_or_stop(sock, decoder, pending, stop)
        if message is _STOP:
            with send_lock:
                send_frame(sock, {"type": "goodbye"})
            log(f"{label}: stop requested; deregistered after "
                f"{done[0]} task(s)")
            return True
        if message is None:
            log(f"{label}: coordinator hung up")
            return False
        kind = message.get("type")
        if kind == "shutdown":
            with send_lock:
                send_frame(sock, {"type": "goodbye"})
            log(f"{label}: shutdown after {done[0]} task(s)")
            return True
        if kind != "task":
            continue  # tolerate unknown control frames
        task_id = str(message.get("task_id"))
        attempt = int(message.get("attempt") or 0)
        log(f"{label}: task {task_id} attempt {attempt}")
        try:
            runner = resolve_runner(str(message.get("runner")))
            payload = unpack_payload(str(message.get("payload")))
        except Exception as err:
            reply: Dict[str, object] = {
                "type": "result", "task_id": task_id,
                "status": "error",
                "payload": pack_payload(RuntimeError(
                    f"undecodable task: {err}"
                )),
                "error": f"undecodable task: {err}",
            }
        else:
            def interim(item: object, task_id: str = task_id) -> None:
                frame = {"type": "interim", "task_id": task_id,
                         "payload": pack_payload(item)}
                with send_lock:
                    send_frame(sock, frame)

            with _Heartbeat(sock, send_lock, task_id, beat), \
                    interim_channel(interim):
                reply = _execute(runner, payload, attempt, task_id)
        done[0] += 1
        with send_lock:
            send_frame(sock, reply)
            if max_tasks is not None and done[0] >= max_tasks:
                send_frame(sock, {"type": "goodbye"})
                log(f"{label}: max-tasks reached ({done[0]})")
                return True
            if stop is not None and stop.is_set():
                # in-flight task finished and acked; deregister now
                send_frame(sock, {"type": "goodbye"})
                log(f"{label}: stop requested; deregistered after "
                    f"{done[0]} task(s)")
                return True
            send_frame(sock, {"type": "ready"})

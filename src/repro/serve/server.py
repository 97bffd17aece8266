"""``uspec serve`` — the long-running spec-query daemon.

A minimal asyncio HTTP/1.1 server wrapping the analysis pool
(:mod:`repro.serve.pool`) behind the robustness layers of
:mod:`repro.serve.admission`.  The request path, in trust order:

1. **header/body deadlines** — a client that trickles bytes
   (slow-loris) is cut off with 408 after ``header_timeout``; a head
   or body over its byte cap gets 431/413.  Malformed
   requests get 400.  No client behaviour can park a handler forever.
2. **reply cache** — content-fingerprint lookup (the
   :mod:`repro.mining.cache` key scheme) *before* admission: answering
   a known snippet costs no analysis, so it is never shed.
3. **admission** — a bounded ticket count; over ``--max-queue``
   concurrent analyses the reply is an immediate ``429 overloaded``.
4. **circuit breaker** — consecutive pool failures trip it; while
   open, analyses are refused (503 ``circuit_open``) instead of being
   fed to a sick pool, and the cooldown probe decides recovery.
5. **the pool** — each analysis in a subprocess under a per-request
   :class:`~repro.runtime.budget.Budget` deadline, degrading down the
   precision ladder; an outer watchdog (grace ×1.5) backstops a solver
   stuck between budget polls.  A worker crash is retried once (the
   snippet may be innocent), then surfaced as 503.  Worker faults
   (``kill|hang|corrupt:<match>[:n]`` in ``USPEC_FAULTS``) ride on
   every request's payload and fire in the pool worker, on attempt 0
   and then 1 on that retry, as they do in mining.

Every accepted request gets exactly one reply — full, degraded,
deadline-exceeded, or a typed error — never a dropped connection.

Lifecycle: SIGHUP swaps the specs file in (new digest → new cache
namespace, old entries orphaned); SIGTERM drains — stop accepting,
finish in-flight requests within :data:`DRAIN_TIMEOUT`, time out the
stragglers, exit 0.  A reload that lands mid-drain is ignored: it must
not resurrect the accepting state or touch a pool that is going away.

With ``--warm-snapshot FILE`` the daemon writes a CRC-guarded snapshot
(specs + reply cache) at the end of every drain and after every
successful reload, and loads it on startup — so a rolling restart
serves its first query from the previous process's cache instead of
cold-starting, and ``/readyz`` exposes the snapshot age for restart
health gates.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.runtime.budget import Budget
from repro.runtime.errors import WorkerCrash, WorkerTimeout
from repro.runtime.faults import armed
from repro.serve import query as q
from repro.serve.admission import AdmissionQueue, CircuitBreaker, ServeStats
from repro.serve.pool import AnalysisPool, PoolClosed

SERVER_NAME = "uspec-serve"

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: byte caps on a request head (431 over it) and body (413 over it)
MAX_HEAD_BYTES = 16 * 1024
MAX_BODY_BYTES = 256 * 1024
#: SIGTERM grace: seconds in-flight requests get to finish
DRAIN_TIMEOUT = 10.0
#: consecutive pool failures that open the circuit breaker, and the
#: seconds it stays open before probing the pool again
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN = 2.0


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``uspec serve`` can be told on the command line."""

    host: str = "127.0.0.1"
    port: int = 8151
    specs_path: Optional[str] = None
    workers: int = 2
    max_queue: int = 8
    request_deadline: float = 10.0
    header_timeout: float = 5.0
    cache_entries: int = 1024
    #: warm-restart snapshot file: written on drain + after reloads,
    #: loaded on startup (None = cold starts only)
    warm_path: Optional[str] = None


class SpecServer:
    """One daemon instance: pool + admission + cache + HTTP front."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.stats = ServeStats()
        self.admission = AdmissionQueue(config.max_queue)
        self.breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN)
        self.pool: Optional[AnalysisPool] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = asyncio.Event()
        self._draining = False
        self._handlers: set = set()
        self._cache: "collections.OrderedDict[str, Dict]" = \
            collections.OrderedDict()
        # specs state (swapped atomically by _load_specs)
        self.specs = None
        self.spec_scores: Dict = {}
        self._specs_json: Optional[str] = None
        self.specs_digest = ""
        self.query_fp = ""
        # warm-restart snapshot state
        self._snapshot_written_at: Optional[float] = None
        self.warm_entries = 0
        self._load_specs(initial=True)
        self._load_warm_snapshot()

    # ------------------------------------------------------------------
    # specs + cache namespace

    def _load_specs(self, initial: bool = False) -> None:
        if self._draining and not initial:
            # a SIGHUP racing the SIGTERM drain: reloading now would
            # clear stats/cache under in-flight handlers and write a
            # snapshot for a process that is going away — ignore it
            sys.stderr.write("[serve] reload ignored: draining\n")
            return
        path = self.config.specs_path
        if path is None:
            text = None
        else:
            try:
                text = Path(path).read_text()
            except OSError as err:
                if initial:
                    raise
                # keep serving the previous specs on a bad reload
                sys.stderr.write(f"[serve] specs reload failed: {err}\n")
                return
        if text is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            specs, scores = q.specs_from_json(text)
        else:
            digest, specs, scores = "", None, {}
        self._specs_json = text
        self.specs_digest = digest
        self.specs = specs
        self.spec_scores = scores
        self.query_fp = q.query_fingerprint(digest)
        if not initial:
            self._cache.clear()
            self.stats.reloads += 1
            # the old snapshot's cache belongs to the old digest: write
            # a fresh one so a restart right after the reload warms up
            # against the *new* specs
            self.write_warm_snapshot()

    # ------------------------------------------------------------------
    # warm-restart snapshot

    def _load_warm_snapshot(self) -> None:
        path = self.config.warm_path
        if not path:
            return
        from repro.store.snapshot import load_snapshot

        snap, reason = load_snapshot(Path(path))
        if reason is not None:
            sys.stderr.write(f"[serve] warm snapshot quarantined "
                             f"(cold start): {reason}\n")
            return
        if not isinstance(snap, dict) or snap.get("schema") != 1:
            return
        if self.specs is None and snap.get("specs_json") \
                and self.config.specs_path is None:
            # no --specs on the command line: adopt the snapshot's
            # (what a rolling restart without config changes wants)
            text = snap["specs_json"]
            try:
                specs, scores = q.specs_from_json(text)
            except (ValueError, KeyError):
                return
            self._specs_json = text
            self.specs_digest = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
            self.specs = specs
            self.spec_scores = scores
            self.query_fp = q.query_fingerprint(self.specs_digest)
        if snap.get("digest") == self.specs_digest:
            # same specs → cache keys are still valid: preload them
            for key, reply in snap.get("cache", []):
                if isinstance(key, str) and isinstance(reply, dict):
                    self._cache_put(key, reply)
            self.warm_entries = len(self._cache)
        self._snapshot_written_at = snap.get("written_at")

    def write_warm_snapshot(self) -> None:
        path = self.config.warm_path
        if not path:
            return
        from repro.store.snapshot import write_snapshot

        written_at = time.time()
        try:
            write_snapshot(Path(path), {
                "schema": 1,
                "written_at": written_at,
                "digest": self.specs_digest,
                "specs_json": self._specs_json,
                "cache": list(self._cache.items()),
            })
        except OSError as err:
            sys.stderr.write(f"[serve] warm snapshot write failed: "
                             f"{err}\n")
            return
        self._snapshot_written_at = written_at

    @property
    def snapshot_age_seconds(self) -> Optional[float]:
        if self._snapshot_written_at is None:
            return None
        return round(max(0.0, time.time() - self._snapshot_written_at), 3)

    def request_reload(self) -> None:
        """SIGHUP entry point (threadsafe)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._load_specs)
        else:
            self._load_specs()

    def request_stop(self) -> None:
        """SIGTERM entry point (threadsafe)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)
        else:
            self._stopping.set()

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self.pool = AnalysisPool(
            self.config.workers,
            validator=q.valid_reply,
            warmup=self._warmup_job,
            loop=self._loop,
        )
        limit = max(MAX_HEAD_BYTES, MAX_BODY_BYTES) + 4096
        self._server = await asyncio.start_server(
            self._client_connected,
            self.config.host, self.config.port, limit=limit,
        )
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    def _warmup_job(self) -> Tuple:
        """Each pool worker's first job: import the query path and
        parse the specs being served."""
        return q.warm_up, q.QueryPayload(
            kind=q.KIND_ALIAS, language="python", code="",
            specs_json=self._specs_json, specs_digest=self.specs_digest)

    def install_signals(self) -> None:
        """SIGHUP→reload, SIGTERM/SIGINT→drain (CLI main thread only)."""
        assert self._loop is not None
        self._loop.add_signal_handler(signal.SIGHUP, self._load_specs)
        for sig in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(sig, self._stopping.set)

    async def run_until_stopped(self) -> None:
        await self._stopping.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, tear down."""
        self._draining = True
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self._handlers and time.monotonic() < deadline:
            await asyncio.wait(self._handlers,
                               timeout=max(0.05, deadline - time.monotonic()))
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.wait(self._handlers, timeout=1.0)
        if self.pool is not None:
            await self.pool.drain(max(0.5, deadline - time.monotonic()))
        # after the pool is gone: no handler can mutate the cache now,
        # so the snapshot is a consistent view of the final state
        self.write_warm_snapshot()

    async def serve(self) -> None:
        """start + run until SIGTERM; the CLI's whole main."""
        host, port = await self.start()
        sys.stderr.write(f"[serve] listening on {host}:{port}\n")
        await self.run_until_stopped()

    # ------------------------------------------------------------------
    # HTTP plumbing

    def _client_connected(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._handle_client(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle_client(self, reader, writer) -> None:
        try:
            while not self._draining:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(self, reader, writer) -> bool:
        """Read and answer one request; returns keep-alive."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"),
                timeout=self.config.header_timeout,
            )
        except asyncio.TimeoutError:
            # slow-loris: a reply, then the door
            await self._respond(writer, 408, {"error": "header_timeout"},
                                keep_alive=False)
            return False
        except asyncio.LimitOverrunError:
            await self._respond(writer, 431, {"error": "headers_too_large"},
                                keep_alive=False)
            return False
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return False  # client hung up mid-head; nothing to answer
        if len(head) > MAX_HEAD_BYTES:
            await self._respond(writer, 431, {"error": "headers_too_large"},
                                keep_alive=False)
            return False
        parsed = self._parse_head(head)
        if parsed is None:
            await self._respond(writer, 400, {"error": "malformed_request"},
                                keep_alive=False)
            return False
        method, path, headers = parsed
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await self._respond(writer, 400, {"error": "malformed_request"},
                                keep_alive=False)
            return False
        if length < 0 or length > MAX_BODY_BYTES:
            await self._respond(writer, 413, {"error": "body_too_large"},
                                keep_alive=False)
            return False
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length),
                    timeout=self.config.header_timeout,
                )
            except asyncio.TimeoutError:
                await self._respond(writer, 408, {"error": "body_timeout"},
                                    keep_alive=False)
                return False
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return False
        keep_alive = (headers.get("connection", "keep-alive").lower()
                      != "close") and not self._draining
        status, reply = await self._route(method, path, body)
        await self._respond(writer, status, reply, keep_alive=keep_alive)
        return keep_alive

    @staticmethod
    def _parse_head(head: bytes) -> Optional[Tuple[str, str, Dict[str, str]]]:
        try:
            text = head.decode("ascii")
        except UnicodeDecodeError:
            return None
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep or not name or name != name.strip() or " " in name:
                return None
            headers[name.lower()] = value.strip()
        return parts[0], parts[1], headers

    async def _respond(self, writer, status: int, payload: Dict,
                       keep_alive: bool = True) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Server: {SERVER_NAME}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------
    # routing

    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Dict]:
        if path == "/healthz":
            return 200, {"status": "alive"}
        if path == "/readyz":
            return self._readyz()
        if path == "/statz":
            return 200, self._statz()
        if path.startswith("/v1/"):
            kind = path[len("/v1/"):]
            if kind not in q.QUERY_KINDS:
                return 404, {"error": "unknown_query_kind"}
            if method != "POST":
                return 405, {"error": "method_not_allowed"}
            return await self._query(kind, body)
        return 404, {"error": "not_found"}

    def _readyz(self) -> Tuple[int, Dict]:
        pool_ok = self.pool is not None and self.pool.healthy
        ready = pool_ok and not self._draining
        status = {
            "status": "ready" if ready else "not_ready",
            "draining": self._draining,
            "pool_healthy": pool_ok,
            "breaker": self.breaker.state,
            "specs_digest": self.specs_digest[:12],
            "snapshot_age_seconds": self.snapshot_age_seconds,
            "warm_entries": self.warm_entries,
        }
        return (200 if ready else 503), status

    def _statz(self) -> Dict:
        out = self.stats.to_dict()
        out["admission_depth"] = self.admission.depth
        out["admission_limit"] = self.admission.limit
        out["breaker"] = self.breaker.state
        out["breaker_trips"] = self.breaker.trips
        out["specs_digest"] = self.specs_digest[:12]
        out["n_specs"] = len(list(self.specs)) if self.specs else 0
        out["cache_entries"] = len(self._cache)
        out["warm_entries"] = self.warm_entries
        out["snapshot_age_seconds"] = self.snapshot_age_seconds
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        return out

    # ------------------------------------------------------------------
    # the query path

    async def _query(self, kind: str, body: bytes) -> Tuple[int, Dict]:
        try:
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "malformed_json"}
        if not isinstance(request, dict) or \
                not isinstance(request.get("code"), str):
            return 400, {"error": "missing_code"}
        code = request["code"]
        language = request.get("language", "python")
        if language not in q.LANGUAGES:
            return 400, {"error": "unknown_language"}
        params = q.canonical_params(request.get("params"))
        cache_key = q.reply_cache_key(self.query_fp, language, code,
                                      kind, params)
        cached = self._cache_get(cache_key)
        if cached is not None:
            self.stats.cache_hits += 1
            return 200, dict(cached, cached=True)
        if not self.admission.try_acquire():
            self.stats.shed += 1
            return 429, {"error": "overloaded",
                         "depth": self.admission.depth}
        self.stats.accepted += 1
        started = time.monotonic()
        try:
            status, reply = await self._analyze(kind, language, code,
                                                params, request)
        finally:
            self.admission.release()
            self.stats.finish(time.monotonic() - started)
        if status == 200 and not reply.get("degraded"):
            self._cache_put(cache_key, reply)
        return status, reply

    async def _analyze(self, kind: str, language: str, code: str,
                       params: str, request: Dict) -> Tuple[int, Dict]:
        deadline = self.config.request_deadline
        override = request.get("deadline_seconds")
        if isinstance(override, (int, float)) and override > 0:
            deadline = min(deadline, float(override))
        payload = q.QueryPayload(
            kind=kind, language=language, code=code, params=params,
            specs_json=self._specs_json, specs_digest=self.specs_digest,
            budget=Budget(deadline_seconds=deadline), faults=armed(),
        )
        if not self.breaker.allow():
            self.stats.breaker_rejections += 1
            return 503, {"error": "circuit_open",
                         "retry_after_seconds":
                             self.breaker.cooldown_seconds}
        watchdog = deadline * 1.5 + 1.0
        for attempt in (0, 1):
            try:
                reply = await self.pool.submit(q.run_query, payload,
                                               watchdog, attempt)
            except WorkerTimeout:
                self.breaker.record_failure()
                self.stats.deadline_exceeded += 1
                return 504, {"error": "deadline_exceeded",
                             "deadline_seconds": deadline}
            except WorkerCrash:
                self.breaker.record_failure()
                if attempt == 0 and self.breaker.allow():
                    self.stats.crashes_retried += 1
                    continue
                self.stats.failed += 1
                return 503, {"error": "analysis_unavailable"}
            except PoolClosed:
                self.stats.failed += 1
                return 503, {"error": "draining"}
            except q.QueryFailed as err:
                self.breaker.record_success()  # pool itself is fine
                if err.deadline_exceeded:
                    self.stats.deadline_exceeded += 1
                    return 504, {"error": "deadline_exceeded",
                                 "deadline_seconds": deadline,
                                 "attempts": err.attempts_dicts()}
                self.stats.failed += 1
                return 422, {"error": "analysis_failed",
                             "attempts": err.attempts_dicts()}
            except (SyntaxError, ValueError) as err:
                self.breaker.record_success()
                self.stats.invalid += 1
                return 400, {"error": "invalid_snippet",
                             "detail": f"{type(err).__name__}: {err}"}
            except Exception as err:
                self.breaker.record_failure()
                self.stats.failed += 1
                return 500, {"error": "internal",
                             "detail": type(err).__name__}
            self.breaker.record_success()
            self.stats.completed_ok += 1
            if reply.get("degraded"):
                self.stats.degraded += 1
            return 200, reply
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # reply cache (LRU over OrderedDict)

    def _cache_get(self, key: str) -> Optional[Dict]:
        reply = self._cache.get(key)
        if reply is not None:
            self._cache.move_to_end(key)
        return reply

    def _cache_put(self, key: str, reply: Dict) -> None:
        self._cache[key] = reply
        self._cache.move_to_end(key)
        while len(self._cache) > self.config.cache_entries:
            self._cache.popitem(last=False)


async def serve(config: ServeConfig, *, signals: bool = True,
                server: Optional[SpecServer] = None) -> None:
    """Boot a daemon and run until SIGTERM (the CLI entry point)."""
    instance = server or SpecServer(config)
    host, port = await instance.start()
    if signals:
        instance.install_signals()
    sys.stderr.write(f"[serve] listening on {host}:{port} "
                     f"(workers={config.workers}, "
                     f"max_queue={config.max_queue})\n")
    await instance.run_until_stopped()

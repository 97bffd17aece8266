"""Load harness for ``uspec serve``: distributions, chaos, assertions.

``uspec loadgen`` drives a running daemon with an *open-loop* arrival
process — requests launch on a precomputed schedule whether or not
earlier ones returned, which is what exposes admission-control
behaviour (a closed loop self-throttles and never overloads anything).
Arrival gaps and snippet sizes are drawn from pluggable sampled
:class:`Distribution` objects (the pattern of SNIPPETS.md's synthetic
datagen, rebuilt on ``random.Random`` so the harness stays
stdlib-only and deterministic under ``--seed``).

Chaos, layered on the same run (``--chaos``): slow-loris clients that
trickle header bytes and malformed-frame clients that send garbage.
Both are client behaviour; analysis-worker faults come from the
daemon's own ``USPEC_FAULTS`` plan.  The report separates *contract
violations* (an accepted request whose connection dropped without a
reply — ``n_dropped``, asserted zero in CI) from *explicit outcomes*
(shed, deadline-exceeded, degraded), which are the daemon doing its
job under pressure.
"""

from __future__ import annotations

import json
import random
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


class Distribution:
    """A pre-drawn sample vector (iterate, index, describe)."""

    _samples: List[float]

    def __init__(self, samples: int, generator: random.Random,
                 *args) -> None:
        self.n = samples
        self.argv = args

    def __iter__(self) -> Iterator[float]:
        return iter(self._samples)

    def __getitem__(self, key) -> float:
        return self._samples[key]

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def description(self) -> dict:
        return dict(
            distribution=type(self).__name__,
            args=list(self.argv),
            n=self.n,
        )


class NormalDist(Distribution):
    def __init__(self, samples: int, generator: random.Random,
                 mean: float, stdev: float) -> None:
        super().__init__(samples, generator, mean, stdev)
        self._samples = [max(0.0, generator.gauss(mean, stdev))
                         for _ in range(samples)]


class ExponentialDist(Distribution):
    """Poisson arrivals: exponential gaps with the given mean."""

    def __init__(self, samples: int, generator: random.Random,
                 mean: float) -> None:
        super().__init__(samples, generator, mean)
        rate = 1.0 / mean if mean > 0 else float("inf")
        self._samples = [generator.expovariate(rate)
                         for _ in range(samples)]


class UniformDist(Distribution):
    def __init__(self, samples: int, generator: random.Random,
                 low: float, high: float) -> None:
        super().__init__(samples, generator, low, high)
        self._samples = [generator.uniform(low, high)
                         for _ in range(samples)]


class FixedDist(Distribution):
    def __init__(self, samples: int, generator: random.Random,
                 value: float) -> None:
        super().__init__(samples, generator, value)
        self._samples = [float(value)] * samples


_DIST_KINDS = {
    "normal": (NormalDist, 2),
    "exp": (ExponentialDist, 1),
    "uniform": (UniformDist, 2),
    "fixed": (FixedDist, 1),
}


def parse_distribution(spec: str, samples: int,
                       generator: random.Random) -> Distribution:
    """``"normal:8,3"`` / ``"exp:0.05"`` / ``"uniform:2,20"`` / ``"fixed:6"``."""
    kind, sep, argtext = spec.partition(":")
    if kind not in _DIST_KINDS:
        raise ValueError(
            f"unknown distribution {kind!r} "
            f"(expected one of {', '.join(sorted(_DIST_KINDS))})")
    cls, arity = _DIST_KINDS[kind]
    try:
        args = [float(a) for a in argtext.split(",")] if sep else []
    except ValueError:
        raise ValueError(f"bad distribution args in {spec!r}") from None
    if len(args) != arity:
        raise ValueError(f"{kind} distribution takes {arity} arg(s), "
                         f"got {len(args)} in {spec!r}")
    return cls(samples, generator, *args)


# ----------------------------------------------------------------------
# snippet generation


def make_snippet(size: int, variant: int) -> str:
    """A deterministic Python snippet with ~``size`` API call sites.

    ``variant`` namespaces the dict keys so distinct variants are
    distinct cache fingerprints; the same (size, variant) pair is
    byte-identical across runs — the knob the harness's cache-ratio
    parameter turns.
    """
    size = max(1, int(size))
    lines = ["d = dict()"]
    for i in range(size):
        key = f"k{variant}_{i}"
        if i % 3 == 0:
            lines.append(f'a{i} = d.setdefault("{key}", [])')
        elif i % 3 == 1:
            lines.append(f'b{i} = d.get("{key}")')
        else:
            lines.append(f'd.pop("{key}", None)')
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# a tiny blocking HTTP/1.1 client (stdlib sockets; no keep-alive needed)


def http_request(host: str, port: int, method: str, path: str,
                 body: Optional[bytes] = None,
                 timeout: float = 30.0) -> Tuple[int, Dict]:
    """One request, one connection; returns (status, json body)."""
    body = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("ascii")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        raw = b""
        head_end = -1
        # stop at Content-Length rather than waiting for EOF — the
        # reply is complete the moment the body is, and EOF can be
        # delayed by unrelated fd holders (e.g. forked subprocesses)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
            if head_end < 0:
                head_end = raw.find(b"\r\n\r\n")
            if head_end >= 0:
                marker = b"content-length:"
                lower = raw[:head_end].lower()
                start = lower.find(marker)
                if start >= 0:
                    line_end = lower.index(b"\r\n", start)
                    expect = int(lower[start + len(marker):line_end])
                    if len(raw) >= head_end + 4 + expect:
                        break
    if head_end < 0:
        raise ConnectionError("no reply head")
    status = int(raw.split(b" ", 2)[1])
    payload = raw[head_end + 4:]
    try:
        return status, json.loads(payload.decode("utf-8"))
    except ValueError:
        raise ConnectionError("unparsable reply body")


def post_query(host: str, port: int, kind: str, code: str,
               timeout: float = 30.0, **fields) -> Tuple[int, Dict]:
    request = dict(fields, code=code)
    return http_request(host, port, "POST", f"/v1/{kind}",
                        json.dumps(request).encode("utf-8"), timeout)


# ----------------------------------------------------------------------
# chaos clients


def slow_loris(host: str, port: int, duration: float = 2.0) -> int:
    """Trickle header bytes; returns the status the daemon replied.

    The contract under test: the daemon answers 408 after its header
    timeout instead of parking a handler forever.  0 means the
    connection dropped without a reply (also fine for a misbehaving
    client — it never completed a request).
    """
    head = b"POST /v1/alias HTTP/1.1\r\nHost: x\r\n"
    try:
        with socket.create_connection((host, port), timeout=duration + 30) as sock:
            deadline = time.monotonic() + duration
            # poll for the server's verdict between trickled bytes —
            # writing past the 408 would turn the reply into a RST
            for byte in head:
                if time.monotonic() >= deadline:
                    break
                readable, _, _ = select.select([sock], [], [],
                                               min(0.05, duration / len(head)))
                if readable:
                    break
                sock.sendall(bytes([byte]))
            sock.settimeout(30.0)
            raw = sock.recv(65536)
            if raw.startswith(b"HTTP/1.1 "):
                return int(raw.split(b" ", 2)[1])
            return 0
    except OSError:
        return 0


def malformed_client(host: str, port: int, payload: bytes = b"") -> int:
    """Send garbage; the daemon must answer 400 (or close), not die."""
    payload = payload or b"\xff\xfeNOT HTTP AT ALL\r\n\r\n"
    try:
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(payload)
            raw = sock.recv(65536)
            if raw.startswith(b"HTTP/1.1 "):
                return int(raw.split(b" ", 2)[1])
            return 0
    except OSError:
        return 0


# ----------------------------------------------------------------------
# the run


@dataclass
class LoadConfig:
    host: str = "127.0.0.1"
    port: int = 8151
    kind: str = "alias"
    requests: int = 50
    arrival: str = "exp:0.05"  # seconds between launches
    sizes: str = "normal:8,3"  # API call sites per snippet
    cache_ratio: float = 0.3  # fraction drawn from a small variant pool
    seed: int = 1337
    timeout: float = 30.0
    chaos: Tuple[str, ...] = ()  # of: slow-loris, malformed
    chaos_every: int = 10  # one chaos event per this many requests


@dataclass
class LoadReport:
    n_sent: int = 0
    n_ok: int = 0
    n_cached: int = 0
    n_degraded: int = 0
    n_shed: int = 0
    n_deadline: int = 0
    n_rejected: int = 0  # 4xx/503 typed errors — explicit replies
    n_dropped: int = 0  # accepted-class requests with NO reply: violations
    chaos_loris: int = 0
    chaos_malformed: int = 0
    latencies: List[float] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    #: the daemon's /readyz body sampled after the run (None if the
    #: probe failed) — breaker state, specs digest, snapshot age
    readyz: Optional[Dict] = None

    def percentile(self, p: float) -> Optional[float]:
        if not self.latencies:
            return None
        data = sorted(self.latencies)
        rank = max(0, min(len(data) - 1,
                          round(p / 100.0 * (len(data) - 1))))
        return data[rank]

    def to_dict(self) -> Dict:
        out = {
            "n_sent": self.n_sent,
            "n_ok": self.n_ok,
            "n_cached": self.n_cached,
            "n_degraded": self.n_degraded,
            "n_shed": self.n_shed,
            "n_deadline": self.n_deadline,
            "n_rejected": self.n_rejected,
            "n_dropped": self.n_dropped,
            "chaos_loris": self.chaos_loris,
            "chaos_malformed": self.chaos_malformed,
            "statuses": {str(k): v
                         for k, v in sorted(self.statuses.items())},
        }
        for p in (50, 95, 99):
            value = self.percentile(p)
            if value is not None:
                out[f"p{p}_seconds"] = round(value, 6)
        out["readyz"] = self.readyz
        return out


def run_load(config: LoadConfig) -> LoadReport:
    """Drive one open-loop load run (blocking; threads per request)."""
    rng = random.Random(config.seed)
    gaps = parse_distribution(config.arrival, config.requests, rng)
    sizes = parse_distribution(config.sizes, config.requests, rng)
    report = LoadReport()
    lock = threading.Lock()
    threads: List[threading.Thread] = []

    def one_request(size: float, variant: int) -> None:
        code = make_snippet(int(size), variant)
        started = time.monotonic()
        try:
            status, reply = post_query(
                config.host, config.port, config.kind, code,
                timeout=config.timeout)
        except (OSError, ConnectionError):
            with lock:
                report.n_dropped += 1
            return
        elapsed = time.monotonic() - started
        with lock:
            report.statuses[status] = report.statuses.get(status, 0) + 1
            if status == 200:
                report.n_ok += 1
                report.latencies.append(elapsed)
                if reply.get("cached"):
                    report.n_cached += 1
                if reply.get("degraded"):
                    report.n_degraded += 1
            elif status == 429:
                report.n_shed += 1
            elif status == 504:
                report.n_deadline += 1
                report.latencies.append(elapsed)
            else:
                report.n_rejected += 1

    def one_chaos(kind: str) -> None:
        if kind == "slow-loris":
            slow_loris(config.host, config.port, duration=1.0)
            with lock:
                report.chaos_loris += 1
        elif kind == "malformed":
            malformed_client(config.host, config.port)
            with lock:
                report.chaos_malformed += 1

    # ~cache_ratio of requests reuse a pool of 3 variants; the rest
    # are unique snippets (variant = request index + offset)
    for i in range(config.requests):
        if rng.random() < config.cache_ratio:
            variant = rng.randrange(3)
        else:
            variant = 1000 + i
        thread = threading.Thread(
            target=one_request, args=(sizes[i], variant), daemon=True)
        thread.start()
        threads.append(thread)
        report.n_sent += 1
        if config.chaos and i % config.chaos_every == 0:
            kind = config.chaos[(i // config.chaos_every)
                                % len(config.chaos)]
            chaos_thread = threading.Thread(
                target=one_chaos, args=(kind,), daemon=True)
            chaos_thread.start()
            threads.append(chaos_thread)
        time.sleep(gaps[i])
    for thread in threads:
        thread.join(timeout=config.timeout + 30)
    try:
        _, report.readyz = http_request(
            config.host, config.port, "GET", "/readyz", timeout=10.0)
    except (OSError, ConnectionError):
        report.readyz = None
    return report

#!/usr/bin/env python3
"""The uspec benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root (no install and no ``PYTHONPATH`` needed;
the system is imported from this checkout's ``src/``)::

    python3 benchmarks/perf/run.py --workload learn_cold --seed 9 \\
        --seconds 15 --trace 0
    python3 benchmarks/perf/run.py --smoke --trace 1 --out smoke.json
    python3 benchmarks/perf/compare.py before.json after.json

Workloads (see README.md for why each exists):

* ``learn_cold`` — 200 Java files, sequential ``learn``, no cache;
* ``learn_dist`` — the same corpus through a coordinator and two
  ``uspec worker`` processes on loopback;
* ``learn_append`` — 200 Python files in a store, 10% rewritten, then
  an incremental ``learn --append`` over a two-process pool;
* ``serve_python`` — ``uspec serve --workers 2``, its reply cache
  filled, under open-loop Poisson traffic at 100 requests/s.

Every repetition runs in a fresh interpreter (``child.py``); this
process only generates inputs, starts and stops processes, drives
serve traffic, checks outputs and reports.  ``--seconds`` bounds the
measuring window: repetitions (each with its own set-up) start until
it has elapsed, at least two of them; for serve it is the length of
the arrival schedule.  With ``--trace 1`` each workload also runs
once stage by stage under spans (written to
``benchmarks/perf/.perf-work/trace-<workload>.json``) and reports
per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end ones, or the
per-layer ones with ``--trace 1``).  Any wrong output — specs that
differ from the in-process reference by one byte, a quarantined
program, a reply that differs from in-process ``run_query`` or any
non-200 reply — counts as failed and the exit code is 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from common import PERF_DIR, ROOT, SRC, load_benchmark, percentile  # noqa: E402

CHILD = PERF_DIR / "child.py"
WORK_ROOT = PERF_DIR / ".perf-work"
#: no single child may outlive this; a run must end within 180 s
CHILD_TIMEOUT = 150.0
MIN_REPS = 3
#: serve daemons booted (and their set-up timed) per run
SETUP_BOOTS = 3
#: serve client threads, one keep-alive connection each
CLIENT_CONNECTIONS = 2
#: ``uspec serve --request-deadline`` default, mirrored by the oracle
REQUEST_DEADLINE = 10.0
#: a reply later than this after its due time misses the objective
SLO_SECONDS = 0.050

#: recorded in the result file and printed, but not gated
RECORDED_UNITS = {
    "programs_per_s": "1/s",
    "within_slo_ratio": "ratio",
    "query_p90_ms": "ms",
    "query_p99_ms": "ms",
    "error_ratio": "ratio",
    "spec_precision": "ratio",
    "spec_recall": "ratio",
    "prep_s": "s",
    "repetitions": "count",
}


class ChildFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# processes


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in one process group."""
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _end_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's session and wait until it is
    gone (children are started with ``start_new_session``, so their own
    workers share the child's process group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while _group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)


def _vm_hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Run:
    """One workload run: its settings, work directory and children."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    recorded: Dict[str, float] = field(default_factory=dict)
    #: raw per-repetition (per-boot) values behind the medians
    samples: Dict[str, List[float]] = field(default_factory=dict)
    _n_children: int = 0

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        return env

    @property
    def trace_file(self) -> Path:
        return WORK_ROOT / f"trace-{self.workload}.json"

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a wrong output is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def min_reps(self) -> int:
        return 1 if self.smoke else MIN_REPS

    def child(self, task: str, params: Dict) -> Dict:
        """Run one ``child.py`` task to completion; its JSON result plus
        the monotonic spawn and exit times."""
        self._n_children += 1
        stem = self.work / f"{self._n_children:03d}-{task}"
        spec = stem.with_suffix(".in.json")
        out = stem.with_suffix(".out.json")
        spec.write_text(json.dumps(params))
        t_spawn = time.monotonic()
        with open(stem.with_suffix(".log"), "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), task, spec.name, out.name],
                cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                stderr=log, start_new_session=True,
            )
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _end_group(proc)
        t_exit = time.monotonic()
        if code != 0:
            tail = stem.with_suffix(".log").read_text(errors="replace")
            raise ChildFailed(f"{task} exited with {code}: {tail[-600:]}")
        result = json.loads(out.read_text())
        result.update(t_spawn=t_spawn, t_exit=t_exit)
        return result


# ----------------------------------------------------------------------
# mining workloads


def learn_workload(run: Run) -> None:
    spec = W.LEARN[run.workload]
    corpus = run.work / "corpus"
    started = time.monotonic()
    base = W.write_corpus(corpus, spec.language, run.seed,
                          W.SMOKE_FILES if run.smoke else W.CORPUS_FILES)
    edits: Dict[str, str] = {}
    if spec.mode == "append":
        edits = W.edited_texts(spec.language, run.seed, sorted(base))
        W.write_files(corpus, edits)
    ref = run.child("reference", {
        "language": spec.language, "corpus": "corpus",
        "specs_out": "reference.json",
    })
    reference = (run.work / "reference.json").read_bytes()
    run.recorded.update(
        prep_s=time.monotonic() - started,
        spec_precision=ref["precision"], spec_recall=ref["recall"],
    )

    params = {
        "language": spec.language, "corpus": "corpus", "jobs": spec.jobs,
        "workers": spec.workers, "specs_out": "specs.json",
    }
    window = time.monotonic()
    store_s = 0.0
    if edits:
        store_s = _build_store(run, params, base, edits)
        params.update(store="store", append=True)
    reps: List[Dict] = []
    n_started = 0
    while n_started < run.min_reps() or (
            not run.smoke and time.monotonic() - window < run.seconds):
        n_started += 1
        if edits:
            shutil.rmtree(run.work / "store", ignore_errors=True)
            shutil.copytree(run.work / "store-template", run.work / "store")
        try:
            rep = run.child("learn", params)
        except ChildFailed as err:
            run.check(False, str(err))
            continue
        ok = (run.work / "specs.json").read_bytes() == reference
        mining = rep["mining"]
        ok = ok and mining["n_quarantined"] == 0
        if edits:
            ok = ok and mining["n_analyzed"] == len(edits) and \
                mining["n_from_store"] == len(base) - len(edits)
        run.check(ok, f"repetition {n_started}: specs or counts differ "
                      f"from the reference ({mining})")
        # set-up is everything before timing starts: interpreter start,
        # imports and worker registration, plus the store build
        rep["setup_s"] = store_s + rep["t_ready"] - rep["t_spawn"]
        reps.append(rep)
    if not reps:
        return

    seconds = [rep["seconds"] for rep in reps]
    run.metrics.update(
        latency_p50_ms=median(seconds) * 1000.0,
        peak_rss_mb=median([rep["maxrss_mb"] for rep in reps]),
        setup_s=median([rep["setup_s"] for rep in reps]),
    )
    run.recorded.update(
        programs_per_s=len(base) / median(seconds),
        repetitions=len(reps),
    )
    run.samples.update(
        seconds=seconds, setup_s=[rep["setup_s"] for rep in reps],
        worker_maxrss_mb=[rep["worker_maxrss_mb"] for rep in reps])
    if run.trace:
        _trace_learn(run, spec, reps, reference)


def _build_store(run: Run, params: Dict, base: Dict[str, str],
                 edits: Dict[str, str]) -> float:
    """learn_append's set-up: a cold learn of the unedited corpus into a
    store, kept as a template that every repetition starts from (a
    byte copy, so each repetition appends to the same state).  Leaves
    the edits applied; returns the build's wall time."""
    corpus = run.work / "corpus"
    W.write_files(corpus, {name: base[name] for name in edits})
    built = run.child("learn", dict(
        params, store="store-template", specs_out="setup-specs.json"))
    run.check(built["mining"]["n_analyzed"] == len(base)
              and built["mining"]["n_quarantined"] == 0,
              f"store set-up: {built['mining']}")
    W.write_files(corpus, edits)
    return built["t_exit"] - built["t_spawn"]


def _trace_learn(run: Run, spec: W.LearnWorkload, reps: List[Dict],
                 reference: bytes) -> None:
    traced = run.child("trace_learn", {
        "language": spec.language, "corpus": "corpus", "mode": spec.mode,
        "store": "store-template", "specs_out": "trace-specs.json",
        "trace_out": str(run.trace_file), "workload": run.workload,
    })
    run.check((run.work / "trace-specs.json").read_bytes() == reference,
              "traced run: specs differ from the reference")
    untraced = median([rep["seconds"] for rep in reps])
    s, c, L = traced["seconds"], traced["counts"], run.layers

    def rep_median(get) -> float:
        return median([get(rep) for rep in reps])

    def mined(key: str) -> float:
        return rep_median(lambda rep: rep["mining"][key])

    def dispatched(key: str) -> float:
        return rep_median(lambda rep: rep["mining"]["dispatch"].get(key, 0))

    def cluster(key: str) -> float:
        return rep_median(lambda rep: rep["mining"]["cluster"].get(key, 0))

    L.update({
        "frontend.s": s.get("frontend.parse", 0.0),
        "frontend.n_instructions": c["n_instructions"],
        "pointsto.s": s.get("pointsto.analyze", 0.0),
        "pointsto.n_contexts": c["n_contexts"],
        "pointsto.n_api_sites": c["n_api_sites"],
        "events.history_s": s.get("events.history", 0.0),
        "events.graph_s": s.get("events.graph", 0.0),
        "events.n_events": c["n_events"],
        "events.n_edges": c["n_edges"],
        "model.samples_s": s.get("model.samples", 0.0),
        "model.hash_s": s.get("model.hash", 0.0),
        "model.train_s": s.get("model.train", 0.0),
        "model.n_samples": c["n_samples"],
        "model.n_position_keys": c["n_position_keys"],
        "specs.extract_s": s.get("specs.extract", 0.0),
        "specs.score_s": s.get("specs.score", 0.0),
        "specs.select_s": s.get("specs.select", 0.0),
        "specs.n_candidates": c["n_candidates"],
        "specs.n_selected": c["n_selected"],
        "specs.precision": traced["quality"]["precision"],
        "specs.recall": traced["quality"]["recall"],
        "mining.analyze_s": mined("seconds_analyze"),
        "mining.train_s": mined("seconds_train"),
        "mining.extract_s": mined("seconds_extract"),
        "mining.overhead_s": untraced - traced["covered"],
        "mining.fingerprint_s": s.get("mining.fingerprint", 0.0),
        "mining.cache_load_s": s.get("mining.cache_load", 0.0),
        "mining.round_trips": dispatched("n_round_trips"),
        "mining.bytes_sent": dispatched("bytes_sent"),
        "mining.bytes_received": dispatched("bytes_received"),
        "mining.model_broadcast_bytes": mined("model_broadcast_bytes"),
        "mining.n_analyzed": mined("n_analyzed"),
        "mining.n_from_store": mined("n_from_store"),
        "mining.cache_hit_rate": mined("cache_hit_rate"),
        "runtime.n_degraded": rep_median(lambda rep: rep["n_degraded"]),
        "runtime.n_quarantined": mined("n_quarantined"),
        "trace.coverage": traced["covered"] / traced["wall"],
        "trace.overhead": traced["wall"] / untraced,
    })
    if spec.mode == "dist":
        L.update({
            "dist.register_s": rep_median(lambda rep: rep["register_s"]),
            "dist.model_pack_s": s["dist.model_pack"],
            "dist.model_unpack_s": s["dist.model_unpack"],
            "dist.model_frame_bytes": traced["model_frame_bytes"],
            "dist.n_extract_tasks": mined("n_shards"),
            "dist.n_tasks_dispatched": cluster("n_tasks_dispatched"),
            "dist.n_lease_expiries": cluster("n_lease_expiries"),
            "dist.n_speculated": cluster("n_speculated"),
        })
    if spec.mode == "append":
        L.update({
            "store.open_s": s["store.open"],
            "store.journal_bytes": traced["store"]["journal_bytes"],
            "store.snapshot_bytes": traced["store"]["snapshot_bytes"],
            "store.n_programs": traced["store"]["n_programs"],
        })


# ----------------------------------------------------------------------
# the serve workload


def _free_port() -> int:
    # ``uspec serve --bind 127.0.0.1:0`` reports the requested port 0,
    # not the bound one, so the benchmark picks a free port itself
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(port: int, method: str, path: str,
             body: Optional[bytes] = None,
             conn: Optional[http.client.HTTPConnection] = None
             ) -> Tuple[int, Dict]:
    own = conn is None
    conn = conn or http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        if own:
            conn.close()


class Daemon:
    """One ``uspec serve`` process in its own session, booted until both
    pool workers have answered a query.

    ``/readyz`` answers before the spawn-context pool workers have
    imported anything, so the first query per worker takes ~0.5 s; the
    warm-up queries pay that inside set-up, and their latency is
    recorded as ``serve.cold_query_ms``."""

    def __init__(self, run: Run, cache_entries: int) -> None:
        self.port = _free_port()
        started = time.monotonic()
        self.log = open(run.work / f"serve-{self.port}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bind", f"127.0.0.1:{self.port}", "--specs", "specs.json",
             "--workers", "2", "--cache-entries", str(cache_entries),
             "--request-deadline", str(REQUEST_DEADLINE)],
            cwd=run.work, env=run.env, stdout=subprocess.DEVNULL,
            stderr=self.log, start_new_session=True,
        )
        try:
            self._await_ready()
            self.cold_ms = self._warm()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _await_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ChildFailed(f"uspec serve exited with "
                                  f"{self.proc.returncode}")
            try:
                if _request(self.port, "GET", "/readyz")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.02)
        raise ChildFailed("uspec serve not ready within 60 s")

    def _warm(self) -> List[float]:
        """One concurrent query per pool worker; their latencies (ms)."""
        results: List[Tuple[int, float]] = []

        def warm(index: int) -> None:
            body = json.dumps({"code": W.warmup_snippet(index)}).encode()
            sent = time.monotonic()
            try:
                status = _request(self.port, "POST", "/v1/alias", body)[0]
            except (OSError, http.client.HTTPException):
                status = 0
            results.append((status, (time.monotonic() - sent) * 1000.0))

        threads = [threading.Thread(target=warm, args=(i,))
                   for i in range(CLIENT_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if any(status != 200 for status, _ in results):
            raise ChildFailed(f"warm-up queries failed: {results}")
        return [ms for _, ms in results]

    def statz(self) -> Dict:
        return _request(self.port, "GET", "/statz")[1]

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS of the daemon and its pool workers."""
        return sum(_vm_hwm_mb(pid) for pid in _group_members(self.proc.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # graceful drain
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        _end_group(self.proc)
        self.log.close()


def _open_loop(port: int, schedule: W.Schedule) -> Tuple[float, List]:
    """Send every request at its due time from CLIENT_CONNECTIONS
    keep-alive connections.  The schedule does not wait for replies
    (open loop); a request due while every connection is busy goes out
    late, and its latency still counts from its due time."""
    arrivals = schedule.arrivals
    bodies = {key: json.dumps({"code": code}).encode()
              for key, code in schedule.snippets.items()}
    results: List = [None] * len(arrivals)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.1

    def client() -> None:
        conn = None
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(arrivals):
                break
            offset, key = arrivals[index]
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            status, reply = 0, None
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=30)
                status, reply = _request(port, "POST", "/v1/alias",
                                         bodies[key], conn)
            except (OSError, http.client.HTTPException, ValueError):
                if conn is not None:
                    conn.close()
                conn = None
            results[index] = (key, status, reply, due, sent,
                              time.monotonic())
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(CLIENT_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, results


def serve_workload(run: Run) -> None:
    started = time.monotonic()
    W.write_corpus(run.work / "corpus", "python", run.seed,
                   W.SMOKE_FILES if run.smoke else W.SERVE_SPEC_FILES)
    learned = run.child("reference", {
        "language": "python", "corpus": "corpus", "specs_out": "specs.json",
    })
    schedule = W.serve_schedule(
        run.seed, run.seconds, W.SMOKE_REQUESTS if run.smoke else 0)
    schedule.dump(run.work / "snippets.json")
    run.recorded.update(
        prep_s=time.monotonic() - started,
        spec_precision=learned["precision"],
        spec_recall=learned["recall"],
    )

    entries = W.SMOKE_CACHE_ENTRIES if run.smoke else W.SERVE_CACHE_ENTRIES
    setups: List[float] = []
    colds: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for _ in range(1 if run.smoke else SETUP_BOOTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(run, entries)
            setups.append(daemon.setup_s)
            colds.extend(daemon.cold_ms)
        # benchmark preparation, not set-up: bring the last daemon's
        # reply cache to capacity, so the window's misses evict
        filling = time.monotonic()
        _, filled = _open_loop(daemon.port, W.fill_schedule(run.seed, entries))
        if any(result[1] != 200 for result in filled):
            raise ChildFailed("a cache-filling query failed")
        run.recorded["prep_s"] += time.monotonic() - filling
        before = daemon.statz()
        start, results = _open_loop(daemon.port, schedule)
        after = daemon.statz()
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    task = "serve_trace" if run.trace else "serve_reference"
    oracle = run.child(task, {
        "specs": "specs.json", "snippets": "snippets.json",
        "deadline": REQUEST_DEADLINE, "replies_out": "replies.json",
        "trace_out": str(run.trace_file), "workload": run.workload,
    })
    replies = json.loads((run.work / "replies.json").read_text())
    latencies, within = [], 0
    for index, (key, status, reply, due, _, done) in enumerate(results):
        ok = status == 200 and {
            k: v for k, v in reply.items() if k != "cached"
        } == replies[key]
        run.check(ok, f"request {index} ({key}): status {status}, "
                      f"reply differs from run_query" if status == 200
                  else f"request {index} ({key}): status {status}")
        if ok:
            latencies.append(done - due)
            within += (done - due) <= SLO_SECONDS
    if not latencies:
        return
    run.metrics.update(
        latency_p50_ms=median(latencies) * 1000.0,
        peak_rss_mb=rss,
        setup_s=median(setups),
    )
    run.recorded.update(
        within_slo_ratio=within / len(results),
        query_p90_ms=percentile(latencies, 90) * 1000.0,
        query_p99_ms=percentile(latencies, 99) * 1000.0,
    )
    run.samples.update(setup_s=setups, cold_query_ms=colds)
    if run.trace:
        _trace_serve(run, oracle, results, start, before, after, colds)


def _trace_serve(run: Run, traced: Dict, results: List, start: float,
                 before: Dict, after: Dict, colds: List[float]) -> None:
    run.check(not traced["mismatched"],
              f"traced replay differs from run_query for "
              f"{traced['mismatched'][:5]}")
    s, c = traced["seconds"], traced["counts"]

    def delta(key: str) -> float:
        return after[key] - before[key]

    hits, misses = delta("cache_hits"), delta("accepted")
    done = [r for r in results if r[1] == 200]
    analysed = [r for r in done if not r[2].get("cached")]
    run.layers.update({
        "frontend.s": s["frontend.parse"],
        "frontend.n_instructions": c["n_instructions"],
        "pointsto.s": s["pointsto.analyze"],
        "pointsto.n_contexts": c["n_contexts"],
        "pointsto.n_api_sites": c["n_api_sites"],
        "events.history_s": s["events.history"],
        "events.graph_s": s["events.graph"],
        "events.n_events": c["n_events"],
        "events.n_edges": c["n_edges"],
        "specs.precision": run.recorded["spec_precision"],
        "specs.recall": run.recorded["spec_recall"],
        "serve.alias_s": s["serve.alias"],
        "serve.run_query_ms": median(traced["run_query_s"]) * 1000.0,
        "serve.reply_ms": median([r[5] - r[4] for r in done]) * 1000.0,
        "serve.miss_reply_ms": median(
            [r[5] - r[4] for r in analysed]) * 1000.0,
        "serve.server_p50_ms": after.get("p50_seconds", 0.0) * 1000.0,
        "serve.cache_hit_ratio": hits / (hits + misses),
        # replies cached during the window minus the cache's growth
        "serve.evictions": delta("completed_ok") - delta("degraded")
        - delta("cache_entries"),
        "serve.shed": delta("shed"),
        "serve.degraded": delta("degraded"),
        "serve.pool_respawns": after["pool"]["respawns"],
        "serve.cold_query_ms": median(colds),
        "serve.query_p90_ms": run.recorded["query_p90_ms"],
        "serve.query_p99_ms": run.recorded["query_p99_ms"],
        "serve.within_slo_ratio": run.recorded["within_slo_ratio"],
        "runtime.n_degraded": delta("degraded"),
        "trace.coverage": traced["covered"] / traced["wall"],
        "trace.overhead": traced["wall"] / traced["run_query_wall"],
        "loadgen.late_p99_ms": percentile(
            [r[4] - r[3] for r in results], 99) * 1000.0,
        "loadgen.achieved_rps": len(done) / (max(r[5] for r in done) - start),
    })


# ----------------------------------------------------------------------
# reporting


def _described(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, bench: Dict) -> Dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    run = Run(name, seed, seconds, trace, smoke, work)
    try:
        (serve_workload if name == W.SERVE else learn_workload)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(run.metrics) != {m["name"] for m in bench["end_to_end"]}:
        run.check(False, "no successful operation to measure")
    run.recorded["error_ratio"] = run.failed / run.attempted
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "correct": run.failed == 0,
        "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors,
        "metrics": _described(run.metrics, {
            m["name"]: m["unit"] for m in bench["end_to_end"]}),
        "recorded": _described(run.recorded, {
            k: u for k, u in RECORDED_UNITS.items() if k in run.recorded}),
        "samples": run.samples,
    }
    if trace:
        record["per_layer"] = _described(run.layers, {
            m["name"]: m["unit"] for m in bench["per_layer"]})
        record["trace_file"] = str(run.trace_file.relative_to(ROOT))
    return record


def print_record(record: Dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}) ==")
    sections = [("end-to-end", record["metrics"]),
                ("per-layer", record.get("per_layer", {})),
                ("recorded, not gated", record["recorded"])]
    for title, metrics in sections:
        if metrics:
            print(f"  {title}:")
        for name, m in metrics.items():
            print(f"    {name:<30} {m['value']:>16.6f} {m['unit']}")
    verdict = "correct" if record["correct"] else "WRONG OUTPUT"
    print(f"  {verdict}: {record['attempted'] - record['failed']}"
          f"/{record['attempted']} operations ok")
    for error in record["errors"]:
        print(f"    {error}")
    if "trace_file" in record:
        print(f"  trace: {record['trace_file']}")


def append_results(path: Path, record: Dict) -> None:
    """Add one run to a results file (``compare.py`` reads sets)."""
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="also run stage by stage under spans and "
                             "report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="20 files, 100 requests, one repetition")
    parser.add_argument("--out", type=Path,
                        help="append each run's full record to this file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    records = []
    for name in ([args.workload] if args.workload else names):
        record = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.smoke, bench)
        print_record(record)
        if args.out:
            append_results(args.out, record)
        records.append(record)
    key = "per_layer" if args.trace else "metrics"
    if len(records) == 1:
        metrics = records[0][key]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in records for name, m in r[key].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    # children run in their own sessions: turn SIGTERM into SystemExit
    # so the finally blocks that stop them still run
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())

"""Sharded mining engine — throughput vs worker count.

Measures end-to-end `learn` wall-clock over one generated 200-program
corpus for 1, 2 and 4 workers, plus a warm re-run from the durable
store (``--store-dir``) and a distributed run against a 2-worker
loopback cluster, and records
everything in ``BENCH_mining.json`` at the repository root.

Two caveats are recorded rather than papered over:

* parallel speedup is bounded by the machine: on a single-core
  container the 4-worker run cannot beat sequential by much, so the
  *default* ≥2× speedup assertion only applies when the host actually
  has ≥4 CPUs.  ``cpu_count`` is part of the JSON record so
  downstream readers can interpret the numbers.  Under
  ``--assert-floors`` the configured parallel floor gates
  ``speedup_jobs4`` *unconditionally* — the CI floor of 0.9 says
  "dispatch overhead is bounded even with zero extra compute", which
  must hold on any box — and ``speedup_jobs2`` on hosts with at least
  2 CPUs;
* what must hold on *any* machine — and is asserted unconditionally —
  is that worker count never changes the learned specifications, and
  that a warm store eliminates re-analysis entirely.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from conftest import emit
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.dist import Coordinator, DistConfig, run_worker
from repro.eval.tables import format_table
from repro.mining import MiningConfig, MiningEngine
from repro.specs.serialize import specs_to_json

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_mining.json"
N_FILES = int(os.environ.get("REPRO_BENCH_MINING_FILES", "200"))


#: history entries kept in BENCH_mining.json; one per benchmark run,
#: so successive PRs accumulate a throughput trend line
HISTORY_LIMIT = 50


def _git_revision() -> str:
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_PATH.parent, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _prior_record() -> dict:
    """Whatever BENCH_mining.json currently holds (benchmarks merge
    into it rather than clobbering each other's sections)."""
    if BENCH_PATH.exists():
        try:
            return json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            pass
    return {}


def _backfilled(entry: dict) -> dict:
    """Every history entry carries both speedup ratios.

    Early runs recorded only the raw wall-clock numbers; derive the
    ratios those entries omitted so the trend line has no holes.  The
    warm-cache numerator is approximated by the sequential run (the
    dedicated cold-with-cache-dir timing was not recorded back then).
    """
    entry = dict(entry)
    if entry.get("parallel_speedup_jobs4") is None:
        try:
            entry["parallel_speedup_jobs4"] = round(
                entry["seconds_sequential"] / entry["seconds_jobs4"], 3)
        except (KeyError, TypeError, ZeroDivisionError):
            entry["parallel_speedup_jobs4"] = None
    if entry.get("warm_cache_speedup") is None:
        try:
            entry["warm_cache_speedup"] = round(
                entry["seconds_sequential"] / entry["seconds_warm_cache"],
                3)
        except (KeyError, TypeError, ZeroDivisionError):
            entry["warm_cache_speedup"] = None
    return entry


def _throughput_history(runs) -> list:
    """Prior runs' summaries plus this run's, oldest first."""
    history = [_backfilled(e) for e in _prior_record().get("history", [])]
    history.append({
        "revision": _git_revision(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "corpus_files": N_FILES,
        "cpu_count": os.cpu_count() or 1,
        "seconds_sequential": round(runs[1]["seconds"], 3),
        "seconds_jobs4": round(runs[4]["seconds"], 3),
        "seconds_warm_cache": round(runs["warm_cache"]["seconds"], 3),
        # the phases behind the warm-cache ratio: a warm run analyses
        # nothing, so only the cold side's analyze seconds can move it
        "seconds_analyze_sequential": round(
            runs[1]["mining"]["seconds_analyze"], 3),
        "seconds_train_sequential": round(
            runs[1]["mining"]["seconds_train"], 3),
        "seconds_analyze_warm_cache": round(
            runs["warm_cache"]["mining"]["seconds_analyze"], 3),
        "seconds_train_warm_cache": round(
            runs["warm_cache"]["mining"]["seconds_train"], 3),
        # explicit (non-gating) ratios so the trend line carries them
        "warm_cache_speedup": round(
            runs["warm_cache"]["cold_seconds"]
            / runs["warm_cache"]["seconds"], 3),
        "parallel_speedup_jobs4": round(
            runs[1]["seconds"] / runs[4]["seconds"], 3),
        "programs_per_second_sequential": round(
            runs[1]["mining"]["programs_per_second"], 3),
        "supervised_jobs4": runs[4]["mining"]["supervised"],
        "seconds_distributed": round(runs["distributed"]["seconds"], 3),
        "distributed_workers": runs["distributed"]["n_workers"],
    })
    return history[-HISTORY_LIMIT:]


def _mine(programs, jobs, store_dir=None):
    engine = MiningEngine(mining=MiningConfig(
        jobs=jobs, store_dir=str(store_dir) if store_dir else None))
    # benchmark hygiene: everything retained by earlier runs (specs,
    # reports, the corpus) would otherwise be re-scanned by every gen-2
    # collection *inside* the timed region, so later configurations
    # measure slower than earlier ones on identical work
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        learned = engine.learn(programs)
        elapsed = time.perf_counter() - start
    finally:
        gc.unfreeze()
    return learned, elapsed


def _mine_distributed(programs, n_workers):
    """A loopback cluster: one coordinator, thread workers, same box."""
    import threading

    coordinator = Coordinator(DistConfig(min_workers=n_workers))
    host, port = coordinator.bind()
    workers = [
        threading.Thread(
            target=run_worker, args=(host, port),
            kwargs={"name": f"bench-{i}", "connect_retries": 60},
            daemon=True,
        )
        for i in range(n_workers)
    ]
    for thread in workers:
        thread.start()
    try:
        engine = MiningEngine(mining=MiningConfig(), coordinator=coordinator)
        gc.collect()
        gc.freeze()
        try:
            start = time.perf_counter()
            learned = engine.learn(programs)
            elapsed = time.perf_counter() - start
        finally:
            gc.unfreeze()
    finally:
        coordinator.close()
        for thread in workers:
            thread.join(timeout=10.0)
    return learned, elapsed


def test_mining_throughput(benchmark, tmp_path, floors):
    programs = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=N_FILES, seed=9)).programs()
    cpu_count = os.cpu_count() or 1

    def measure():
        runs = {}
        # the parallel floor gates the jobs1/jobs4 *ratio*, where one
        # scheduler hiccup on either side swamps the pool overhead
        # being measured; the workload is deterministic, so interleave
        # the two gated configurations (any slow drift of the host hits
        # both) and keep each one's best of two runs
        best = {}
        for jobs in (1, 4, 1, 4):
            learned, elapsed = _mine(programs, jobs)
            if jobs not in best or elapsed < best[jobs][1]:
                best[jobs] = (learned, elapsed)
        best[2] = _mine(programs, 2)
        for jobs, (learned, elapsed) in sorted(best.items()):
            runs[jobs] = {
                "seconds": elapsed,
                "specs": specs_to_json(learned.specs, learned.scores),
                "mining": learned.mining.to_dict(),
            }
        cold, cold_s = _mine(programs, 1, store_dir=tmp_path / "store")
        warm, warm_s = _mine(programs, 1, store_dir=tmp_path / "store")
        runs["warm_cache"] = {
            "seconds": warm_s,
            "cold_seconds": cold_s,
            "specs": specs_to_json(warm.specs, warm.scores),
            "mining": warm.mining.to_dict(),
        }
        dist, dist_s = _mine_distributed(programs, n_workers=2)
        runs["distributed"] = {
            "seconds": dist_s,
            "n_workers": 2,
            "specs": specs_to_json(dist.specs, dist.scores),
            "mining": dist.mining.to_dict(),
        }
        return runs

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)

    baseline = runs[1]["seconds"]
    prior = _prior_record()
    record = {
        "history": _throughput_history(runs),
        "serve": prior.get("serve"),
        "classfile": prior.get("classfile"),
        "refine": prior.get("refine"),
        "corpus_files": N_FILES,
        "cpu_count": cpu_count,
        "note": (
            "parallel speedup requires parallel hardware; on fewer than "
            "4 CPUs the jobs4 number measures pool overhead, not the "
            "engine (determinism and cache behaviour are asserted "
            "regardless)"
        ) if cpu_count < 4 else "",
        "seconds_sequential": round(runs[1]["seconds"], 3),
        "seconds_jobs2": round(runs[2]["seconds"], 3),
        "seconds_jobs4": round(runs[4]["seconds"], 3),
        "speedup_jobs2": round(baseline / runs[2]["seconds"], 3),
        "speedup_jobs4": round(baseline / runs[4]["seconds"], 3),
        "seconds_warm_cache": round(runs["warm_cache"]["seconds"], 3),
        "warm_cache_speedup": round(
            runs["warm_cache"]["cold_seconds"]
            / runs["warm_cache"]["seconds"], 3),
        "warm_cache_programs_reanalyzed":
            runs["warm_cache"]["mining"]["n_analyzed"],
        "results_identical_across_jobs": (
            runs[1]["specs"] == runs[2]["specs"] == runs[4]["specs"]
        ),
        "seconds_distributed": round(runs["distributed"]["seconds"], 3),
        "distributed_workers": runs["distributed"]["n_workers"],
        "results_identical_distributed": (
            runs["distributed"]["specs"] == runs[1]["specs"]
        ),
        "cluster_distributed": runs["distributed"]["mining"].get("cluster"),
        "mining_jobs4": runs[4]["mining"],
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    rows = [
        ["sequential (--jobs 1)", f"{record['seconds_sequential']:.2f}s", "1.00×"],
        ["--jobs 2", f"{record['seconds_jobs2']:.2f}s",
         f"{record['speedup_jobs2']:.2f}×"],
        ["--jobs 4", f"{record['seconds_jobs4']:.2f}s",
         f"{record['speedup_jobs4']:.2f}×"],
        ["warm cache (--jobs 1)", f"{record['seconds_warm_cache']:.2f}s",
         f"{record['warm_cache_speedup']:.2f}×"],
        ["distributed (2 loopback workers)",
         f"{record['seconds_distributed']:.2f}s",
         f"{baseline / runs['distributed']['seconds']:.2f}×"],
    ]
    emit("mining_throughput", format_table(
        ["configuration", "wall-clock", "speedup"], rows,
        title=f"sharded mining over {N_FILES} files "
              f"({cpu_count} CPU(s) available)",
    ))

    # machine-independent guarantees
    assert record["results_identical_across_jobs"]
    assert record["results_identical_distributed"]
    assert record["warm_cache_programs_reanalyzed"] == 0
    # the cache can only pay for the analyze phase; training and
    # scoring are per-run, so assert the phase, not total wall-clock
    assert runs["warm_cache"]["mining"]["cache_hit_rate"] == 1.0
    # a warm run takes every program's record from the store journal
    assert runs["warm_cache"]["mining"]["n_from_store"] == N_FILES
    # parallel speedup needs parallel hardware; on fewer cores the
    # jobs4 number measures pool overhead, not the engine
    if cpu_count >= 4:
        assert record["speedup_jobs4"] >= 2.0

    # opt-in floors (--assert-floors): gate on the configured minimums
    # on every machine — a slow runner loosens a floor explicitly via
    # the command line or env, never by silently skipping the gate
    if floors.enabled:
        assert record["warm_cache_speedup"] >= floors.warm_cache_speedup, (
            f"warm cache speedup {record['warm_cache_speedup']}× below "
            f"floor {floors.warm_cache_speedup}×")
        assert record["speedup_jobs4"] >= floors.parallel_speedup, (
            f"parallel speedup {record['speedup_jobs4']}× below "
            f"floor {floors.parallel_speedup}×")
        # training runs in the parent whatever --jobs says, so only the
        # analyze share of the run parallelizes: on two CPUs the jobs2
        # ratio is capped near 1.3× and gets the same overhead floor
        if cpu_count >= 2:
            assert record["speedup_jobs2"] >= floors.parallel_speedup, (
                f"jobs2 speedup {record['speedup_jobs2']}× below "
                f"floor {floors.parallel_speedup}×")


# ----------------------------------------------------------------------
# the JVM classfile frontend over an assembled (JDK-free) corpus

N_CLASSFILES = int(os.environ.get("REPRO_BENCH_CLASSFILES", "120"))


def _assemble_classfile_corpus(directory, n):
    """``n`` distinct compiled classes exercising the container APIs."""
    from repro.frontend.classfile import ClassBuilder

    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        cb = ClassBuilder(f"bench.Widget{i}")
        cb.field("items", "java.util.List")
        cb.default_init()
        code = cb.method("fill", returns="java.lang.Object")
        code.construct("java.util.ArrayList")
        code.astore(1)
        code.aload(1)
        code.ldc_str(f"item{i}")
        code.invokevirtual("java.util.ArrayList", "add",
                           ("java.lang.Object",), "boolean")
        code.pop()
        code.aload(0)
        code.aload(1)
        code.putfield(f"bench.Widget{i}", "items", "java.util.List")
        code.aload(1)
        code.invokevirtual("java.util.ArrayList", "iterator", (),
                           "java.util.Iterator")
        code.astore(2)
        code.aload(2)
        code.invokeinterface("java.util.Iterator", "next", (),
                             "java.lang.Object")
        code.areturn()
        (directory / f"Widget{i}.class").write_bytes(cb.build())


def test_classfile_mining_throughput(benchmark, tmp_path):
    """End-to-end `learn` over assembled ``.class`` files.

    Records ``seconds_classfile`` (merged into BENCH_mining.json, not
    clobbering the source-corpus sections) and asserts the one
    machine-independent guarantee: worker count never changes the
    specs learned from compiled inputs.
    """
    from repro.corpus import mine_directory

    corpus = tmp_path / "classes"
    _assemble_classfile_corpus(corpus, N_CLASSFILES)

    def measure():
        report = mine_directory(corpus, java_registry().signatures())
        assert report.n_parsed == N_CLASSFILES, report
        runs = {}
        for jobs in (1, 4):
            learned, elapsed = _mine(report.programs, jobs)
            runs[jobs] = {
                "seconds": elapsed,
                "specs": specs_to_json(learned.specs, learned.scores),
                "mining": learned.mining.to_dict(),
            }
        return runs

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)

    record = _prior_record()
    record["seconds_classfile"] = round(runs[1]["seconds"], 3)
    record["classfile"] = {
        "corpus_files": N_CLASSFILES,
        "seconds_sequential": round(runs[1]["seconds"], 3),
        "seconds_jobs4": round(runs[4]["seconds"], 3),
        "parallel_speedup_jobs4": round(
            runs[1]["seconds"] / runs[4]["seconds"], 3),
        "programs_per_second": round(
            runs[1]["mining"]["programs_per_second"], 3),
        "results_identical_across_jobs": (
            runs[1]["specs"] == runs[4]["specs"]),
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    emit("classfile_mining", format_table(
        ["configuration", "wall-clock", "speedup"],
        [
            ["sequential (--jobs 1)",
             f"{record['classfile']['seconds_sequential']:.2f}s", "1.00×"],
            ["--jobs 4", f"{record['classfile']['seconds_jobs4']:.2f}s",
             f"{record['classfile']['parallel_speedup_jobs4']:.2f}×"],
        ],
        title=f"classfile mining over {N_CLASSFILES} assembled classes "
              f"({os.cpu_count() or 1} CPU(s) available)",
    ))

    assert record["classfile"]["results_identical_across_jobs"]


# ----------------------------------------------------------------------
# the serve daemon under chaos load

N_SERVE_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "60"))


def test_serve_chaos_latency(benchmark, tmp_path):
    """Latency percentiles of `uspec serve` under full chaos load.

    The load is open-loop with Poisson arrivals, 30% cache-warm
    snippets, malformed-frame and slow-loris clients cycling through
    the run, and analysis-worker kills from an armed fault plan.  The
    asserted contract: every accepted request gets an explicit reply —
    shedding and deadline replies are fine, a dropped connection never
    is.
    """
    import asyncio
    import threading

    from repro.runtime.faults import FaultPlan, arm
    from repro.serve import ServeConfig, SpecServer
    from repro.serve.loadgen import LoadConfig, run_load

    programs = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=30, seed=9)).programs()
    learned = MiningEngine(mining=MiningConfig()).learn(programs)
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(specs_to_json(learned.specs, learned.scores))

    from repro.serve.loadgen import make_snippet, post_query

    warm_path = tmp_path / "warm.usps"
    serve_config = dict(
        port=0, specs_path=str(specs_path), workers=2, max_queue=8,
        header_timeout=1.0, warm_path=str(warm_path),
    )

    def boot_daemon(server):
        bound = {}
        ready = threading.Event()
        loop = asyncio.new_event_loop()

        async def boot():
            bound["addr"] = await server.start()
            ready.set()
            await server.run_until_stopped()

        thread = threading.Thread(
            target=lambda: loop.run_until_complete(boot()), daemon=True)
        thread.start()
        assert ready.wait(timeout=60)
        return thread, loop, bound["addr"]

    server = SpecServer(ServeConfig(**serve_config))
    thread, loop, (host, port) = boot_daemon(server)

    def measure():
        # the plan kills the first attempt of every snippet whose keys
        # contain "k102": requests 20-29 that draw a unique snippet
        with arm(FaultPlan.parse("kill:k102:1")):
            return run_load(LoadConfig(
                host=host, port=port, requests=N_SERVE_REQUESTS,
                arrival="exp:0.03", sizes="normal:8,3", cache_ratio=0.3,
                seed=1337, timeout=60, chaos=("malformed", "slow-loris"),
                chaos_every=8,
            ))

    prime = make_snippet(6, variant=424242)
    try:
        report = benchmark.pedantic(measure, rounds=1, iterations=1)
        # a known snippet in the reply cache: the warm-restart round
        # below proves the restarted daemon still has it
        assert post_query(host, port, "alias", prime, timeout=60)[0] == 200
    finally:
        server.request_stop()
        thread.join(timeout=60)
        loop.close()
    assert not thread.is_alive()  # SIGTERM-equivalent drain finished

    # warm-restart round: kill, boot fresh from the drain snapshot,
    # and the *first* query answers from cache — no cold start
    server2 = SpecServer(ServeConfig(**serve_config))
    thread2, loop2, (host2, port2) = boot_daemon(server2)
    try:
        t0 = time.monotonic()
        status, reply = post_query(host2, port2, "alias", prime,
                                   timeout=60)
        first_query_seconds = time.monotonic() - t0
        first_query_cached = status == 200 and bool(reply.get("cached"))
    finally:
        server2.request_stop()
        thread2.join(timeout=60)
        loop2.close()
    assert not thread2.is_alive()

    record = _prior_record()
    record["serve"] = dict(
        report.to_dict(),
        n_stats_degraded=server.stats.degraded,
        n_stats_shed=server.stats.shed,
        pool_crashes=server.pool.crashes,
        pool_respawns=server.pool.respawns,
        workers=2, max_queue=8,
        warm_restart=dict(
            first_query_cached=first_query_cached,
            first_query_seconds=round(first_query_seconds, 6),
            warm_entries=server2.warm_entries,
        ),
    )
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    def ms(p):
        value = report.percentile(p)
        return f"{value * 1000:.1f}ms" if value is not None else "—"

    emit("serve_latency", format_table(
        ["metric", "value"],
        [
            ["requests sent", str(report.n_sent)],
            ["replied ok (cached)",
             f"{report.n_ok} ({report.n_cached})"],
            ["shed (429)", str(report.n_shed)],
            ["deadline (504)", str(report.n_deadline)],
            ["rejected (typed errors)", str(report.n_rejected)],
            ["dropped (contract violations)", str(report.n_dropped)],
            ["chaos: kills/malformed/loris",
             f"{server.pool.crashes}/{report.chaos_malformed}"
             f"/{report.chaos_loris}"],
            ["p50 / p95 / p99", f"{ms(50)} / {ms(95)} / {ms(99)}"],
            ["warm-restart first query",
             f"{'cached' if first_query_cached else 'COLD'} "
             f"({first_query_seconds * 1000:.1f}ms, "
             f"{server2.warm_entries} entries preloaded)"],
        ],
        title=f"uspec serve under chaos load ({N_SERVE_REQUESTS} requests)",
    ))

    # the service contract, asserted on every machine
    assert report.n_dropped == 0
    assert report.n_ok >= 1
    assert (report.n_ok + report.n_shed + report.n_deadline
            + report.n_rejected) == report.n_sent
    # warm restart never cold-starts: the snapshot carried the cache
    assert record["serve"]["warm_restart"]["first_query_cached"]


# ----------------------------------------------------------------------
# the closed-loop active refinement engine

N_REFINE_FILES = int(os.environ.get("REPRO_BENCH_REFINE_FILES", "40"))


def test_refine_throughput(benchmark, tmp_path, floors):
    """Wall-clock of `uspec refine` on the toy corpus.

    Records a ``refine`` section in BENCH_mining.json: seconds per
    generation, synthesized programs per second, and candidates
    resolved per generation.  The machine-independent guarantee — the
    run resolves near-τ candidates rather than spinning — is asserted
    unconditionally; throughput floors only under ``--assert-floors``.
    """
    from repro.active import RefineConfig, RefinementEngine
    from repro.specs.pipeline import PipelineConfig

    registry = java_registry()
    base = CorpusGenerator(registry, CorpusConfig(
        n_files=N_REFINE_FILES, seed=7)).generate()

    def measure():
        engine = RefinementEngine(
            registry,
            PipelineConfig(),
            MiningConfig(store_dir=str(tmp_path / "store")),
            RefineConfig(max_generations=2),
        )
        return engine.run(base)

    report = benchmark.pedantic(measure, rounds=1, iterations=1)

    generations = report.generations
    gen_seconds = {
        str(g.generation): round(
            report.seconds_per_generation.get(g.generation, 0.0), 3)
        for g in generations
    }
    synth_seconds = sum(
        report.seconds_per_generation.get(g.generation, 0.0)
        for g in generations
    )
    programs_per_second = (
        report.n_synthesized / synth_seconds if synth_seconds else 0.0)
    resolved_per_generation = (
        report.n_resolved / len(generations) if generations else 0.0)

    record = _prior_record()
    record["refine"] = {
        "corpus_files": N_REFINE_FILES,
        "seed": 7,
        "max_generations": 2,
        "n_generations": len(generations),
        "stop_reason": report.stop_reason,
        "seconds_baseline": round(
            report.seconds_per_generation.get(0, 0.0), 3),
        "seconds_per_generation": gen_seconds,
        "programs_synthesized": report.n_synthesized,
        "programs_synthesized_per_second": round(programs_per_second, 3),
        "candidates_resolved": report.n_resolved,
        "candidates_resolved_per_generation": round(
            resolved_per_generation, 3),
        "lift": report.lift(),
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    lift = report.lift()
    emit("refine_throughput", format_table(
        ["metric", "value"],
        [
            ["generations run (stop reason)",
             f"{len(generations)} ({report.stop_reason})"],
            ["seconds/generation",
             " / ".join(f"g{g}: {s:.2f}s"
                        for g, s in sorted(gen_seconds.items()))],
            ["programs synthesized (per second)",
             f"{report.n_synthesized} ({programs_per_second:.2f}/s)"],
            ["candidates resolved (per generation)",
             f"{report.n_resolved} ({resolved_per_generation:.2f})"],
            ["recall / F1 lift",
             f"{lift['recall']:+.4f} / {lift['f1']:+.4f}"],
        ],
        title=f"active refinement over {N_REFINE_FILES} files "
              f"(τ-band ±{report.config.band:g})",
    ))

    # machine-independent: the loop makes progress and never hurts
    assert report.n_resolved >= 1
    assert lift["f1"] >= 0.0 and lift["precision"] >= 0.0
    if floors.enabled:
        assert resolved_per_generation >= \
            floors.refine_resolved_per_generation, (
                f"{resolved_per_generation:.2f} candidates resolved per "
                f"generation, floor is "
                f"{floors.refine_resolved_per_generation}")

"""Command-line interface.

::

    uspec learn  --language java --files 250 --out specs.json
    uspec show   specs.json
    uspec analyze path/to/file.py --specs specs.json
    uspec taint  path/to/file.py --specs specs.json \\
                 --source request_arg --sink html_params

``learn`` trains on the synthetic corpus (the repository's stand-in
for a GitHub crawl); ``analyze``/``taint`` run the augmented may-alias
analysis and the taint client on real source files (Python via the
``ast`` frontend, ``.java``-suffixed files via the MiniJava frontend).

Learning always goes through the sharded mining engine
(:mod:`repro.mining`): ``--jobs N`` fans corpus shards to worker
processes, ``--store-dir`` makes re-runs incremental, and the learned
specifications are byte-identical for any ``--jobs``/``--shards``
setting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.clients.taint import TaintConfig, find_taint_flows
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry, python_registry
from repro.events import RET
from repro.frontend.minijava import parse_minijava
from repro.frontend.pyfront import parse_python
from repro.mining import MiningConfig, MiningEngine, SupervisionConfig
from repro.runtime import Budget, BudgetExceeded, RuntimeConfig, RuntimeFault
from repro.runtime.checkpoint import atomic_write_text
from repro.runtime.faults import FaultPlan, arm
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_from_json, specs_to_json

#: Exit codes (also documented in ``uspec --help``):
EXIT_OK = 0  # clean run (quarantined stragglers are still "clean")
EXIT_ERROR = 2  # usage / missing file / malformed input
EXIT_BUDGET = 3  # --strict run aborted by a resource-budget blow-up
EXIT_ALL_QUARANTINED = 4  # every corpus program quarantined

EXIT_CODES_HELP = """\
exit codes:
  0  clean (specs learned; individual quarantined programs are reported,
     not fatal)
  1  taint flows found (uspec taint only)
  2  usage error, missing file, or malformed input
  3  --strict learn run aborted because a resource budget was exhausted
  4  learn run quarantined every corpus program — nothing to learn from

environment:
  USPEC_FAULTS  deterministic fault plan for tests: where:match[:n] specs
                joined by ';' — stage faults (pointsto, history, graph),
                worker faults (kill, hang, corrupt) and write points
                (write, pre-fsync, pre-rename, post-rename)
"""


def _runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    budget = Budget(
        max_solver_iterations=args.budget_iterations,
        max_constraints=args.budget_constraints,
        max_history_events=args.budget_events,
        deadline_seconds=args.budget_seconds,
    )
    return RuntimeConfig(budget=budget, strict=args.strict)


def _non_negative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return int(text)


def _positive_float(text: str) -> float:
    try:
        if float(text) > 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a number > 0")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return int(text)


def _non_negative_float(text: str) -> float:
    try:
        if 0 <= float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")


def _fraction(text: str) -> float:
    try:
        if 0 <= float(text) <= 1:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]")


def _mining_config(args: argparse.Namespace) -> MiningConfig:
    return MiningConfig(
        jobs=args.jobs,
        shards=args.shards,
        supervision=SupervisionConfig(
            max_retries=args.max_retries,
            shard_deadline=args.shard_deadline,
            adaptive_deadline=args.adaptive_deadline,
        ),
        store_dir=args.store_dir,
    )


def _parse_endpoint(text: str):
    """``host:port`` → (host, port) for --bind / --connect."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not host:port (e.g. 127.0.0.1:7777)"
        )
    return host or "127.0.0.1", int(port)


def _make_coordinator(args: argparse.Namespace):
    """Build, bind and announce the cluster coordinator (lazy import:
    repro.dist pulls in the mining stack only when asked for)."""
    from repro.dist import Coordinator, DistConfig

    host, port = args.bind
    coordinator = Coordinator(DistConfig(
        host=host, port=port,
        min_workers=args.min_workers,
        lease_seconds=args.lease,
    ))
    host, port = coordinator.bind()
    print(f"coordinator listening on {host}:{port} "
          f"(waiting for {args.min_workers} worker(s); start them with: "
          f"uspec worker --connect {host}:{port})")
    return coordinator


def _print_mining(mining) -> None:
    hit = f"{100.0 * mining.cache_hit_rate:.0f}%"
    print(f"mining: {mining.n_programs} programs / {mining.n_shards} "
          f"shard(s) / {mining.jobs} job(s) in {mining.seconds_total:.2f}s "
          f"({mining.programs_per_second:.1f} programs/s)")
    print(f"  analyzed {mining.n_analyzed}, from store "
          f"{mining.n_from_store} ({hit}), "
          f"quarantined {mining.n_quarantined}")
    if mining.store_generation is not None:
        print(f"  store: generation {mining.store_generation}")
        recovery = mining.store_recovery or {}
        if any(recovery.values()):
            snapshot = recovery["snapshot_quarantined"]
            print(f"  store recovery: {recovery['n_quarantined']} journal "
                  f"record(s) quarantined, {recovery['truncated_bytes']} "
                  f"byte(s) truncated"
                  + (f", snapshot moved aside ({snapshot})"
                     if snapshot else ""))
        drift = mining.drift or {}
        if drift.get("previous") is not None:
            print(f"  spec drift vs generation {drift['previous']}: "
                  f"+{len(drift.get('gained', []))} gained, "
                  f"-{len(drift.get('lost', []))} lost, "
                  f"~{len(drift.get('shifted', []))} score-shifted, "
                  f"{drift.get('n_unchanged', 0)} unchanged")
    if mining.shards and len(mining.shards) > 1:
        slowest = max(mining.shards, key=lambda m: m.seconds)
        print(f"  shard wall-clock: slowest shard "
              f"#{slowest.shard_id} at {slowest.seconds:.2f}s of "
              f"{sum(m.seconds for m in mining.shards):.2f}s total")
    if mining.distributed and mining.cluster:
        c = mining.cluster
        print(f"cluster: {c['n_workers_seen']} worker(s) "
              f"({c['n_workers_lost']} lost, "
              f"{c['n_lease_expiries']} lease expiries), "
              f"{c['n_tasks_dispatched']} tasks dispatched")
    ledger = mining.ledger
    if ledger is not None and not ledger.clean:
        print(f"supervision: {ledger.n_retries} retried "
              f"({ledger.n_worker_crashes} crashes, "
              f"{ledger.n_worker_timeouts} timeouts, "
              f"{ledger.n_corrupt_results} corrupt, "
              f"{ledger.n_worker_errors} errors), "
              f"{ledger.n_bisections} bisected, "
              f"{ledger.n_poisoned} poisoned, "
              f"{ledger.n_stragglers} stragglers")


def _parse_suffixes(spec: Optional[str]) -> Tuple[str, ...]:
    """``".java, class"`` → ``(".java", ".class")`` (dots normalised)."""
    from repro.corpus import DEFAULT_SUFFIXES

    if spec is None:
        return DEFAULT_SUFFIXES
    suffixes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        suffixes.append(part if part.startswith(".") else f".{part}")
    if not suffixes:
        raise SystemExit(f"error: no usable suffixes in {spec!r}")
    return tuple(suffixes)


def _cmd_learn(args: argparse.Namespace) -> int:
    if args.drift_out and not args.store_dir:
        print("error: --drift-out requires --store-dir", file=sys.stderr)
        return EXIT_ERROR
    registry = java_registry() if args.language == "java" else python_registry()
    if args.from_dir:
        from repro.corpus import mine_directory

        report = mine_directory(Path(args.from_dir),
                                registry.signatures(),
                                suffixes=_parse_suffixes(args.suffixes))
        print(f"mined {args.from_dir}: {report.n_parsed} files parsed, "
              f"{len(report.skipped)} skipped")
        for kind, count in report.skipped_by_kind().items():
            print(f"  {kind}: {count}")
        for path, reason in report.skipped[:5]:
            print(f"  skipped {path}: {reason}")
        programs = report.programs
        if not programs:
            print("error: nothing to learn from", file=sys.stderr)
            return EXIT_ERROR
    else:
        generator = CorpusGenerator(
            registry, CorpusConfig(n_files=args.files, seed=args.seed)
        )
        print(f"generating and parsing {args.files} {args.language} files...")
        programs = generator.programs()
    print("learning specifications (analysis → model → candidates → "
          "selection)...")
    config = PipelineConfig(runtime=_runtime_config(args))
    coordinator = _make_coordinator(args) if args.distributed else None
    profiler = None
    if getattr(args, "profile_out", None):
        import cProfile

        profiler = cProfile.Profile()
    try:
        engine = MiningEngine(config, _mining_config(args), coordinator)
        if profiler is not None:
            profiler.enable()
            try:
                learned = engine.learn(programs)
            finally:
                profiler.disable()
                profiler.dump_stats(args.profile_out)
                print(f"profile written to {args.profile_out} "
                      f"(inspect with: python -m pstats {args.profile_out})")
        else:
            learned = engine.learn(programs)
    finally:
        if coordinator is not None:
            coordinator.close()
    run = learned.run
    if learned.mining is not None:
        _print_mining(learned.mining)
    if run is not None and (run.n_quarantined or run.n_degraded):
        print(f"corpus execution: {run.n_ok} ok "
              f"({run.n_degraded} degraded), "
              f"{run.n_quarantined} quarantined")
        for kind, count in run.manifest.by_kind().items():
            print(f"  {kind}: {count}")
    if args.quarantine_out and run is not None:
        # timings=False: manifest bytes must not depend on wall-clock,
        # so --jobs N and --jobs 1 runs write identical files
        run.manifest.write(Path(args.quarantine_out), timings=False)
        print(f"wrote quarantine manifest to {args.quarantine_out}")
    if args.drift_out and learned.mining is not None:
        payload = {
            "format": "uspec-drift",
            "store_generation": learned.mining.store_generation,
            "drift": learned.mining.drift,
        }
        atomic_write_text(
            Path(args.drift_out),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            durable=True,
        )
        print(f"wrote drift report to {args.drift_out}")
    if run is not None and programs and run.n_ok == 0:
        print("error: every corpus program was quarantined",
              file=sys.stderr)
        return EXIT_ALL_QUARANTINED
    print(f"scored {len(learned.scores)} candidates; "
          f"selected {len(learned.specs)} specifications")
    text = specs_to_json(learned.specs, learned.scores)
    if args.out:
        # durable: learned specs are the artifact serve daemons reload,
        # so a crash right after "wrote ..." must not lose them
        atomic_write_text(Path(args.out), text, durable=True)
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_refine(args: argparse.Namespace) -> int:
    """Closed-loop active learning over a synthetic corpus."""
    from repro.active import RefineConfig, RefineStateError, RefinementEngine

    registry = java_registry() if args.language == "java" \
        else python_registry()
    generator = CorpusGenerator(
        registry, CorpusConfig(n_files=args.files, seed=args.seed)
    )
    print(f"generating {args.files} {args.language} base files "
          f"(seed {args.seed})...")
    base = generator.generate()
    refine_config = RefineConfig(
        tau=args.tau,
        band=args.tau_band,
        max_generations=args.max_generations,
        synth_budget=args.synth_budget,
        per_candidate=args.per_candidate,
        patience=args.patience,
        seed=args.seed,
    )
    engine = RefinementEngine(
        registry,
        PipelineConfig(tau=args.tau),
        MiningConfig(jobs=args.jobs, store_dir=args.store_dir),
        refine_config,
        log=print,
    )
    try:
        report = engine.run(base)
    except RefineStateError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    lift = report.lift()
    print(f"refinement stopped: {report.stop_reason} after "
          f"{len(report.generations)} generation(s); "
          f"{report.n_resolved} candidate(s) resolved, "
          f"{report.n_synthesized} program(s) synthesized")
    print(f"  lift vs baseline: precision {lift['precision']:+.4f}, "
          f"recall {lift['recall']:+.4f}, F1 {lift['f1']:+.4f}")
    if args.out:
        atomic_write_text(Path(args.out), report.to_json(), durable=True)
        print(f"wrote refinement report to {args.out}")
    else:
        print(report.to_json(), end="")
    return EXIT_OK


def _cmd_worker(args: argparse.Namespace) -> int:
    import threading

    from repro.dist import ProtocolError, run_worker
    from repro.dist.worker import install_stop_signals

    host, port = args.connect
    log = (lambda line: None) if args.quiet else \
        (lambda line: print(line, flush=True))
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        # SIGTERM: finish + ack the in-flight task, deregister, exit 0
        install_stop_signals(stop)
    try:
        n_done = run_worker(
            host, port,
            name=args.name,
            connect_retries=args.connect_retries,
            retry_delay=args.retry_delay,
            max_tasks=args.max_tasks,
            reconnect=args.reconnect,
            jitter=args.jitter,
            jitter_seed=args.jitter_seed,
            stop=stop,
            log=log,
        )
    except (ConnectionError, ProtocolError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    print(f"worker done: {n_done} task(s) served")
    return EXIT_OK


def _cmd_show(args: argparse.Namespace) -> int:
    specs, scores = specs_from_json(Path(args.specs).read_text())
    for spec in sorted(specs, key=lambda s: -scores.get(s, 0.0)):
        score = scores.get(spec)
        prefix = f"{score:.3f}  " if score is not None else "       "
        print(f"{prefix}{spec}")
    print(f"\n{len(specs)} specifications over "
          f"{len(specs.api_classes())} API classes")
    return 0


def _load_program(path: Path):
    text = path.read_text()
    if path.suffix == ".java":
        return parse_minijava(text, source=str(path))
    return parse_python(text, source=str(path))


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.serve.query import QueryFailed, analyze_with_ladder

    program = _load_program(Path(args.file))
    specs = None
    if args.specs:
        specs, _ = specs_from_json(Path(args.specs).read_text())
    budget = Budget(
        max_solver_iterations=args.budget_iterations,
        max_constraints=args.budget_constraints,
        max_history_events=args.budget_events,
        deadline_seconds=args.budget_seconds,
    )
    try:
        sa = analyze_with_ladder(program, specs=specs, budget=budget,
                                 strict=args.strict)
    except QueryFailed as err:
        print(f"error: {err}", file=sys.stderr)
        for attempt in err.attempts:
            print(f"  {attempt.tier}: {attempt.error}", file=sys.stderr)
        return EXIT_BUDGET if err.budget_exhausted else EXIT_ERROR
    result, graph = sa.result, sa.graph
    if sa.degraded:
        print(f"note: precision degraded to '{sa.tier}' "
              f"({len(sa.attempts) - 1} richer tier(s) over budget)")
    print(f"{args.file}: {len(result.api_sites)} API call sites, "
          f"{len(graph.events)} events, {graph.edge_count} edges")
    shown = 0
    for i, s1 in enumerate(result.api_sites):
        if s1.instr.dst is None:
            continue
        for s2 in result.api_sites[:i]:
            if s2.instr.dst is None or s1.method_id == s2.method_id:
                continue
            if result.events_may_alias(s1, RET, s2, RET):
                print(f"  may-alias: {s1.method_id}() ~ {s2.method_id}()")
                shown += 1
                if shown >= args.limit:
                    return 0
    if not shown:
        print("  no cross-method return aliasing found")
    return 0


def _cmd_taint(args: argparse.Namespace) -> int:
    program = _load_program(Path(args.file))
    specs = None
    if args.specs:
        specs, _ = specs_from_json(Path(args.specs).read_text())
    config = TaintConfig.of(args.source, args.sink, args.sanitizer)
    flows = find_taint_flows(program, config, specs=specs)
    if not flows:
        print("no flows found")
        return 0
    for flow in flows:
        print(f"FLOW: {flow.source_site.method_id} → "
              f"{flow.sink_site.method_id} (argument {flow.sink_arg})")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import ServeConfig, serve

    host, port = args.bind
    config = ServeConfig(
        host=host, port=port,
        specs_path=args.specs,
        workers=args.workers,
        max_queue=args.max_queue,
        request_deadline=args.request_deadline,
        header_timeout=args.header_timeout,
        drain_timeout=args.drain_timeout,
        cache_entries=args.cache_entries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        chaos_enabled=args.chaos,
        mp_context=args.mp_context,
        warm_path=args.warm_snapshot,
    )
    asyncio.run(serve(config))
    return EXIT_OK


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.serve.loadgen import LoadConfig, run_load

    host, port = args.connect
    config = LoadConfig(
        host=host, port=port,
        kind=args.kind,
        requests=args.requests,
        arrival=args.arrival,
        sizes=args.sizes,
        cache_ratio=args.cache_ratio,
        seed=args.seed,
        timeout=args.timeout,
        chaos=tuple(args.chaos),
        chaos_every=args.chaos_every,
    )
    report = run_load(config)
    summary = report.to_dict()
    print(f"loadgen: {report.n_sent} sent, {report.n_ok} ok "
          f"({report.n_cached} cached, {report.n_degraded} degraded), "
          f"{report.n_shed} shed, {report.n_deadline} deadline, "
          f"{report.n_rejected} rejected, {report.n_dropped} dropped")
    for p in (50, 95, 99):
        value = summary.get(f"p{p}_seconds")
        if value is not None:
            print(f"  p{p}: {value * 1000.0:.1f}ms")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2,
                                             sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if report.n_dropped:
        # the service contract: every accepted request gets a reply
        print(f"error: {report.n_dropped} request(s) dropped without "
              f"a reply", file=sys.stderr)
        return 1
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """A scaled-down, single-command tour of the paper's evaluation."""
    from repro.baselines import default_dynamic_registry, run_atlas
    from repro.baselines.atlas import STATUS_FRESH, STATUS_NO_CONSTRUCTOR
    from repro.eval import precision_recall_curve
    from repro.eval.tables import format_table, tab3_rows

    out: List[str] = []
    mining_rows: List[List[str]] = []
    for language, registry in (("java", java_registry()),
                               ("python", python_registry())):
        print(f"[{language}] learning from {args.files} files ...")
        programs = CorpusGenerator(
            registry, CorpusConfig(n_files=args.files, seed=args.seed)
        ).programs()
        learned = MiningEngine(
            mining=MiningConfig(jobs=args.jobs)
        ).learn(programs)
        mining = learned.mining
        if mining is not None:
            ledger = mining.ledger
            supervision = "clean" if ledger is None or ledger.clean else (
                f"{ledger.n_retries} retried / "
                f"{ledger.n_bisections} bisected / "
                f"{ledger.n_poisoned} poisoned"
            )
            mining_rows.append([
                language,
                str(mining.n_programs),
                f"{mining.n_shards}x{mining.jobs}",
                str(mining.n_quarantined),
                f"{mining.programs_per_second:.1f}",
                f"{mining.seconds_total:.2f}",
                supervision,
            ])
        points = precision_recall_curve(learned.scores,
                                        registry.is_true_spec,
                                        taus=(0.0, 0.4, 0.6, 0.8))
        out.append(format_table(
            ["tau", "precision", "recall"],
            [[f"{p.tau:.1f}", f"{p.precision:.3f}", f"{p.recall:.3f}"]
             for p in points],
            title=f"Fig. 7 ({language}) — precision vs recall",
        ))
        out.append(format_table(
            ["API class", "specification", "#matches", "score", ""],
            tab3_rows(learned.scores, learned.extraction, registry, n=8),
            title=f"Tab. 3 ({language}) — top inferred specifications",
        ))

    if args.from_dir:
        from repro.corpus import mine_directory

        print(f"[mined] mining {args.from_dir} ...")
        report = mine_directory(Path(args.from_dir),
                                java_registry().signatures(),
                                suffixes=_parse_suffixes(args.suffixes))
        if report.programs:
            learned = MiningEngine(
                mining=MiningConfig(jobs=args.jobs)
            ).learn(report.programs)
            mining = learned.mining
            if mining is not None:
                mining_rows.append([
                    "mined",
                    str(mining.n_programs),
                    f"{mining.n_shards}x{mining.jobs}",
                    str(mining.n_quarantined + len(report.skipped)),
                    f"{mining.programs_per_second:.1f}",
                    f"{mining.seconds_total:.2f}",
                    "clean" if not report.skipped else ", ".join(
                        f"{kind}: {count}" for kind, count
                        in report.skipped_by_kind().items()),
                ])
            # no precision/recall row: a mined tree carries no ground
            # truth registry to score against
        else:
            print(f"[mined] nothing parsed under {args.from_dir}; "
                  "skipping the mined corpus row")

    print("[atlas] running the dynamic baseline ...")
    atlas_rows = []
    for result in run_atlas(default_dynamic_registry()):
        status = {STATUS_NO_CONSTRUCTOR: "no constructor",
                  STATUS_FRESH: "UNSOUND (always fresh)"}.get(
                      result.status, f"{len(result.specs)} key-insensitive flows")
        atlas_rows.append([result.cls, status])
    out.append(format_table(["API class", "Atlas outcome"], atlas_rows,
                            title="§7.5 — Atlas baseline"))

    if mining_rows:
        out.append(format_table(
            ["corpus", "programs", "shards×jobs", "quarantined",
             "prog/s", "seconds", "supervision"],
            mining_rows,
            title="§7.6 — mining throughput and supervision",
        ))

    report = "\n\n".join(out)
    print("\n" + report)
    if args.out:
        Path(args.out).write_text(report + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _add_learn_arguments(learn: argparse.ArgumentParser) -> None:
    """The full ``learn`` option set (shared with ``coordinator``)."""
    learn.add_argument("--language", choices=("java", "python"),
                       default="java")
    learn.add_argument("--files", type=int, default=250,
                       help="corpus size (default 250)")
    learn.add_argument("--seed", type=int, default=42)
    learn.add_argument("--out", help="write specs JSON here")
    learn.add_argument("--from-dir",
                       help="mine an existing directory tree instead of "
                            "generating a synthetic corpus")
    learn.add_argument("--suffixes", metavar="LIST", default=None,
                       help="comma-separated file suffixes mined under "
                            "--from-dir (default: .java,.py,.class,.jar)")
    learn.add_argument("--quarantine-out", metavar="PATH",
                       help="write the quarantine manifest (JSON) of "
                            "programs that failed every analysis tier")
    learn.add_argument("--profile-out", metavar="PATH",
                       help="profile the learn pipeline with cProfile "
                            "and dump the stats here (inspect with "
                            "python -m pstats); covers the coordinator "
                            "process only — worker time shows up as "
                            "pipe waits")
    learn.add_argument("--strict", action="store_true",
                       help="fail fast on the first per-program failure "
                            "instead of degrading and quarantining "
                            "(budget blow-ups exit with code 3)")
    learn.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                       help="worker processes for corpus analysis and "
                            "candidate matching (default 1 = "
                            "sequential); results are byte-identical "
                            "for any N, and --strict failures still "
                            "exit with codes 3/4")
    learn.add_argument("--shards", type=_positive_int, default=None,
                       metavar="N",
                       help="corpus shard count (default: 1 when "
                            "sequential, 4×jobs when parallel); "
                            "programs map to shards by a stable hash "
                            "of their source path")
    learn.add_argument("--store-dir", "--cache-dir", "--checkpoint-dir",
                       dest="store_dir", metavar="DIR",
                       help="durable store: journals every program's "
                            "samples and match records, or its "
                            "quarantine verdict, as it settles (CRC-"
                            "framed, fsync-on-commit, crash-"
                            "recoverable), keyed by content + pipeline "
                            "config, plus each run's specs generation. "
                            "A warm re-run, a resume after a kill and a "
                            "run after editing k files re-analyze only "
                            "the programs without a record, for any "
                            "--jobs/--shards setting.  --cache-dir and "
                            "--checkpoint-dir are other names for it")
    learn.add_argument("--append", action="store_true",
                       help="no effect: every --store-dir run is "
                            "incremental (re-analyzes only new or edited "
                            "programs and reports spec drift vs the "
                            "previous generation); kept for old scripts")
    learn.add_argument("--drift-out", metavar="PATH",
                       help="write the spec drift report (gained/lost/"
                            "score-shifted vs the previous store "
                            "generation) as JSON; requires --store-dir")
    learn.add_argument("--max-retries", type=_non_negative_int, default=2,
                       metavar="N",
                       help="retry a crashed/timed-out/corrupt shard "
                            "task up to N times with exponential "
                            "backoff before bisecting it (default 2)")
    learn.add_argument("--shard-deadline", type=_positive_float,
                       default=None, metavar="S",
                       help="wall-clock watchdog per shard-task "
                            "attempt: a worker running longer than S "
                            "seconds is killed and the task retried "
                            "(enables supervised dispatch even with "
                            "--jobs 1)")
    learn.add_argument("--budget-iterations", type=_positive_int,
                       metavar="N",
                       help="max points-to solver worklist iterations "
                            "per program (default: unbounded)")
    learn.add_argument("--budget-constraints", type=_positive_int,
                       metavar="N",
                       help="max constraint-graph size per program")
    learn.add_argument("--budget-events", type=_positive_int,
                       metavar="N",
                       help="max history-extension events per program")
    learn.add_argument("--budget-seconds", type=_positive_float,
                       metavar="S",
                       help="soft wall-clock deadline per analysis stage")
    learn.add_argument("--adaptive-deadline", action="store_true",
                       help="derive the effective per-attempt deadline "
                            "from observed per-program analysis times "
                            "(p95 × slack × task size) so slow-but-"
                            "healthy shards are not killed as hangs; "
                            "--shard-deadline stays as the floor")
    learn.add_argument("--distributed", action="store_true",
                       help="dispatch shard tasks to remote uspec "
                            "workers instead of local processes (see "
                            "--bind/--min-workers/--lease; equivalent "
                            "to the 'coordinator' subcommand)")
    learn.add_argument("--bind", type=_parse_endpoint,
                       default=("127.0.0.1", 0), metavar="HOST:PORT",
                       help="interface the coordinator listens on "
                            "(default 127.0.0.1:0 = loopback, "
                            "ephemeral port; the bound address is "
                            "printed at startup)")
    learn.add_argument("--min-workers", type=int, default=1, metavar="N",
                       help="wait for N registered workers before "
                            "dispatching (default 1)")
    learn.add_argument("--lease", type=_positive_float, default=15.0,
                       metavar="S",
                       help="seconds a dispatched task survives without "
                            "a worker heartbeat before it is "
                            "re-dispatched and the silent worker "
                            "dropped (default 15)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uspec",
        description="Unsupervised learning of API aliasing specifications "
                    "(PLDI 2019 reproduction)",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser(
        "learn", help="learn specifications from a corpus",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_learn_arguments(learn)
    learn.set_defaults(func=_cmd_learn)

    coord = sub.add_parser(
        "coordinator",
        help="learn over a worker cluster (learn --distributed)",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_learn_arguments(coord)
    coord.set_defaults(func=_cmd_learn, distributed=True)

    refine = sub.add_parser(
        "refine",
        help="closed-loop active learning: synthesize discriminating "
             "programs for near-τ candidates until the uncertainty "
             "band empties",
    )
    refine.add_argument("--language", choices=("java", "python"),
                        default="java")
    refine.add_argument("--files", type=int, default=40,
                        help="base corpus size (default 40)")
    refine.add_argument("--seed", type=int, default=7,
                        help="corpus + synthesis seed: fixed seed ⇒ "
                             "byte-identical programs, specs, and "
                             "report (default 7)")
    refine.add_argument("--store-dir", metavar="DIR", required=True,
                        help="statistics store: every generation is "
                             "journaled here and refine state is kept "
                             "under <DIR>/refine, so a killed run "
                             "resumes without re-synthesizing")
    refine.add_argument("--tau", type=float, default=0.6,
                        help="selection threshold (default 0.6)")
    refine.add_argument("--tau-band", type=float, default=0.15,
                        metavar="W",
                        help="half-width of the uncertainty band "
                             "around τ (default 0.15)")
    refine.add_argument("--max-generations", type=int, default=4,
                        metavar="N",
                        help="refinement generations after the "
                             "baseline (default 4)")
    refine.add_argument("--synth-budget", type=int, default=24,
                        metavar="N",
                        help="max synthesized programs admitted per "
                             "generation (default 24)")
    refine.add_argument("--per-candidate", type=int, default=3,
                        metavar="N",
                        help="alias/non-alias program pairs per "
                             "candidate per generation (default 3)")
    refine.add_argument("--patience", type=int, default=2, metavar="K",
                        help="stop after K generations with no "
                             "resolution and no F1 lift (default 2)")
    refine.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="mining worker processes (default 1); "
                             "results byte-identical for any N")
    refine.add_argument("--out", metavar="PATH",
                        help="write the RefinementReport JSON here "
                             "(default: stdout)")
    refine.set_defaults(func=_cmd_refine)

    worker = sub.add_parser(
        "worker",
        help="serve shard tasks for a coordinator until it shuts down",
    )
    worker.add_argument("--connect", type=_parse_endpoint, required=True,
                        metavar="HOST:PORT",
                        help="coordinator address (printed by "
                             "'uspec coordinator' at startup)")
    worker.add_argument("--name", default=None,
                        help="worker name in coordinator stats "
                             "(default: host + pid)")
    worker.add_argument("--connect-retries", type=int, default=20,
                        metavar="N",
                        help="connection attempts before giving up "
                             "(default 20; lets workers start before "
                             "the coordinator)")
    worker.add_argument("--retry-delay", type=_non_negative_float,
                        default=0.5, metavar="S",
                        help="seconds between attempts")
    worker.add_argument("--max-tasks", type=_positive_int, default=None,
                        metavar="N",
                        help="exit after N tasks (default: serve until "
                             "the coordinator shuts the cluster down)")
    worker.add_argument("--reconnect", action="store_true",
                        help="survive a dropped coordinator connection: "
                             "retry with exponential backoff (up to 8 "
                             "consecutive rounds) instead of exiting")
    worker.add_argument("--jitter", type=_fraction, default=0.5,
                        metavar="F",
                        help="scale each reconnect backoff by a uniform "
                             "draw from [1-F, 1] so a restarted "
                             "coordinator is not hit by synchronized "
                             "retry waves (default 0.5; 0 disables)")
    worker.add_argument("--jitter-seed", type=int, default=None,
                        metavar="N",
                        help="seed the jitter RNG for reproducible "
                             "backoff schedules (default: seeded from "
                             "the worker name)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-task log lines")
    worker.set_defaults(func=_cmd_worker)

    show = sub.add_parser("show", help="pretty-print a specs file")
    show.add_argument("specs")
    show.set_defaults(func=_cmd_show)

    an = sub.add_parser("analyze", help="may-alias analysis of one file")
    an.add_argument("file")
    an.add_argument("--specs", help="specs JSON from 'uspec learn'")
    an.add_argument("--limit", type=int, default=20)
    an.add_argument("--budget-seconds", type=_positive_float,
                    metavar="S",
                    help="overall wall-clock deadline: a file over "
                         "budget degrades down the precision ladder "
                         "inside the remaining time instead of running "
                         "unboundedly (same path as serve's per-request "
                         "deadline)")
    an.add_argument("--budget-constraints", type=_positive_int,
                    metavar="N",
                    help="max constraint-graph size before degrading")
    an.add_argument("--budget-iterations", type=_positive_int,
                    metavar="N",
                    help="max solver worklist iterations before "
                         "degrading")
    an.add_argument("--budget-events", type=_positive_int,
                    metavar="N",
                    help="max history-extension events before degrading")
    an.add_argument("--strict", action="store_true",
                    help="no degradation ladder: the first failure "
                         "aborts (budget blow-ups exit with code 3)")
    an.set_defaults(func=_cmd_analyze)

    taint = sub.add_parser("taint", help="taint-scan one file")
    taint.add_argument("file")
    taint.add_argument("--specs")
    taint.add_argument("--source", action="append", default=[],
                       help="source method name (repeatable)")
    taint.add_argument("--sink", action="append", default=[],
                       help="sink method name (repeatable)")
    taint.add_argument("--sanitizer", action="append", default=[])
    taint.set_defaults(func=_cmd_taint)

    srv = sub.add_parser(
        "serve",
        help="long-running spec-query daemon (alias/spec/taint over "
             "HTTP)",
    )
    srv.add_argument("--bind", type=_parse_endpoint,
                     default=("127.0.0.1", 8151), metavar="HOST:PORT",
                     help="listen address (default 127.0.0.1:8151; "
                          "port 0 = ephemeral, printed at startup)")
    srv.add_argument("--specs", default=None, metavar="FILE",
                     help="specs JSON from 'uspec learn'; reloaded on "
                          "SIGHUP without restarting")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="analysis subprocesses (default 2); a crash "
                          "affects only the request it was serving")
    srv.add_argument("--max-queue", type=int, default=8, metavar="N",
                     help="concurrent analyses admitted before "
                          "load-shedding with 429 'overloaded' "
                          "(default 8)")
    srv.add_argument("--request-deadline", type=_positive_float,
                     default=10.0,
                     metavar="S",
                     help="per-request wall-clock budget: pathological "
                          "snippets degrade down the precision ladder "
                          "within it, then answer 504 (default 10)")
    srv.add_argument("--header-timeout", type=_positive_float,
                     default=5.0,
                     metavar="S",
                     help="slow-loris cutoff: 408 if a request head or "
                          "body takes longer than S to arrive "
                          "(default 5)")
    srv.add_argument("--drain-timeout", type=float, default=10.0,
                     metavar="S",
                     help="SIGTERM grace: seconds to let in-flight "
                          "requests finish before forcing shutdown "
                          "(default 10)")
    srv.add_argument("--cache-entries", type=_non_negative_int,
                     default=1024, metavar="N",
                     help="replies cached by snippet content "
                          "fingerprint (default 1024, LRU; 0 = no "
                          "reply cache)")
    srv.add_argument("--breaker-threshold", type=int, default=5,
                     metavar="N",
                     help="consecutive pool failures that open the "
                          "circuit breaker (default 5)")
    srv.add_argument("--breaker-cooldown", type=float, default=2.0,
                     metavar="S",
                     help="seconds the breaker stays open before "
                          "probing the pool again (default 2)")
    srv.add_argument("--warm-snapshot", metavar="FILE",
                     help="warm-restart snapshot: written on SIGTERM "
                          "drain (and after SIGHUP reloads), loaded on "
                          "startup — a rolling restart answers its "
                          "first query from the previous process's "
                          "reply cache instead of cold-starting")
    srv.add_argument("--chaos", action="store_true",
                     help="enable the POST /chaosz fault-injection "
                          "endpoint (kills one analysis worker); for "
                          "the load harness and CI only")
    srv.add_argument("--mp-context", default="spawn",
                     choices=("spawn", "fork", "forkserver"),
                     help="multiprocessing start method for analysis "
                          "workers (default spawn: respawned workers "
                          "must not inherit live client sockets)")
    srv.set_defaults(func=_cmd_serve)

    lg = sub.add_parser(
        "loadgen",
        help="drive load (optionally with chaos) at a uspec serve "
             "daemon and report latency percentiles",
    )
    lg.add_argument("--connect", type=_parse_endpoint, required=True,
                    metavar="HOST:PORT", help="daemon address")
    lg.add_argument("--kind", choices=("alias", "spec", "taint"),
                    default="alias", help="query kind (default alias)")
    lg.add_argument("--requests", type=int, default=100, metavar="N",
                    help="requests to launch (default 100)")
    lg.add_argument("--arrival", default="exp:0.05", metavar="DIST",
                    help="inter-arrival gap distribution in seconds: "
                         "exp:MEAN, normal:MEAN,STDEV, uniform:LO,HI, "
                         "or fixed:S (default exp:0.05 — open-loop "
                         "Poisson arrivals)")
    lg.add_argument("--sizes", default="normal:8,3", metavar="DIST",
                    help="snippet size distribution in API call sites "
                         "(default normal:8,3)")
    lg.add_argument("--cache-ratio", type=float, default=0.3,
                    metavar="F",
                    help="fraction of requests drawn from a small "
                         "snippet pool to exercise the reply cache "
                         "(default 0.3)")
    lg.add_argument("--seed", type=int, default=1337,
                    help="deterministic schedule seed")
    lg.add_argument("--timeout", type=float, default=30.0, metavar="S",
                    help="client-side reply timeout (default 30)")
    lg.add_argument("--chaos", action="append", default=[],
                    choices=("slow-loris", "malformed", "kill-worker"),
                    help="inject this fault during the run "
                         "(repeatable; kill-worker needs the daemon "
                         "started with --chaos)")
    lg.add_argument("--chaos-every", type=int, default=10, metavar="N",
                    help="one chaos event per N requests (default 10)")
    lg.add_argument("--out", metavar="FILE",
                    help="write the full report JSON here")
    lg.set_defaults(func=_cmd_loadgen)

    repro = sub.add_parser(
        "reproduce",
        help="run a scaled-down version of the paper's evaluation",
    )
    repro.add_argument("--files", type=int, default=120)
    repro.add_argument("--seed", type=int, default=42)
    repro.add_argument("--jobs", type=_positive_int, default=1,
                       metavar="N",
                       help="worker processes per language corpus "
                            "(results are identical for any N)")
    repro.add_argument("--from-dir", metavar="DIR",
                       help="also mine this directory tree and report it "
                            "as an extra row of the §7.6 mining table")
    repro.add_argument("--suffixes", metavar="LIST", default=None,
                       help="comma-separated file suffixes mined under "
                            "--from-dir (default: .java,.py,.class,.jar)")
    repro.add_argument("--out", help="also write the report here")
    repro.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the one fault plan, armed while the command runs: e.g. with
        # USPEC_FAULTS="pre-fsync:journal.uspj" a store-backed learn
        # dies with exit 137 at that write, like a power cut would
        plan = FaultPlan.parse(os.environ.get("USPEC_FAULTS", ""))
        with arm(plan, exit_on_crash=True):
            return args.func(args)
    except BrokenPipeError:  # e.g. `uspec show … | head`
        return EXIT_OK
    except BudgetExceeded as err:  # --strict learn run blew a budget
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except RuntimeFault as err:  # e.g. --strict + an unretriable worker
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as err:
        print(f"error: {err.filename}: no such file", file=sys.stderr)
        return EXIT_ERROR
    except (SyntaxError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

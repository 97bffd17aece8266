"""One unit of system work, run by ``run.py`` in a fresh interpreter.

    python3 child.py TASK IN.json OUT.json

Every repetition runs in its own process, so each starts from the same
state, as a user's ``uspec learn`` does.  The parent passes
``PYTHONPATH`` pointing at the checkout's ``src/`` and sets the working
directory to the run's work directory, so every path in IN.json is
relative.

Tasks:

* ``learn`` — one mining run as a user runs it (``mine_directory`` +
  ``MiningEngine.learn``), timed from ``t_ready`` (monotonic clock,
  comparable with the parent's);
* ``reference`` — ``USpecPipeline.learn`` over the same directory: the
  specs every mining run must reproduce byte for byte;
* ``trace_learn`` — the same learning, one stage at a time, each call
  recorded as a span;
* ``serve_reference`` / ``serve_trace`` — the in-process ``run_query``
  reply for every scheduled snippet (the daemon's oracle), the latter
  also replaying each snippet stage by stage under spans.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List

from spans import Recorder

#: the precision/recall threshold of the paper's main experiments (§7.2)
TAU = 0.6


def _registry(language: str):
    from repro.corpus import java_registry, python_registry

    return java_registry() if language == "java" else python_registry()


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _n_instructions(programs) -> int:
    from repro.ir.traversal import iter_program_instructions

    return sum(1 for p in programs for _ in iter_program_instructions(p))


# ----------------------------------------------------------------------
# mining


def _spawn_workers(host: str, port: int, n: int) -> List[subprocess.Popen]:
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--connect", f"{host}:{port}", "--name", f"perf-{i}",
             "--quiet"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for i in range(n)
    ]


def _stop_workers(workers: List[subprocess.Popen]) -> None:
    for proc in workers:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def task_learn(p: Dict) -> Dict:
    from repro.corpus import mine_directory
    from repro.mining import MiningConfig, MiningEngine
    from repro.specs.serialize import specs_to_json

    registry = _registry(p["language"])
    coordinator, workers, register_s = None, [], None
    try:
        if p["workers"]:
            from repro.dist import Coordinator, DistConfig

            started = time.monotonic()
            coordinator = Coordinator(DistConfig(min_workers=p["workers"]))
            host, port = coordinator.bind()
            workers = _spawn_workers(host, port, p["workers"])
            coordinator.wait_for_workers(p["workers"], timeout=60)
            register_s = time.monotonic() - started
        mining = MiningConfig(
            jobs=p["jobs"], store_dir=p.get("store"),
            append=p.get("append", False),
        )
        gc.collect()
        t_ready = time.monotonic()
        programs = mine_directory(
            Path(p["corpus"]), registry.signatures()).programs
        learned = MiningEngine(
            mining=mining, coordinator=coordinator).learn(programs)
        seconds = time.monotonic() - t_ready
    finally:
        if coordinator is not None:
            coordinator.close()
        _stop_workers(workers)
    Path(p["specs_out"]).write_text(
        specs_to_json(learned.specs, learned.scores))
    m = learned.mining
    # every worker has been waited for by now, so the children's figure
    # is the largest one: a ``uspec worker`` or a local pool worker
    worker_mb = _maxrss_mb(resource.RUSAGE_CHILDREN)
    return {
        "t_ready": t_ready,
        "seconds": seconds,
        "maxrss_mb": _maxrss_mb(resource.RUSAGE_SELF) + worker_mb,
        "worker_maxrss_mb": worker_mb,
        "register_s": register_s,
        "n_programs": len(programs),
        "n_degraded": learned.run.n_degraded if learned.run else 0,
        "mining": {
            "n_analyzed": m.n_analyzed,
            "n_from_store": m.n_from_store,
            "n_quarantined": m.n_quarantined,
            "n_shards": m.n_shards,
            "cache_hit_rate": m.cache_hit_rate or 0.0,
            "seconds_analyze": m.seconds_analyze,
            "seconds_train": m.seconds_train,
            "seconds_extract": m.seconds_extract,
            "model_broadcast_bytes": m.model_broadcast_bytes,
            "dispatch": m.dispatch or {},
            "cluster": m.cluster or {},
        },
    }


def _quality(scores, registry) -> Dict:
    from repro.eval.precision_recall import precision_recall_curve

    (point,) = precision_recall_curve(scores, registry.is_true_spec, (TAU,))
    return {"precision": point.precision, "recall": point.recall}


def task_reference(p: Dict) -> Dict:
    from repro.corpus import mine_directory
    from repro.specs.pipeline import USpecPipeline
    from repro.specs.serialize import specs_to_json

    registry = _registry(p["language"])
    programs = mine_directory(
        Path(p["corpus"]), registry.signatures()).programs
    learned = USpecPipeline().learn(programs)
    Path(p["specs_out"]).write_text(
        specs_to_json(learned.specs, learned.scores))
    return dict(
        _quality(learned.scores, registry),
        n_programs=len(programs),
        n_quarantined=learned.run.n_quarantined,
    )


def task_trace_learn(p: Dict) -> Dict:
    """The learning pipeline one stage at a time, every call a span.

    Reproduces ``USpecPipeline.learn`` exactly (the parent checks the
    specs byte for byte).  ``append`` mode follows the incremental
    path instead: programs whose fingerprint the store holds reuse
    their journaled samples and cached bundle, the rest are analysed.
    ``dist`` mode adds the model frame the coordinator ships with
    every extract task.
    """
    from dataclasses import replace

    from repro.corpus import mine_directory
    from repro.events.graph import build_event_graph
    from repro.events.history import HistoryBuilder
    from repro.mining.cache import (
        AnalysisCache,
        pipeline_fingerprint,
        program_fingerprint,
    )
    from repro.model.dataset import (
        GraphBundle,
        bundle_seed,
        collect_bundle_samples,
    )
    from repro.model.features import encode_sample
    from repro.model.logistic import SufficientStats
    from repro.pointsto.analysis import analyze
    from repro.runtime.checkpoint import program_key
    from repro.runtime.ladder import DEFAULT_LADDER
    from repro.specs.candidates import extract_candidates
    from repro.specs.pipeline import PipelineConfig, USpecPipeline
    from repro.specs.scoring import average_top_k, score_candidates
    from repro.specs.selection import extend_with_retsame, select_specs
    from repro.specs.serialize import specs_to_json
    from repro.store.stats import SNAPSHOT_NAME, StatsStore

    registry = _registry(p["language"])
    config = PipelineConfig()
    pipeline = USpecPipeline(config)
    fingerprint = pipeline_fingerprint(config)
    budget = config.runtime.budget
    pointsto = replace(DEFAULT_LADDER[0].apply(config.pointsto),
                       budget=budget)
    history = replace(config.history, budget=budget)
    rec = Recorder()
    out: Dict = {}
    counts = dict(n_contexts=0, n_api_sites=0, n_events=0, n_edges=0,
                  n_samples=0, n_analyzed=0)
    gc.collect()

    store = cache = None
    if p["mode"] == "append":
        with rec.span("store.open"):
            store = StatsStore(Path(p["store"]), fingerprint)
        cache = AnalysisCache(str(store.cache_dir), fingerprint)
        directory = store.directory
        snapshot = directory / SNAPSHOT_NAME
        out["store"] = {
            "journal_bytes": store.journal_bytes,
            "snapshot_bytes": snapshot.stat().st_size
            if snapshot.exists() else 0,
            "n_programs": len(store),
        }
    with rec.span("frontend.parse"):
        programs = mine_directory(
            Path(p["corpus"]), registry.signatures()).programs

    stats = SufficientStats()
    bundles = []
    for index, program in enumerate(programs):
        if store is not None:
            key = program_key(program, index)
            with rec.span("mining.fingerprint"):
                fp = program_fingerprint(program)
            record = store.get(fp)
            if record is not None and cache.has_bundle(fp):
                with rec.span("mining.cache_load"):
                    bundle = cache.load_bundle_by_key(cache.key_of(fp))
                stats.add(key, list(record.samples))
                bundles.append(bundle)
                counts["n_samples"] += len(record.samples)
                continue
        else:
            key = program.source or f"#{index}"
        with rec.span("pointsto.analyze"):
            result = analyze(program, options=pointsto)
        with rec.span("events.history"):
            histories = HistoryBuilder(program, result, history).build()
        with rec.span("events.graph"):
            bundle = GraphBundle.of(program, build_event_graph(histories))
        with rec.span("model.samples"):
            samples = collect_bundle_samples(
                bundle, config.feature, config.max_positives_per_graph,
                config.negative_ratio,
                bundle_seed(config.seed, program.source, index),
            )
        with rec.span("model.hash"):
            encoded = [encode_sample(s.feature, s.label, config.feature)
                       for s in samples]
        stats.add(key, encoded)
        bundles.append(bundle)
        counts["n_analyzed"] += 1
        counts["n_contexts"] += len(result.reachable)
        counts["n_api_sites"] += len(result.api_sites)
        counts["n_events"] += len(bundle.graph.events)
        counts["n_edges"] += bundle.graph.edge_count
        counts["n_samples"] += len(samples)

    with rec.span("model.train"):
        model = pipeline.train_from_stats(stats)
    if p["mode"] == "dist":
        from repro.dist.protocol import pack_payload, unpack_payload

        with rec.span("dist.model_pack"):
            frame = pack_payload(model)
        with rec.span("dist.model_unpack"):
            unpack_payload(frame)
        out["model_frame_bytes"] = len(frame)
    with rec.span("specs.extract"):
        extraction = extract_candidates(
            bundles, model, config.feature, config.max_receiver_distance,
            enable_retrecv=config.enable_retrecv,
        )
    with rec.span("specs.score"):
        scores = score_candidates(
            extraction, partial(average_top_k, k=config.score_k))
    with rec.span("specs.select"):
        specs = select_specs(scores, config.tau)
        if config.extend:
            specs = extend_with_retsame(specs)
    if store is not None:
        store.close()

    Path(p["specs_out"]).write_text(specs_to_json(specs, scores))
    rec.write_chrome(Path(p["trace_out"]), p["workload"])
    keys = {s.position_key for block in stats.blocks.values() for s in block}
    counts.update(
        n_instructions=_n_instructions(programs),
        n_position_keys=len(keys),
        n_candidates=len(scores),
        n_selected=len(specs),
    )
    out.update(
        seconds=rec.seconds(),
        wall=rec.wall(),
        covered=rec.covered(),
        counts=counts,
        quality=_quality(scores, registry),
    )
    return out


# ----------------------------------------------------------------------
# serving


def _payloads(p: Dict):
    import hashlib

    from repro.runtime.budget import Budget
    from repro.serve.query import QueryPayload

    specs_json = Path(p["specs"]).read_text()
    digest = hashlib.sha256(specs_json.encode("utf-8")).hexdigest()
    snippets = json.loads(Path(p["snippets"]).read_text())
    # the daemon's defaults: python, no params, --request-deadline 10
    return {
        key: QueryPayload(
            kind="alias", language="python", code=code,
            specs_json=specs_json, specs_digest=digest,
            budget=Budget(deadline_seconds=p["deadline"]),
        )
        for key, code in sorted(snippets.items())
    }


def task_serve_reference(p: Dict) -> Dict:
    from repro.serve.query import run_query

    replies = {key: run_query(payload)
               for key, payload in _payloads(p).items()}
    Path(p["replies_out"]).write_text(json.dumps(replies))
    return {"n_snippets": len(replies)}


def task_serve_trace(p: Dict) -> Dict:
    """Replay every scheduled snippet stage by stage, then through
    ``run_query`` as a whole; the whole-call replies are the oracle,
    and the staged pass must reproduce their alias answers."""
    from dataclasses import replace

    from repro.events.graph import build_event_graph
    from repro.events.history import HistoryBuilder, HistoryOptions
    from repro.pointsto.analysis import PointsToOptions, analyze
    from repro.runtime.ladder import DEFAULT_LADDER
    from repro.serve.query import alias_pairs, parse_snippet, run_query
    from repro.specs.serialize import specs_from_json

    payloads = _payloads(p)
    specs, _ = specs_from_json(Path(p["specs"]).read_text())
    rec = Recorder()
    counts = dict(n_instructions=0, n_contexts=0, n_api_sites=0,
                  n_events=0, n_edges=0)
    staged: Dict[str, Dict] = {}
    gc.collect()
    for key, payload in payloads.items():
        budget = payload.budget
        options = replace(DEFAULT_LADDER[0].apply(PointsToOptions()),
                          budget=budget)
        with rec.span("frontend.parse"):
            program = parse_snippet(payload.code, payload.language)
        with rec.span("pointsto.analyze"):
            result = analyze(program, specs=specs, options=options)
        with rec.span("events.history"):
            histories = HistoryBuilder(
                program, result, replace(HistoryOptions(), budget=budget),
            ).build()
        with rec.span("events.graph"):
            graph = build_event_graph(histories)
        with rec.span("serve.alias"):
            pairs = alias_pairs(result, 20)
        staged[key] = {
            "pairs": [list(pair) for pair in pairs],
            "n_sites": len(result.api_sites),
            "n_events": len(graph.events),
            "n_edges": graph.edge_count,
        }
        counts["n_instructions"] += _n_instructions([program])
        counts["n_contexts"] += len(result.reachable)
        counts["n_api_sites"] += len(result.api_sites)
        counts["n_events"] += len(graph.events)
        counts["n_edges"] += graph.edge_count
    stage_names = {"frontend.parse", "pointsto.analyze", "events.history",
                   "events.graph", "serve.alias"}
    stage_wall = rec.wall(stage_names)
    stage_covered = rec.covered(stage_names)

    replies = {}
    for key, payload in payloads.items():
        with rec.span("serve.run_query"):
            replies[key] = run_query(payload)
    mismatched = sorted(
        key for key, reply in replies.items()
        if {k: reply[k] for k in staged[key]} != staged[key]
    )
    Path(p["replies_out"]).write_text(json.dumps(replies))
    rec.write_chrome(Path(p["trace_out"]), p["workload"])
    return {
        "n_snippets": len(replies),
        "mismatched": mismatched,
        "seconds": rec.seconds(),
        "run_query_s": rec.durations("serve.run_query"),
        "wall": stage_wall,
        "covered": stage_covered,
        "run_query_wall": rec.wall({"serve.run_query"}),
        "counts": counts,
    }


TASKS = {
    "learn": task_learn,
    "reference": task_reference,
    "trace_learn": task_trace_learn,
    "serve_reference": task_serve_reference,
    "serve_trace": task_serve_trace,
}


def main(argv: List[str]) -> int:
    task, spec_path, out_path = argv
    params = json.loads(Path(spec_path).read_text())
    result = TASKS[task](params)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

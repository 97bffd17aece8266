"""Inputs of the four benchmark workloads, generated from one seed.

Everything the system sees is made here: corpus files on disk, the
files an incremental run edits, and the serve traffic schedule.  The
same seed always yields the same bytes, and nothing here depends on
the checkout's location (corpus paths are relative to the run's work
directory, because program identities include the source path).

Corpora come from ``repro.corpus.CorpusGenerator``, so a change to
the generator is a change to the benchmark's inputs.  Each file holds
two or three API scenarios instead of the generator's default one to
four: with a narrower per-file mix the work in a 200-file corpus
varies less from seed to seed (the spread of training samples across
seeds falls from 5.5% to 2.4%), which is what lets a 10-25% regression
bound resolve on runs with different seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: files per generated corpus (full runs / ``--smoke``)
CORPUS_FILES = 200
SMOKE_FILES = 20
#: share of the learn_append corpus rewritten before the timed run
EDIT_SHARE = 0.10
#: the serve daemon's specs are learned from this many base files;
#: the Dict/List specs the queries exercise are stable from 100 on
SERVE_SPEC_FILES = 100

#: serve traffic: open-loop Poisson arrivals.  The repository holds no
#: trace of real queries; every shape parameter below is the default of
#: its own load generator (``uspec loadgen``: ``--sizes normal:8,3``,
#: ``--cache-ratio 0.3`` over a pool of 3 variants, exponential gaps).
#: The rate is the benchmark's own, unverified choice: five times
#: loadgen's ``--arrival exp:0.05`` (20 req/s), so that a 15 s window
#: holds ~1500 requests while two pool workers stay mostly idle.
SERVE_RATE = 100.0  # requests per second
SERVE_HOT_VARIANTS = 3
SERVE_HOT_SHARE = 0.30
SERVE_SITES_MEAN = 8.0
SERVE_SITES_SD = 3.0
SMOKE_REQUESTS = 100
#: ``uspec serve --cache-entries`` (its default) and the smoke run's
#: smaller cache; set-up fills the cache to this many entries so that
#: every miss in the window evicts one, as in a long-running daemon
SERVE_CACHE_ENTRIES = 1024
SMOKE_CACHE_ENTRIES = 32


@dataclass(frozen=True)
class LearnWorkload:
    """One mining workload: corpus language and how the system runs."""

    language: str
    #: "cold" (sequential), "dist" (coordinator + worker processes) or
    #: "append" (store-backed incremental run over a local pool)
    mode: str
    jobs: int = 1
    workers: int = 0


LEARN = {
    "learn_cold": LearnWorkload("java", "cold", jobs=1),
    "learn_dist": LearnWorkload("java", "dist", jobs=1, workers=2),
    "learn_append": LearnWorkload("python", "append", jobs=2),
}
SERVE = "serve_python"
WORKLOADS = tuple(LEARN) + (SERVE,)


def _corpus_generator(language: str, seed: int, n_files: int):
    from repro.corpus import (
        CorpusConfig,
        CorpusGenerator,
        java_registry,
        python_registry,
    )

    registry = java_registry() if language == "java" else python_registry()
    return CorpusGenerator(registry, CorpusConfig(
        n_files=n_files, seed=seed, min_scenarios=2, max_scenarios=3,
    ))


def write_corpus(directory: Path, language: str, seed: int,
                 n_files: int) -> Dict[str, str]:
    """Write the seed's corpus; returns file name → text."""
    directory.mkdir(parents=True, exist_ok=True)
    texts = {}
    for generated in _corpus_generator(language, seed, n_files).generate():
        (directory / generated.name).write_text(generated.text)
        texts[generated.name] = generated.text
    return texts


def edited_texts(language: str, seed: int,
                 names: List[str]) -> Dict[str, str]:
    """The files learn_append rewrites: a seed-chosen 10% of ``names``,
    each replaced by the same-index file of the seed+1 corpus."""
    k = max(1, round(EDIT_SHARE * len(names)))
    indices = sorted(random.Random(f"perf-edit:{seed}").sample(
        range(len(names)), k))
    generator = _corpus_generator(language, seed + 1, len(names))
    return {names[i]: generator.generate_one(i).text for i in indices}


def write_files(directory: Path, texts: Dict[str, str]) -> None:
    for name, text in texts.items():
        (directory / name).write_text(text)


# ----------------------------------------------------------------------
# serve traffic


def snippet(n_sites: int, variant: str) -> str:
    """A Python snippet with ``n_sites`` API call sites.

    Dict subscript stores and loads plus List append/pop: the APIs whose
    RetArg specs the Python corpus teaches, so replies depend on the
    loaded specs (the spec-augmented path of paper §6) and list real
    alias pairs.  Keys are namespaced by ``variant``, so distinct
    variants are distinct reply-cache entries.
    """
    rng = random.Random(f"perf-snippet:{variant}")
    keys = [f"k{variant}_{j}" for j in range(max(2, n_sites // 4))]
    lines = ["d = dict()", "q = list()"]
    held: List[str] = []
    for i in range(n_sites):
        draw = rng.random()
        key = rng.choice(keys)
        if draw < 0.4 or not held:
            lines.append(f"v{i} = list()")
            lines.append(f'd["{key}"] = v{i}')
            held.append(f"v{i}")
        elif draw < 0.75:
            lines.append(f'x{i} = d["{key}"]')
            held.append(f"x{i}")
        elif draw < 0.9:
            lines.append(f"q.append({rng.choice(held)})")
        else:
            lines.append(f"p{i} = q.pop()")
    return "\n".join(lines) + "\n"


def warmup_snippet(index: int) -> str:
    """Set-up queries: never part of the schedule, so they leave the
    reply cache cold for the timed window."""
    return snippet(4, f"warm{index}")


@dataclass
class Schedule:
    """Open-loop arrivals: offset from the window start, snippet key."""

    arrivals: List[Tuple[float, str]]
    snippets: Dict[str, str]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.snippets, sort_keys=True))


def _sites(rng: random.Random) -> int:
    return max(1, round(rng.gauss(SERVE_SITES_MEAN, SERVE_SITES_SD)))


def serve_schedule(seed: int, seconds: float,
                   n_requests: int = 0) -> Schedule:
    """Poisson arrivals at SERVE_RATE for ``seconds`` (or exactly
    ``n_requests`` arrivals when given): 30% from 3 hot variants that
    the reply cache keeps, the rest unique snippets that always miss."""
    rng = random.Random(f"perf-serve:{seed}")
    snippets = {f"h{j}": snippet(_sites(rng), f"{seed}h{j}")
                for j in range(SERVE_HOT_VARIANTS)}
    arrivals: List[Tuple[float, str]] = []
    t = 0.0
    while True:
        t += rng.expovariate(SERVE_RATE)
        if (len(arrivals) >= n_requests) if n_requests else (t >= seconds):
            break
        if rng.random() < SERVE_HOT_SHARE:
            key = f"h{rng.randrange(SERVE_HOT_VARIANTS)}"
        else:
            key = f"u{len(arrivals)}"
            snippets[key] = snippet(_sites(rng), f"{seed}u{len(arrivals)}")
        arrivals.append((t, key))
    used = {key for _, key in arrivals}
    return Schedule(arrivals, {k: v for k, v in snippets.items() if k in used})


def fill_schedule(seed: int, n_entries: int) -> Schedule:
    """``n_entries`` distinct snippets, all due at once, that fill the
    reply cache before the window.  Their sizes follow the window's
    distribution, so the daemon's own latency sample (``/statz``) stays
    comparable with the window's cache misses."""
    rng = random.Random(f"perf-fill:{seed}")
    snippets = {f"f{j}": snippet(_sites(rng), f"{seed}f{j}")
                for j in range(n_entries)}
    return Schedule([(0.0, key) for key in snippets], snippets)

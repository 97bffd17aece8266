"""Content-addressed incremental analysis cache.

Corpus analysis (points-to solve → histories → event graph) dominates
mining wall-clock, yet most re-runs follow an edit to a handful of
corpus files.  The cache keys each program's analysis *bundle* by

* a **pipeline fingerprint** — every configuration knob that can change
  the analysis result (points-to options, history options, degradation
  ladder, budget).  Toggling any of those invalidates the whole cache;
  knobs that only affect later stages (τ, seeds, feature hashing) or
  testing harness state (fault plans, strictness, checkpoint dirs)
  deliberately do not, so a cache built by a faulty/killed run is
  reusable by the resumed one;
* a **program fingerprint** — the source path plus the printed IR of
  the program, so editing a file changes its key and only that file is
  re-analysed.

Entries are one file each (no shared index), written via atomic
tmp+rename — parallel workers can fill one cache directory without
locks, and a kill mid-run never leaves a torn entry.  Quarantine
verdicts are cached too: a program that blew its budget last run is
not re-attempted on a warm re-run — including the supervisor's
``worker-*`` verdicts, so a program that kills workers is poisoned
exactly once.

Because entries are content-addressed and independent, size budgeting
is plain LRU-by-mtime: lookups touch the entry's mtime, and
:meth:`AnalysisCache.evict_to_budget` deletes the coldest entries
until the directory fits the budget.  Evicting an entry only costs a
recompute on the next run — never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.printer import format_program
from repro.ir.program import Program
from repro.model.dataset import GraphBundle
from repro.runtime.checkpoint import atomic_write_bytes
from repro.runtime.manifest import QuarantineEntry

# 2: bundle entries carry a CRC trailer; 3: samples sidecars carry the
# program's Alg. 1 match records (schema is part of the pipeline
# fingerprint, so bumping it retires every older entry as a miss)
CACHE_SCHEMA = 3

BUNDLE_SUFFIX = ".bundle.pkl"
QUARANTINE_SUFFIX = ".quarantine.json"
#: sidecar of a program's encoded training samples and match records
#: next to its bundle entry: a warm re-run takes everything it needs
#: from it without unpickling the bundle or re-running sampling,
#: matching or feature hashing
SAMPLES_SUFFIX = ".samples.pkl"

# trailer appended to every bundle entry: magic + crc32(payload)
TRAILER_MAGIC = b"USPC"
_TRAILER = struct.Struct("<4sI")


def pipeline_fingerprint(config) -> str:
    """Digest of every pipeline knob that shapes analysis bundles.

    ``config`` is a :class:`~repro.specs.pipeline.PipelineConfig` (typed
    loosely to keep this module import-light).  Ladder tiers contribute
    their *names* — their transforms are functions whose reprs embed
    memory addresses and are pure functions of the name.
    """
    runtime = config.runtime
    payload = "\n".join([
        f"schema={CACHE_SCHEMA}",
        f"pointsto={config.pointsto!r}",
        f"history={config.history!r}",
        f"ladder={tuple(t.name for t in runtime.ladder)!r}",
        f"budget={runtime.budget!r}",
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def program_fingerprint(program: Program) -> str:
    """Digest of one program's identity and content (printed IR)."""
    payload = f"{program.source or '<anonymous>'}\n{format_program(program)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compose_key(fingerprint: str, program_fp: str) -> str:
    """One cache key from a pipeline fingerprint and a content digest.

    Shared with the serve daemon's reply cache
    (:mod:`repro.serve.query`), which keys per-snippet analysis results
    the same way this cache keys per-program bundles.
    """
    combined = f"{fingerprint}\0{program_fp}"
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()[:32]


@dataclass
class CacheHit:
    """A cache lookup result: exactly one of bundle/entry is set."""

    bundle: Optional[GraphBundle] = None
    entry: Optional[QuarantineEntry] = None


@dataclass(frozen=True)
class CachedSamples:
    """One program's sidecar: encoded samples, match records, counts.

    Everything a run needs from a warm program, so the bundle itself is
    never read.  Samples are position-independent only for
    source-named programs (``bundle_seed`` keys on the source), so
    sidecars exist only for those.
    """

    samples: Tuple
    records: Tuple
    n_events: int
    n_edges: int


class AnalysisCache:
    """One cache directory bound to one pipeline fingerprint."""

    def __init__(self, directory, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint
        #: sticky: cleared the first time a recency touch is denied
        #: (read-only cache dir), so lookups degrade to no-touch
        #: instead of attempting — or worse, crashing on — every entry
        self._touchable = True
        #: corrupt/truncated entries detected (and deleted) by reads on
        #: this instance; surfaced as ``n_cache_corrupt`` in reports
        self.n_corrupt = 0

    def key_of(self, program_fp: str) -> str:
        return compose_key(self.fingerprint, program_fp)

    # ------------------------------------------------------------------

    def lookup(self, program_fp: str, key: str) -> Optional[CacheHit]:
        """The cached verdict for a program, or None on a miss.

        ``key`` is the *current* corpus key of the program; a cached
        quarantine entry is re-keyed to it so merged manifests always
        name programs by their position in the present corpus.
        Unreadable entries degrade to a miss (recompute), never raise.
        """
        cache_key = self.key_of(program_fp)
        bundle_path = self.directory / f"{cache_key}{BUNDLE_SUFFIX}"
        if bundle_path.exists():
            bundle = self._load_bundle(bundle_path)
            if bundle is not None:
                self._touch(bundle_path)
                return CacheHit(bundle=bundle)
        entry_path = self.directory / f"{cache_key}{QUARANTINE_SUFFIX}"
        if entry_path.exists():
            entry = self._load_quarantine(entry_path)
            if entry is not None:
                self._touch(entry_path)
                return CacheHit(entry=replace(entry, program=key))
        return None

    def load_bundle_by_key(self, cache_key: str) -> Optional[GraphBundle]:
        return self._load_bundle(self.directory / f"{cache_key}{BUNDLE_SUFFIX}")

    def has_bundle(self, program_fp: str) -> bool:
        """Whether a bundle entry exists on disk (one stat, no load)."""
        cache_key = self.key_of(program_fp)
        return (self.directory / f"{cache_key}{BUNDLE_SUFFIX}").exists()

    # ------------------------------------------------------------------
    # sidecars (the warm analyze fast path)

    def store_samples(
        self, program_fp: str, samples: Sequence, records: Sequence,
        n_events: int, n_edges: int,
    ) -> str:
        """Persist one program's samples and match records."""
        cache_key = self.key_of(program_fp)
        payload = pickle.dumps(
            (tuple(samples), tuple(records), int(n_events), int(n_edges)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        payload += _TRAILER.pack(TRAILER_MAGIC, zlib.crc32(payload)
                                 & 0xFFFFFFFF)
        atomic_write_bytes(
            self.directory / f"{cache_key}{SAMPLES_SUFFIX}", payload
        )
        return cache_key

    def load_samples(self, program_fp: str) -> Optional[CachedSamples]:
        """One program's sidecar, or None (miss/damage).

        A hit refreshes the recency of the sidecar *and* its bundle, so
        the two survive LRU sweeps together.
        """
        cache_key = self.key_of(program_fp)
        path = self.directory / f"{cache_key}{SAMPLES_SUFFIX}"
        payload = self._read_verified(path)
        if payload is None:
            return None
        try:
            samples, records, n_events, n_edges = pickle.loads(payload)
        except Exception:
            self._quarantine_corrupt(path)
            return None
        if not isinstance(samples, tuple) or not isinstance(records, tuple):
            self._quarantine_corrupt(path)
            return None
        self._touch(path)
        self._touch(self.directory / f"{cache_key}{BUNDLE_SUFFIX}")
        return CachedSamples(samples, records, n_events, n_edges)

    # ------------------------------------------------------------------

    def store_bundle(self, program_fp: str, bundle: GraphBundle) -> str:
        cache_key = self.key_of(program_fp)
        payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        payload += _TRAILER.pack(TRAILER_MAGIC, zlib.crc32(payload)
                                 & 0xFFFFFFFF)
        atomic_write_bytes(
            self.directory / f"{cache_key}{BUNDLE_SUFFIX}", payload
        )
        return cache_key

    def store_quarantine(self, program_fp: str, entry: QuarantineEntry) -> str:
        cache_key = self.key_of(program_fp)
        payload = json.dumps(entry.to_dict(), indent=2, sort_keys=True)
        atomic_write_bytes(
            self.directory / f"{cache_key}{QUARANTINE_SUFFIX}",
            payload.encode("utf-8"),
        )
        return cache_key

    # ------------------------------------------------------------------
    # size budgeting

    def _entry_files(self) -> List[Path]:
        return [
            p for suffix in (BUNDLE_SUFFIX, QUARANTINE_SUFFIX,
                             SAMPLES_SUFFIX)
            for p in self.directory.glob(f"*{suffix}")
        ]

    def total_bytes(self) -> int:
        """Bytes currently held by cache entries (index-free scan)."""
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue  # evicted/renamed concurrently
        return total

    def evict_to_budget(self, max_bytes: int) -> int:
        """Delete least-recently-used entries until the cache fits.

        Recency is entry mtime — refreshed on every lookup hit, so a
        warm working set survives and cold entries go first.  An entry
        is every file sharing one cache key (bundle plus its samples
        sidecar): they are touched together, evicted together, and
        counted once — a sidecar without its bundle (or vice versa) is
        dead weight.  Returns the number of entries evicted.
        Concurrent misses of unlinked files degrade to recomputes, never
        errors.
        """
        grouped: Dict[str, List[Tuple[float, int, Path]]] = {}
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            grouped.setdefault(path.name.split(".", 1)[0], []).append(
                (stat.st_mtime, stat.st_size, path)
            )
        # key tiebreak: deterministic order when entry mtimes collide
        entries = sorted(
            (max(m for m, _, _ in files), key, files)
            for key, files in grouped.items()
        )
        total = sum(
            size for _, _, files in entries for _, size, _ in files
        )
        evicted = 0
        for _, cache_key, files in entries:
            if total <= max_bytes:
                break
            removed = False
            for _, size, path in files:
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed = True
            if removed:
                evicted += 1
        return evicted

    def _touch(self, path: Path) -> None:
        """Refresh an entry's mtime (its LRU recency mark).

        Touching is best-effort: a cache shared read-only (a corpus
        snapshot mounted into workers, a root-owned prewarmed cache)
        still serves hits, it just loses LRU recency.  Permission-type
        failures latch ``_touchable`` off so the cost is paid once per
        cache instance, not per lookup; a missing file (an entry that
        raced an eviction) stays a per-call no-op.
        """
        if not self._touchable:
            return
        try:
            os.utime(path)
        except FileNotFoundError:
            pass  # entry raced an eviction; the load already succeeded
        except (PermissionError, OSError):
            self._touchable = False

    # ------------------------------------------------------------------

    def _quarantine_corrupt(self, path: Path) -> None:
        """A damaged entry: delete it so the slot re-analyses cleanly."""
        self.n_corrupt += 1
        try:
            path.unlink()
        except OSError:
            pass

    def _read_verified(self, path: Path) -> Optional[bytes]:
        """Read one CRC-trailed entry; its payload bytes, or None.

        The CRC trailer is verified before the payload is handed out,
        so a truncated or bit-flipped entry is detected up front
        instead of surfacing as an arbitrary unpickle exception (or
        worse, a silently wrong object).  Damage of any kind is
        treated as a miss: the entry is deleted, counted in
        :attr:`n_corrupt`, and the caller recomputes.  Only the file
        being absent is a plain miss.
        """
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None  # unreadable, not provably corrupt: plain miss
        if len(data) <= _TRAILER.size:
            self._quarantine_corrupt(path)
            return None
        magic, crc = _TRAILER.unpack_from(data, len(data) - _TRAILER.size)
        payload = data[:len(data) - _TRAILER.size]
        if magic != TRAILER_MAGIC or crc != (zlib.crc32(payload)
                                             & 0xFFFFFFFF):
            self._quarantine_corrupt(path)
            return None
        return payload

    def _load_bundle(self, path: Path) -> Optional[GraphBundle]:
        """Load + integrity-check one bundle entry (see _read_verified)."""
        payload = self._read_verified(path)
        if payload is None:
            return None
        try:
            bundle = pickle.loads(payload)
        except Exception:
            self._quarantine_corrupt(path)
            return None
        if not isinstance(bundle, GraphBundle):
            self._quarantine_corrupt(path)
            return None
        return bundle

    def _load_quarantine(self, path: Path) -> Optional[QuarantineEntry]:
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return QuarantineEntry.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError):
            self._quarantine_corrupt(path)
            return None

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"*{BUNDLE_SUFFIX}")) + sum(
            1 for _ in self.directory.glob(f"*{QUARANTINE_SUFFIX}")
        )

    def __repr__(self) -> str:
        return (f"<AnalysisCache {self.directory} "
                f"fp={self.fingerprint[:12]} ({len(self)} entries)>")

"""The durable store behind ``uspec learn --store-dir``.

A :class:`StatsStore` is the one place a mining run persists
per-program results: per pipeline fingerprint, each program's encoded
sufficient statistics (the
:class:`~repro.model.features.SampleBlock` that feeds
``SufficientStats``), Alg. 1 match records and graph counts — or its
quarantine verdict — plus the specification set of each training
generation.  A warm re-run, a resume after a kill and a run after
edits are all the same lookup into it.  State lives in one directory per
fingerprint::

    <store_dir>/<fingerprint-prefix>/
        journal.uspj     append-only record journal (see journal.py)
        snapshot.usps    compacted state (see snapshot.py)

Record kinds:

* ``PROGRAM`` — a program's statistics and match records, or its
  quarantine entry, keyed by its content fingerprint.  Samples are
  derived from the *source name* (``bundle_seed`` hashes the name, not
  the corpus position), so a stored record stays valid when the corpus
  is reordered — only the corpus key is re-stamped on load.  Its
  samples are one pickled ``SampleBlock`` (raw arrays); a record
  written before blocks existed holds a tuple of ``EncodedSample``
  objects and still loads, because ``SufficientStats.add`` packs it.
* ``RETIRE`` — the program left the corpus; drop its statistics.
* ``GENERATION`` — the canonical spec → score map of one training run,
  the baseline that spec drift is computed against.

Replay is idempotent: later PROGRAM records for a fingerprint supersede
earlier ones, and generations take the max — so re-appending records
that a crash left both in the snapshot and the journal is harmless.
"""
from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.runtime.manifest import QuarantineEntry
from repro.specs.patterns import Spec, SpecSet
from repro.specs.serialize import spec_to_dict
from repro.store.journal import RecordJournal, RecoveryReport
from repro.store.snapshot import load_snapshot, write_snapshot

STORE_SCHEMA = 1
JOURNAL_NAME = "journal.uspj"
SNAPSHOT_NAME = "snapshot.usps"

KIND_PROGRAM = 1
KIND_RETIRE = 2
KIND_GENERATION = 3

# compact once the journal outgrows this (keeps recovery scans short)
DEFAULT_COMPACT_BYTES = 4 << 20


@dataclass
class StoredProgram:
    """One program's persisted result: statistics and matches, or the
    quarantine verdict that stops it being re-attempted."""

    fingerprint: str            # content fingerprint (source + IR)
    key: str                    # corpus key at the time of storing
    source: Optional[str]
    #: the program's SampleBlock (older records: a tuple of
    #: EncodedSamples, which SufficientStats.add packs)
    samples: object
    n_events: int = 0
    n_edges: int = 0
    records: Tuple = ()        # Tuple[MatchRecord, ...]
    entry: Optional[QuarantineEntry] = None


#: the payload type each record kind must decode to
_KIND_TYPES = {
    KIND_PROGRAM: StoredProgram,
    KIND_RETIRE: (list, tuple),
    KIND_GENERATION: dict,
}


def _decode(kind: int, payload: bytes):
    """One journal payload as its record value; raises when the CRC
    passed but the payload is not a record of its kind."""
    obj = pickle.loads(payload)
    expected = _KIND_TYPES.get(kind)
    if expected is None or not isinstance(obj, expected):
        raise ValueError(f"kind {kind} record holds {type(obj).__name__}")
    return obj


def spec_key(spec: Spec) -> str:
    """Canonical string identity of a spec, for drift comparison."""
    return json.dumps(spec_to_dict(spec), sort_keys=True)


@dataclass
class SpecDrift:
    """How one generation's specs differ from the previous one."""

    generation: int
    previous: Optional[int]
    gained: List[dict] = field(default_factory=list)
    lost: List[dict] = field(default_factory=list)
    shifted: List[dict] = field(default_factory=list)
    n_unchanged: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.gained or self.lost or self.shifted)

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "previous": self.previous,
            "gained": self.gained,
            "lost": self.lost,
            "shifted": self.shifted,
            "n_unchanged": self.n_unchanged,
        }

    def summary(self) -> str:
        if self.previous is None:
            return (f"generation {self.generation} (first): "
                    f"{self.n_unchanged + len(self.gained)} specs")
        return (f"generation {self.generation} vs {self.previous}: "
                f"+{len(self.gained)} gained, -{len(self.lost)} lost, "
                f"~{len(self.shifted)} score-shifted, "
                f"{self.n_unchanged} unchanged")


class StatsStore:
    """Durable per-fingerprint program statistics + generation history."""

    def __init__(self, directory: Path, fingerprint: str,
                 compact_bytes: int = DEFAULT_COMPACT_BYTES) -> None:
        self.fingerprint = fingerprint
        self.directory = Path(directory) / fingerprint[:16]
        self.directory.mkdir(parents=True, exist_ok=True)
        #: never created: kept because benchmarks/perf/child.py reads it
        self.cache_dir = self.directory / "cache"
        self.compact_bytes = compact_bytes
        self.programs: Dict[str, StoredProgram] = {}
        self.generation = 0
        self._last_specs: Dict[str, Tuple[dict, Optional[float]]] = {}
        self._journal = RecordJournal(self.directory / JOURNAL_NAME)
        self.snapshot_quarantined: Optional[str] = None
        self.recovery = self._load()

    # -- loading -------------------------------------------------------

    def _load(self) -> RecoveryReport:
        snap, reason = load_snapshot(self.directory / SNAPSHOT_NAME)
        self.snapshot_quarantined = reason
        if isinstance(snap, dict) and snap.get("schema") == STORE_SCHEMA \
                and snap.get("fingerprint") == self.fingerprint:
            self.programs = dict(snap["programs"])
            self.generation = int(snap["generation"])
            self._last_specs = dict(snap["last_specs"])
        records, report = self._journal.recover(_decode)
        for kind, obj in records:
            self._apply(kind, obj)
        return report

    def _apply(self, kind: int, obj) -> None:
        if kind == KIND_PROGRAM:
            self.programs[obj.fingerprint] = obj
        elif kind == KIND_RETIRE:
            for fingerprint in obj:
                self.programs.pop(fingerprint, None)
        else:
            generation = int(obj.get("generation", 0))
            if generation >= self.generation:
                self.generation = generation
                self._last_specs = dict(obj.get("specs", {}))

    # -- queries -------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[StoredProgram]:
        return self.programs.get(fingerprint)

    def __len__(self) -> int:
        return len(self.programs)

    @property
    def journal_bytes(self) -> int:
        return self._journal.size_bytes

    def recovery_counts(self) -> Dict[str, object]:
        """What opening the store repaired: journal records quarantined
        (bad CRC or undecodable payload; :meth:`maybe_compact` drops
        them from the journal), torn bytes truncated, and the reason a
        damaged snapshot was moved aside (None if it was not)."""
        return {
            "n_quarantined": self.recovery.n_quarantined,
            "truncated_bytes": self.recovery.truncated_bytes,
            "snapshot_quarantined": self.snapshot_quarantined,
        }

    # -- mutation ------------------------------------------------------

    def put_program(self, record: StoredProgram) -> None:
        self.programs[record.fingerprint] = record
        self._journal.append(
            KIND_PROGRAM,
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    def retire(self, fingerprints: Iterable[str]) -> None:
        dropped = [fp for fp in fingerprints
                   if self.programs.pop(fp, None) is not None]
        if dropped:
            self._journal.append(
                KIND_RETIRE,
                pickle.dumps(sorted(dropped),
                             protocol=pickle.HIGHEST_PROTOCOL))

    def record_generation(self, specs: SpecSet,
                          scores: Dict[Spec, float]) -> SpecDrift:
        """Persist this run's specs and report drift vs the last run."""
        current: Dict[str, Tuple[dict, Optional[float]]] = {}
        for spec in specs:
            score = scores.get(spec)
            current[spec_key(spec)] = (
                spec_to_dict(spec),
                None if score is None else round(float(score), 6))
        previous = self.generation if self._last_specs or self.generation \
            else None
        drift = SpecDrift(generation=self.generation + 1, previous=previous)
        for key, (entry, score) in sorted(current.items()):
            if key not in self._last_specs:
                drift.gained.append(dict(entry, score=score))
            else:
                old_score = self._last_specs[key][1]
                if old_score != score:
                    drift.shifted.append(
                        dict(entry, old_score=old_score, score=score))
                else:
                    drift.n_unchanged += 1
        for key, (entry, score) in sorted(self._last_specs.items()):
            if key not in current:
                drift.lost.append(dict(entry, score=score))
        self.generation += 1
        self._last_specs = current
        self._journal.append(
            KIND_GENERATION,
            pickle.dumps({"generation": self.generation, "specs": current},
                         protocol=pickle.HIGHEST_PROTOCOL))
        return drift

    # -- compaction ----------------------------------------------------

    def compact(self) -> None:
        """Fold journal + snapshot into a fresh snapshot, then reset the
        journal.  Snapshot first, truncate second: a crash between the
        two leaves records present in both, and replay is idempotent."""
        write_snapshot(self.directory / SNAPSHOT_NAME, {
            "schema": STORE_SCHEMA,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
            "programs": self.programs,
            "last_specs": self._last_specs,
        })
        self._journal.reset()

    def maybe_compact(self) -> bool:
        """Compact a journal past ``compact_bytes`` — or one that still
        holds records recovery skipped, so the next open neither reads
        nor reports that damage again."""
        if (self.journal_bytes >= self.compact_bytes
                or self.recovery.n_quarantined):
            self.compact()
            return True
        return False

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "StatsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<StatsStore {self.directory} gen={self.generation} "
                f"programs={len(self.programs)}>")

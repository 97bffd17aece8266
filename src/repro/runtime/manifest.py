"""Structured quarantine manifests.

Every program the :class:`~repro.runtime.executor.CorpusExecutor`
fails to analyse — after walking the whole degradation ladder — gets a
:class:`QuarantineEntry` recording the taxonomy class of the final
error and the full per-tier attempt trail.  The manifest is plain JSON
so external tooling (and resumed runs) can consume it, and its
serialisation is deterministic: it carries no wall-clock readings and
entries are sorted by program key, so runs with any worker count
produce byte-identical manifests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.runtime.checkpoint import atomic_write_text

SCHEMA_VERSION = 1


@dataclass
class TierAttempt:
    """One rung of the ladder tried for one program."""

    tier: str
    error_kind: Optional[str] = None  # None ⇒ this tier succeeded
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.error_kind is None

    def to_dict(self) -> Dict:
        return {
            "tier": self.tier,
            "error_kind": self.error_kind,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TierAttempt":
        return cls(
            tier=data["tier"],
            error_kind=data.get("error_kind"),
            error=data.get("error"),
        )


@dataclass
class QuarantineEntry:
    """One program that failed every ladder tier."""

    program: str  # stable program key (source path or synthetic key)
    source: Optional[str]
    error_kind: str  # taxonomy label of the *final* attempt's error
    error: str
    attempts: List[TierAttempt] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "program": self.program,
            "source": self.source,
            "error_kind": self.error_kind,
            "error": self.error,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "QuarantineEntry":
        return cls(
            program=data["program"],
            source=data.get("source"),
            error_kind=data["error_kind"],
            error=data.get("error", ""),
            attempts=[TierAttempt.from_dict(a) for a in data.get("attempts", [])],
        )


@dataclass
class QuarantineManifest:
    """All quarantined programs of one corpus run."""

    entries: List[QuarantineEntry] = field(default_factory=list)

    def add(self, entry: QuarantineEntry) -> None:
        self.entries.append(entry)

    def by_kind(self) -> Dict[str, int]:
        """Taxonomy label → number of quarantined programs."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.error_kind] = counts.get(entry.error_kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON: the same entries give the same bytes."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "n_quarantined": len(self.entries),
            "by_kind": self.by_kind(),
            "entries": [
                e.to_dict()
                for e in sorted(self.entries, key=lambda e: e.program)
            ],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuarantineManifest":
        data = json.loads(text)
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported quarantine manifest schema {version!r}"
            )
        return cls([QuarantineEntry.from_dict(e) for e in data["entries"]])

    def write(self, path: Path) -> None:
        atomic_write_text(Path(path), self.to_json() + "\n", durable=True)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"<QuarantineManifest {len(self.entries)} entries>"

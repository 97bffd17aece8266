"""Deterministic corpus sharding.

A shard is a stable subset of a corpus: program → shard assignment
depends only on the program's identity (its source path, or its corpus
key for anonymous programs) and the shard count, never on corpus
order, worker count, or scheduling.  Re-running a mining job with the
same shard count therefore re-creates the same shards — which is what
makes shard-level work distributable across machines.

The hash is CRC32 (as elsewhere in the repo: deterministic across
processes and platforms, unlike ``hash()`` under PYTHONHASHSEED).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple


def shard_of(identity: str, n_shards: int) -> int:
    """The shard owning ``identity`` (a program path or corpus key)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(identity.encode("utf-8")) % n_shards


@dataclass(frozen=True)
class ShardPlan:
    """The shard assignment of one corpus.

    ``assignments[i]`` is the shard id of corpus unit ``i``.  Shards
    may be empty — assignment is by hash, not by packing — and
    :meth:`members` preserves corpus order within a shard, so the merge
    of per-shard results in shard order visits programs in a canonical
    order.
    """

    n_shards: int
    assignments: Tuple[int, ...]

    @classmethod
    def of(cls, identities: Sequence[str], n_shards: int) -> "ShardPlan":
        return cls(n_shards, tuple(shard_of(s, n_shards) for s in identities))

    def members(self, shard_id: int) -> List[int]:
        """Corpus indices owned by ``shard_id``, in corpus order."""
        return [i for i, s in enumerate(self.assignments) if s == shard_id]

    def non_empty(self) -> List[int]:
        """Shard ids that own at least one unit, ascending."""
        return sorted(set(self.assignments))

    def __len__(self) -> int:
        return len(self.assignments)

    def __repr__(self) -> str:
        return (f"<ShardPlan {len(self.assignments)} units over "
                f"{self.n_shards} shards ({len(self.non_empty())} non-empty)>")

"""Atomic file writes and stable corpus program keys.

Every durable artifact outside the store journal (specs, quarantine
manifests, drift reports, snapshots, refinement state) is written via
tmp-file + rename, so a kill at any point leaves either the old content
or the new one.  Per-program results persist only in the
:class:`~repro.store.stats.StatsStore` journal.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.ir.program import Program
from repro.store.faults import (
    POINT_POST_RENAME,
    POINT_PRE_FSYNC,
    POINT_PRE_RENAME,
    checked_write,
    crash_hook,
)


def fsync_directory(directory: Path) -> None:
    """Persist a rename/create in ``directory`` across a crash."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that refuse O_RDONLY on directories
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes,
                       durable: bool = False) -> None:
    """Write ``payload`` to ``path`` via tmp-file + rename.

    A kill at any point leaves either the old content or the new one,
    never a torn file.  The tmp name embeds the pid so concurrent
    writers never clobber each other's in-flight temp file; the final
    ``rename`` is atomic within one filesystem.

    With ``durable=True`` the tmp file is fsynced before the rename and
    the parent directory is fsynced after it, so a power loss
    immediately after return cannot lose the write — the discipline the
    journal snapshot and specs writers opt into.  The crash hooks mark
    the injection matrix for the recovery tests; they are no-ops unless
    a :class:`~repro.store.faults.CrashPlan` is armed.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    # no cleanup on failure: a real crash leaves the tmp file behind,
    # and recovery must tolerate stale tmps — so the simulation does too
    with tmp.open("wb") as fh:
        checked_write(fh, payload, path)
        if durable:
            fh.flush()
            crash_hook(POINT_PRE_FSYNC, path)
            os.fsync(fh.fileno())
    crash_hook(POINT_PRE_RENAME, path)
    tmp.replace(path)
    crash_hook(POINT_POST_RENAME, path)
    if durable:
        fsync_directory(path.parent)


def atomic_write_text(path: Path, payload: str,
                      durable: bool = False) -> None:
    atomic_write_bytes(path, payload.encode("utf-8"), durable=durable)


def program_key(program: Program, index: int) -> str:
    """Stable identity of a corpus program for manifests and faults."""
    return f"{index:06d}:{program.source or '<anonymous>'}"

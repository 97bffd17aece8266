"""Deterministic crash-point fault injection for durable writers.

A ``CrashPlan`` holds a set of one-shot ``CrashSpec`` triggers; every
durable writer (journal, snapshot, atomic file writes) threads its
writes through :func:`checked_write` and marks the dangerous
transitions with :func:`crash_hook`.  When an armed spec matches the current (point,
path) the process "dies": either by raising :class:`SimulatedCrash`
(a ``BaseException``, so ordinary ``except Exception`` recovery code
cannot swallow it — the in-process test mode) or by ``os._exit`` (the
subprocess/CI mode, which skips ``atexit`` and ``finally`` blocks the
way a real crash would).

This module must stay a stdlib-only leaf: ``repro.runtime.checkpoint``
imports it, so importing anything from ``repro`` here would create a
cycle.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import IO, List, Optional

# the injection matrix: every durable writer crosses these transitions
POINT_WRITE = "write"            # die after byte N of the payload write
POINT_PRE_FSYNC = "pre-fsync"    # after write, before fsync
POINT_PRE_RENAME = "pre-rename"  # after tmp fsync, before rename
POINT_POST_RENAME = "post-rename"  # after rename, before dir fsync
CRASH_POINTS = (POINT_WRITE, POINT_PRE_FSYNC, POINT_PRE_RENAME,
                POINT_POST_RENAME)

ENV_VAR = "USPEC_CRASH_PLAN"
CRASH_EXIT_CODE = 137


class SimulatedCrash(BaseException):
    """An injected crash.  Deliberately not an ``Exception`` so that
    writer-local recovery code cannot catch it by accident."""


@dataclass
class CrashSpec:
    """One trigger: ``point:match[:byte]``.

    ``match`` is a substring of the destination path; ``byte`` is only
    meaningful for the ``write`` point and names how many payload bytes
    reach the file before the crash.
    """

    point: str
    match: str
    byte: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "CrashSpec":
        parts = text.split(":")
        if len(parts) == 2:
            point, match = parts
            byte = None
        elif len(parts) == 3:
            point, match, raw = parts
            byte = int(raw)
        else:
            raise ValueError(f"bad crash spec {text!r} "
                             "(want point:match[:byte])")
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r} "
                             f"(one of {', '.join(CRASH_POINTS)})")
        if point == POINT_WRITE and byte is None:
            raise ValueError(f"crash point 'write' needs a byte: {text!r}")
        return cls(point=point, match=match, byte=byte)

    def matches(self, point: str, path: str) -> bool:
        return self.point == point and self.match in path


@dataclass
class CrashPlan:
    """An armed set of crash specs.  Each spec fires at most once, so
    recovery code running in the same process cannot re-trip it."""

    specs: List[CrashSpec] = field(default_factory=list)
    exit_code: Optional[int] = None  # None → raise SimulatedCrash
    fired: List[CrashSpec] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str,
              exit_code: Optional[int] = None) -> "CrashPlan":
        specs = [CrashSpec.parse(part) for part in text.split(";") if part]
        return cls(specs=specs, exit_code=exit_code)

    def _die(self, spec: CrashSpec, path: str) -> None:
        self.specs.remove(spec)
        self.fired.append(spec)
        if self.exit_code is not None:
            os._exit(self.exit_code)
        raise SimulatedCrash(f"crash at {spec.point} of {path}")

    def fire(self, point: str, path: str) -> None:
        for spec in self.specs:
            if spec.byte is None and spec.matches(point, path):
                self._die(spec, path)
                return  # pragma: no cover - _die never returns

    def write_crash_byte(self, path: str) -> Optional[CrashSpec]:
        for spec in self.specs:
            if spec.byte is not None and spec.matches(POINT_WRITE, path):
                return spec
        return None


_active: Optional[CrashPlan] = None


def install_crash_plan(plan: Optional[CrashPlan]) -> None:
    global _active
    _active = plan


def active_plan() -> Optional[CrashPlan]:
    return _active


def install_crash_plan_from_env() -> Optional[CrashPlan]:
    """Arm a plan from ``USPEC_CRASH_PLAN`` (the CLI/CI path).  Crashes
    fire as ``os._exit(137)`` so the harness sees a kill, not a
    traceback."""
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    plan = CrashPlan.parse(text, exit_code=CRASH_EXIT_CODE)
    install_crash_plan(plan)
    return plan


def crash_hook(point: str, path: os.PathLike | str) -> None:
    """Mark a crash point in a writer.  No-op unless a plan is armed."""
    if _active is not None:
        _active.fire(point, str(path))


def checked_write(handle: IO[bytes], payload: bytes,
                  path: os.PathLike | str) -> None:
    """Write ``payload``, honouring an armed die-at-byte-N spec: the
    prefix is flushed (it "reached disk") before the crash."""
    if _active is not None:
        spec = _active.write_crash_byte(str(path))
        if spec is not None and spec.byte is not None \
                and spec.byte < len(payload):
            handle.write(payload[:spec.byte])
            handle.flush()
            _active._die(spec, str(path))
    handle.write(payload)

"""Deterministic fault injection: one plan, one grammar.

A :class:`FaultPlan` holds specs ``where:match[:n]``, joined by ``;``
in the CLI's ``USPEC_FAULTS`` variable:

* **stage fault** (``pointsto``, ``history``, ``graph``; ``match`` is a
  program-key substring): the executor raises the spec's taxonomy
  ``error`` at that stage on the first ``n`` ladder tiers (all without
  ``n``);
* **worker fault** (``kill``, ``hang``, ``corrupt``): the worker that
  reaches a matching program exits 137, stalls, or replies with a
  result the parent's validator rejects, on the first ``n`` task
  attempts (a toxic program without ``n``);
* **write point** (``write``, ``pre-fsync``, ``pre-rename``,
  ``post-rename``; ``match`` is a destination-path substring): a
  durable writer crashes there once, ``write:match:n`` after ``n``
  payload bytes reached the file.

Matching is a substring plus the tier or attempt counter, never
randomness.  A process arms one plan (:func:`arm`), which durable
writers read; workers fire stage and worker faults only from the plan
their task carried.  This module imports only
:mod:`repro.runtime.errors`, so durable writers can use it without an
import cycle.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterator, Optional, Sequence, Tuple

from repro.runtime.errors import (
    BUDGET_EXCEEDED,
    FAULT_CLASSES,
    SOLVER_CRASH,
    TAXONOMY,
    BudgetExceeded,
    RuntimeFault,
)

#: analysis stages the executor probes
STAGES = ("pointsto", "history", "graph")
#: worker faults: die, stop making progress, or reply with garbage
WORKER_FAULTS = ("kill", "hang", "corrupt")
#: durable-write transitions every writer crosses
POINT_WRITE = "write"            # after n bytes of the payload write
POINT_PRE_FSYNC = "pre-fsync"    # after write, before fsync
POINT_PRE_RENAME = "pre-rename"  # after tmp fsync, before rename
POINT_POST_RENAME = "post-rename"  # after rename, before dir fsync
WRITE_POINTS = (POINT_WRITE, POINT_PRE_FSYNC, POINT_PRE_RENAME,
                POINT_POST_RENAME)

#: exit status of every injected death, like a SIGKILLed process
KILL_EXIT_CODE = 137


class SimulatedCrash(BaseException):
    """An in-process write crash.  Deliberately not an ``Exception`` so
    that writer-local recovery code cannot catch it by accident."""


class CorruptResult(Exception):
    """Raised by a ``corrupt`` worker fault.  The mining runner replies
    with its text in place of a result, which the parent's validator
    rejects."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection point, ``where:match[:n]``; ``error`` is the
    taxonomy label a stage fault raises (the grammar does not spell it)."""

    where: str
    match: str
    n: Optional[int] = None
    error: str = SOLVER_CRASH

    def __post_init__(self) -> None:
        kinds = STAGES + WORKER_FAULTS + WRITE_POINTS
        if self.where not in kinds:
            raise ValueError(f"unknown fault {self.where!r}; expected "
                             f"one of {', '.join(kinds)}")
        if not self.match:
            raise ValueError(f"fault {self.where!r} needs a match")
        if self.where == POINT_WRITE:
            if self.n is None or self.n < 0:
                raise ValueError("fault 'write' needs a byte count >= 0")
        elif self.where in WRITE_POINTS:
            if self.n is not None:
                raise ValueError(f"fault {self.where!r} takes no count")
        elif self.n is not None and self.n < 1:
            raise ValueError(f"fault {self.where!r} needs a count >= 1 "
                             f"(omit it to fail every time)")
        if self.error not in TAXONOMY:
            raise ValueError(f"unknown taxonomy label {self.error!r}; "
                             f"expected one of {TAXONOMY}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"malformed fault spec {text!r}; expected where:match[:n]")
        try:
            n = int(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise ValueError(f"malformed fault spec {text!r}: "
                             f"{parts[2]!r} is not an integer") from None
        return cls(parts[0], parts[1], n)

    def hits(self, key: str, counter: int) -> bool:
        return self.match in key and (self.n is None or counter < self.n)

    def raise_fault(self, stage: str) -> None:
        if self.error == BUDGET_EXCEEDED:
            raise BudgetExceeded("injected", 1, 0, stage=stage)
        err = FAULT_CLASSES.get(self.error, RuntimeFault)(
            f"injected fault (stage: {stage})", stage=stage)
        err.kind = self.error  # for labels without a dedicated class
        raise err


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` injection points."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        #: write points not yet fired
        self._writes = [s for s in self.specs if s.where in WRITE_POINTS]

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``spec;spec;...`` (empty text: no faults)."""
        return cls([FaultSpec.parse(part) for part in text.split(";")
                    if part])

    @property
    def has_worker_faults(self) -> bool:
        return any(s.where in WORKER_FAULTS for s in self.specs)

    def fire_stage(self, key: str, stage: str, tier: int) -> None:
        """Raise the first stage fault on ``key`` at ``stage`` for
        ladder tier number ``tier`` (0-based), if any."""
        for spec in self.specs:
            if spec.where == stage and spec.hits(key, tier):
                spec.raise_fault(stage)

    def fire_worker(self, key: str, attempt: int) -> None:
        """Trip the first worker fault on ``key`` for task attempt
        number ``attempt`` (0-based), if any."""
        for spec in self.specs:
            if spec.where not in WORKER_FAULTS or not spec.hits(key, attempt):
                continue
            if spec.where == "kill":
                os._exit(KILL_EXIT_CODE)
            if spec.where == "hang":
                while True:  # until the parent's deadline reclaims us
                    time.sleep(60.0)
            raise CorruptResult(f"corrupt result injected at {key}")

    def take_write(self, point: str, path: str,
                   size: Optional[int] = None) -> Optional[FaultSpec]:
        """Spend the first write point ``point`` on ``path``, if any; a
        ``write`` point only for a payload it leaves torn."""
        for spec in self._writes:
            if (spec.where == point and spec.match in path
                    and (size is None or spec.n < size)):
                self._writes.remove(spec)
                return spec
        return None


# ----------------------------------------------------------------------
# the process's armed plan, read by durable writers

_armed = FaultPlan()
_exit_on_crash = False


@contextmanager
def arm(plan: FaultPlan, *,
        exit_on_crash: bool = False) -> Iterator[FaultPlan]:
    """Arm ``plan`` for this process while the block runs.

    A write crash raises :class:`SimulatedCrash`, or with
    ``exit_on_crash`` ends the process by ``os._exit(137)``, which
    skips ``atexit`` and ``finally`` blocks the way a real crash would.
    """
    global _armed, _exit_on_crash
    previous = _armed, _exit_on_crash
    _armed, _exit_on_crash = plan, exit_on_crash
    try:
        yield plan
    finally:
        _armed, _exit_on_crash = previous


def armed() -> FaultPlan:
    """The plan armed in this process (empty when none is)."""
    return _armed


def _crash(point: str, path: str) -> None:
    if _exit_on_crash:
        os._exit(KILL_EXIT_CODE)
    raise SimulatedCrash(f"crash at {point} of {path}")


def crash_hook(point: str, path: os.PathLike | str) -> None:
    """Mark a write point in a durable writer."""
    if _armed.take_write(point, str(path)) is not None:
        _crash(point, str(path))


def checked_write(handle: IO[bytes], payload: bytes,
                  path: os.PathLike | str) -> None:
    """Write ``payload``, honouring an armed ``write`` point: its ``n``
    bytes are flushed (they "reached disk") before the crash."""
    spec = _armed.take_write(POINT_WRITE, str(path), len(payload))
    if spec is not None:
        handle.write(payload[:spec.n])
        handle.flush()
        _crash(POINT_WRITE, str(path))
    handle.write(payload)

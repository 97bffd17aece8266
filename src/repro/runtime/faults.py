"""Deterministic fault injection for the execution harness.

The degradation ladder and quarantine manifest are only trustworthy if
they are testable, and real solver blow-ups are awkward to stage on
demand.  A :class:`FaultPlan` deterministically injects a typed
exception (or synthetic budget exhaustion) into chosen
``(program, stage, tier)`` points of the
:class:`~repro.runtime.executor.CorpusExecutor`; matching is by plain
substring/equality, never randomness, so every run of the same plan
fails identically.

Stages the executor probes: ``pointsto``, ``history``, ``graph``.

A second, *process-level* injection layer serves the mining
supervisor: a :class:`ChaosPlan` deterministically kills, hangs, or
corrupts a **worker process** when it reaches a chosen program, so the
supervisor's watchdog/retry/bisection machinery is testable without
staging real segfaults.  Like :class:`FaultPlan`, matching is by plain
substring plus the task attempt counter — never randomness — so every
run of the same plan fails identically.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.runtime.errors import (
    BUDGET_EXCEEDED,
    FAULT_CLASSES,
    BudgetExceeded,
    RuntimeFault,
    TAXONOMY,
)

#: Stages at which the executor fires injection probes.
STAGES = ("pointsto", "history", "graph")


@dataclass(frozen=True)
class FaultSpec:
    """One injection point.

    ``program`` is matched as a substring of the program key (source
    path or synthetic key); ``stage`` must equal one of
    :data:`STAGES` or be ``None`` for any stage; ``tiers`` restricts the
    fault to specific ladder tier names (``None`` = every tier).
    ``error`` is a taxonomy label from
    :data:`repro.runtime.errors.TAXONOMY`.
    """

    program: str
    error: str
    stage: Optional[str] = None
    tiers: Optional[FrozenSet[str]] = None
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.error not in TAXONOMY:
            raise ValueError(
                f"unknown taxonomy label {self.error!r}; "
                f"expected one of {TAXONOMY}"
            )

    def matches(self, program_key: str, stage: str, tier: str) -> bool:
        if self.program not in program_key:
            return False
        if self.stage is not None and self.stage != stage:
            return False
        if self.tiers is not None and tier not in self.tiers:
            return False
        return True

    def raise_fault(self, stage: str) -> None:
        if self.error == BUDGET_EXCEEDED:
            raise BudgetExceeded("injected", 1, 0, stage=stage)
        message = f"{self.message} (stage: {stage})"
        cls = FAULT_CLASSES.get(self.error)
        if cls is not None:
            raise cls(message, stage=stage)
        err = RuntimeFault(message, stage=stage)
        err.kind = self.error  # labels without a dedicated class
        raise err


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` injection points."""

    def __init__(self, faults: Sequence[FaultSpec] = ()) -> None:
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)

    def fire(self, program_key: str, stage: str, tier: str) -> None:
        """Raise the first matching fault, if any."""
        for fault in self.faults:
            if fault.matches(program_key, stage, tier):
                fault.raise_fault(stage)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.faults)} faults>"


# ----------------------------------------------------------------------
# process-level chaos (consumed by the mining shard supervisor)

#: The worker dies instantly, bypassing all exception handling — the
#: parent sees an EOF on the result pipe, exactly as for a segfault or
#: an OOM kill.
CHAOS_KILL = "kill"
#: The worker stops making progress; only the supervisor's wall-clock
#: deadline can reclaim it.
CHAOS_HANG = "hang"
#: The worker completes but its result pipe carries garbage instead of
#: a shard partial.
CHAOS_CORRUPT = "corrupt"

CHAOS_MODES = (CHAOS_KILL, CHAOS_HANG, CHAOS_CORRUPT)

#: Exit code of a chaos-killed worker (distinguishable from a clean 0
#: and from Python's uncaught-exception 1 in supervisor diagnostics).
CHAOS_EXIT_CODE = 86


class CorruptResult(Exception):
    """Control-flow marker: the worker must send a corrupted payload.

    Raised by :meth:`ChaosSpec.trip`, caught at the worker entry point
    (never by the analysis containment machinery), which then ships
    deliberately malformed bytes to the supervisor.
    """


@dataclass(frozen=True)
class ChaosSpec:
    """One process-level injection point.

    ``program`` is matched as a substring of the program key, exactly
    like :class:`FaultSpec`.  ``until_attempt`` bounds the blast
    radius: the spec fires only while the shard task's attempt counter
    is below it, so ``until_attempt=1`` models a *transient* failure
    (first attempt dies, the retry succeeds) while ``None`` models a
    *toxic* program that kills every worker that touches it and can
    only be removed by bisection + quarantine.
    """

    program: str
    mode: str
    until_attempt: Optional[int] = None
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ValueError(
                f"unknown chaos mode {self.mode!r}; "
                f"expected one of {CHAOS_MODES}"
            )

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse the CLI form ``mode:program[:until_attempt]``."""
        parts = text.split(":")
        if (len(parts) not in (2, 3) or not parts[0] or not parts[1]
                or (len(parts) == 3 and not parts[2].isdigit())):
            raise ValueError(
                f"malformed chaos spec {text!r}; "
                f"expected mode:program[:until_attempt]"
            )
        until = int(parts[2]) if len(parts) == 3 else None
        return cls(program=parts[1], mode=parts[0], until_attempt=until)

    def matches(self, program_key: str, attempt: int) -> bool:
        if self.program not in program_key:
            return False
        if self.until_attempt is not None and attempt >= self.until_attempt:
            return False
        return True

    def trip(self) -> None:
        """Perform the injected failure inside the worker process."""
        if self.mode == CHAOS_KILL:
            os._exit(CHAOS_EXIT_CODE)
        if self.mode == CHAOS_HANG:
            time.sleep(self.hang_seconds)
            os._exit(CHAOS_EXIT_CODE)  # deadline should reclaim us first
        raise CorruptResult(self.program)


class ChaosPlan:
    """An ordered collection of :class:`ChaosSpec` injection points."""

    def __init__(self, specs: Sequence[ChaosSpec] = ()) -> None:
        self.specs: Tuple[ChaosSpec, ...] = tuple(specs)

    def fire(self, program_key: str, attempt: int) -> None:
        """Trip the first matching spec, if any."""
        for spec in self.specs:
            if spec.matches(program_key, attempt):
                spec.trip()

    def probe(self, attempt: int):
        """A per-program callback bound to one task attempt, or None.

        The mining worker threads this into
        :meth:`~repro.runtime.executor.CorpusExecutor.run` as its
        ``before`` hook, so chaos strikes exactly when the worker
        *reaches* the matching program — earlier programs of the shard
        have already been analysed and persisted.
        """
        if not self.specs:
            return None
        return lambda key: self.fire(key, attempt)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        return f"<ChaosPlan {len(self.specs)} specs>"

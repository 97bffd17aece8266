"""Typed failure taxonomy for corpus-scale execution.

Mining aliasing specs from millions of arbitrary files (paper §7 runs
on 64M LoC of Java) only works when individual-unit failures are
contained, classified and reported — never fatal.  Every error raised
or caught by the :mod:`repro.runtime` harness maps onto one of a small
set of taxonomy labels so quarantine manifests and mining reports stay
machine-readable:

* ``ReadFailure``     — the file could not be read from disk;
* ``ParseFailure``    — the frontend rejected the source text;
* ``LoweringFailure`` — parsing succeeded but lowering to IR failed;
* ``BudgetExceeded``  — a resource budget (iterations, constraints,
  events, wall clock) ran out mid-analysis;
* ``SolverCrash``     — any other exception inside the analysis stages.

Two labels live one level up, at the process/pool layer — they are
assigned by the mining supervisor, never by in-process analysis:

* ``worker-crash``    — analysing the program repeatedly killed the
  worker process (segfault, OOM kill, corrupted result);
* ``worker-timeout``  — analysing the program repeatedly blew the
  shard wall-clock deadline (hung worker).

Two labels belong to the JVM classfile frontend
(:mod:`repro.frontend.classfile`), which mines *binary* inputs and so
fails in ways no source frontend can:

* ``malformed-classfile``   — the bytes are not a well-formed class
  file (bad magic, truncated constant pool, out-of-range pool index);
* ``unsupported-bytecode``  — the class file is structurally valid but
  contains bytecode the frontend cannot even *decode* (an unknown
  opcode byte makes every later instruction boundary unknowable).
  Opcodes the frontend can decode but does not model are **not** this
  label — they degrade to havoc assignments and the file still mines.
"""

from __future__ import annotations

from typing import Optional

#: Canonical taxonomy labels, in severity-agnostic alphabetical order.
READ_FAILURE = "ReadFailure"
PARSE_FAILURE = "ParseFailure"
LOWERING_FAILURE = "LoweringFailure"
BUDGET_EXCEEDED = "BudgetExceeded"
SOLVER_CRASH = "SolverCrash"
#: process-level labels, assigned by the shard supervisor to a program
#: its task failed on max_retries + 1 times in a row
WORKER_CRASH = "worker-crash"
WORKER_TIMEOUT = "worker-timeout"
#: binary-frontend labels, raised by repro.frontend.classfile
MALFORMED_CLASSFILE = "malformed-classfile"
UNSUPPORTED_BYTECODE = "unsupported-bytecode"

TAXONOMY = (
    READ_FAILURE,
    PARSE_FAILURE,
    LOWERING_FAILURE,
    BUDGET_EXCEEDED,
    SOLVER_CRASH,
    WORKER_CRASH,
    WORKER_TIMEOUT,
    MALFORMED_CLASSFILE,
    UNSUPPORTED_BYTECODE,
)


class RuntimeFault(Exception):
    """Base of all typed faults raised by the runtime harness."""

    kind: str = SOLVER_CRASH

    def __init__(self, message: str = "", *, stage: Optional[str] = None) -> None:
        super().__init__(message)
        self.stage = stage


class ParseFailure(RuntimeFault):
    kind = PARSE_FAILURE


class LoweringFailure(RuntimeFault):
    kind = LOWERING_FAILURE


class SolverCrash(RuntimeFault):
    kind = SOLVER_CRASH


class WorkerCrash(RuntimeFault):
    """A worker process died (or returned garbage) and retries ran out.

    Raised by the shard supervisor in strict mode; in containment mode
    the label lands in the quarantine manifest instead.
    """

    kind = WORKER_CRASH


class WorkerTimeout(RuntimeFault):
    """A worker blew its shard deadline and retries ran out (strict)."""

    kind = WORKER_TIMEOUT


class BudgetExceeded(RuntimeFault):
    """A resource budget ran out.

    ``resource`` names the exhausted budget dimension (e.g.
    ``solver_iterations``); ``used``/``limit`` quantify it.
    """

    kind = BUDGET_EXCEEDED

    def __init__(
        self,
        resource: str,
        used: float,
        limit: float,
        *,
        stage: Optional[str] = None,
    ) -> None:
        super().__init__(
            f"{resource} budget exceeded: {used:g} > {limit:g}"
            + (f" (stage: {stage})" if stage else ""),
            stage=stage,
        )
        self.resource = resource
        self.used = used
        self.limit = limit

    def __reduce__(self):
        # the default exception reduce replays ``args`` (the formatted
        # message) into ``__init__``, which expects (resource, used,
        # limit) — crossing a multiprocessing boundary would turn a
        # strict-mode budget abort into an unpicklable-result error
        return (
            _rebuild_budget_exceeded,
            (self.resource, self.used, self.limit, self.stage),
        )


def _rebuild_budget_exceeded(
    resource: str, used: float, limit: float, stage: Optional[str]
) -> "BudgetExceeded":
    return BudgetExceeded(resource, used, limit, stage=stage)


#: Exception classes a fault-injection plan may raise, by taxonomy label.
FAULT_CLASSES = {
    PARSE_FAILURE: ParseFailure,
    LOWERING_FAILURE: LoweringFailure,
    SOLVER_CRASH: SolverCrash,
}


def classify_error(err: BaseException, stage: Optional[str] = None) -> str:
    """Map an arbitrary exception onto a taxonomy label.

    Typed :class:`RuntimeFault` subclasses carry their own label; other
    exceptions are classified by type and, where ambiguous, by the
    pipeline ``stage`` they escaped from (``read``/``parse``/``lower``
    or an analysis stage).
    """
    if isinstance(err, RuntimeFault):
        return err.kind
    if isinstance(err, (OSError, UnicodeDecodeError)):
        return READ_FAILURE
    name = type(err).__name__
    if isinstance(err, SyntaxError) or "Parse" in name:
        return PARSE_FAILURE
    if "Lower" in name or stage == "lower":
        return LOWERING_FAILURE
    if stage == "parse":
        # e.g. a RecursionError from a deeply nested source file
        return PARSE_FAILURE
    if stage == "read":
        return READ_FAILURE
    return SOLVER_CRASH

"""Fault-isolating, resource-budgeted corpus execution (``repro.runtime``).

Corpus-scale mining must survive individual-program blow-ups: this
package provides resource :class:`~repro.runtime.budget.Budget` limits
enforced inside the solver and history builder, a precision
degradation ladder, structured quarantine manifests with a typed error
taxonomy, and one deterministic fault plan (:mod:`repro.runtime.faults`)
so all of it is testable.  A killed run resumes through the mining
engine's durable store (:mod:`repro.store`).
"""

from repro.runtime.budget import Budget, BudgetMeter
from repro.runtime.checkpoint import program_key
from repro.runtime.errors import (
    BUDGET_EXCEEDED,
    LOWERING_FAILURE,
    MALFORMED_CLASSFILE,
    PARSE_FAILURE,
    READ_FAILURE,
    SOLVER_CRASH,
    TAXONOMY,
    UNSUPPORTED_BYTECODE,
    WORKER_CRASH,
    WORKER_TIMEOUT,
    BudgetExceeded,
    LoweringFailure,
    ParseFailure,
    RuntimeFault,
    SolverCrash,
    WorkerCrash,
    WorkerTimeout,
    classify_error,
)
from repro.runtime.executor import (
    CorpusExecutor,
    CorpusRunReport,
    ProgramOutcome,
    RuntimeConfig,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
    STAGES,
    arm,
    armed,
)
from repro.runtime.ladder import (
    DEFAULT_LADDER,
    LadderTier,
    TIER_CONTEXT_INSENSITIVE,
    TIER_CONTEXT_SENSITIVE,
    TIER_FIELD_INSENSITIVE,
    TIER_QUARANTINE,
)
from repro.runtime.manifest import (
    QuarantineEntry,
    QuarantineManifest,
    TierAttempt,
)

__all__ = [
    "Budget",
    "BudgetMeter",
    "BudgetExceeded",
    "BUDGET_EXCEEDED",
    "arm",
    "armed",
    "classify_error",
    "CorpusExecutor",
    "CorpusRunReport",
    "DEFAULT_LADDER",
    "FaultPlan",
    "FaultSpec",
    "LadderTier",
    "LoweringFailure",
    "LOWERING_FAILURE",
    "MALFORMED_CLASSFILE",
    "ParseFailure",
    "PARSE_FAILURE",
    "program_key",
    "ProgramOutcome",
    "QuarantineEntry",
    "QuarantineManifest",
    "READ_FAILURE",
    "RuntimeConfig",
    "RuntimeFault",
    "SimulatedCrash",
    "SolverCrash",
    "SOLVER_CRASH",
    "STAGES",
    "TAXONOMY",
    "TIER_CONTEXT_INSENSITIVE",
    "TIER_CONTEXT_SENSITIVE",
    "TIER_FIELD_INSENSITIVE",
    "TIER_QUARANTINE",
    "TierAttempt",
    "UNSUPPORTED_BYTECODE",
    "WORKER_CRASH",
    "WORKER_TIMEOUT",
    "WorkerCrash",
    "WorkerTimeout",
]

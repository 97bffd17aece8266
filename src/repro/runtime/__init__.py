"""Fault-isolating, resource-budgeted corpus execution (``repro.runtime``).

Corpus-scale mining must survive individual-program blow-ups: this
package provides resource :class:`~repro.runtime.budget.Budget` limits
enforced inside the solver and history builder, a precision
degradation ladder, structured quarantine manifests with a typed error
taxonomy, and one deterministic fault plan (:mod:`repro.runtime.faults`)
so all of it is testable.  A killed run resumes through the mining
engine's durable store (:mod:`repro.store`).
"""

from repro._lazy import lazy_exports

_LAZY = {
    "Budget": "repro.runtime.budget",
    "BudgetMeter": "repro.runtime.budget",
    "BudgetExceeded": "repro.runtime.errors",
    "BUDGET_EXCEEDED": "repro.runtime.errors",
    "arm": "repro.runtime.faults",
    "armed": "repro.runtime.faults",
    "classify_error": "repro.runtime.errors",
    "CorpusExecutor": "repro.runtime.executor",
    "CorpusRunReport": "repro.runtime.executor",
    "DEFAULT_LADDER": "repro.runtime.ladder",
    "FaultPlan": "repro.runtime.faults",
    "FaultSpec": "repro.runtime.faults",
    "LadderTier": "repro.runtime.ladder",
    "LoweringFailure": "repro.runtime.errors",
    "LOWERING_FAILURE": "repro.runtime.errors",
    "MALFORMED_CLASSFILE": "repro.runtime.errors",
    "ParseFailure": "repro.runtime.errors",
    "PARSE_FAILURE": "repro.runtime.errors",
    "program_key": "repro.runtime.checkpoint",
    "ProgramOutcome": "repro.runtime.executor",
    "QuarantineEntry": "repro.runtime.manifest",
    "QuarantineManifest": "repro.runtime.manifest",
    "READ_FAILURE": "repro.runtime.errors",
    "RuntimeConfig": "repro.runtime.executor",
    "RuntimeFault": "repro.runtime.errors",
    "SimulatedCrash": "repro.runtime.faults",
    "SolverCrash": "repro.runtime.errors",
    "SOLVER_CRASH": "repro.runtime.errors",
    "STAGES": "repro.runtime.faults",
    "TAXONOMY": "repro.runtime.errors",
    "TIER_CONTEXT_INSENSITIVE": "repro.runtime.ladder",
    "TIER_CONTEXT_SENSITIVE": "repro.runtime.ladder",
    "TIER_FIELD_INSENSITIVE": "repro.runtime.ladder",
    "TIER_QUARANTINE": "repro.runtime.ladder",
    "TierAttempt": "repro.runtime.manifest",
    "UNSUPPORTED_BYTECODE": "repro.runtime.errors",
    "WORKER_CRASH": "repro.runtime.errors",
    "WORKER_TIMEOUT": "repro.runtime.errors",
    "WorkerCrash": "repro.runtime.errors",
    "WorkerTimeout": "repro.runtime.errors",
}

__all__ = list(_LAZY)
__getattr__ = lazy_exports(__name__, _LAZY)

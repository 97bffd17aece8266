"""USpec — unsupervised learning of API aliasing specifications.

A complete reproduction of Eberhardt, Steffen, Raychev & Vechev,
*Unsupervised Learning of API Aliasing Specifications* (PLDI 2019).

Typical entry points::

    from repro import USpecPipeline, analyze, java_registry
    from repro.corpus import CorpusConfig, CorpusGenerator

    programs = CorpusGenerator(java_registry(), CorpusConfig()).programs()
    learned = USpecPipeline().learn(programs)      # paper Fig. 1
    result = analyze(program, specs=learned.specs) # paper §6

See README.md for the architecture overview and DESIGN.md for the
system inventory and per-experiment index.
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

# every export is lazy: this module runs first on any import of a
# submodule, and each process loads only what its role runs
_LAZY = {
    "Budget": "repro.runtime.budget",
    "CorpusExecutor": "repro.runtime.executor",
    "PointsToOptions": "repro.pointsto.analysis",
    "QuarantineManifest": "repro.runtime.manifest",
    "RetArg": "repro.specs.patterns",
    "RetRecv": "repro.specs.patterns",
    "RetSame": "repro.specs.patterns",
    "RuntimeConfig": "repro.runtime.executor",
    "SpecSet": "repro.specs.patterns",
    "USpecPipeline": "repro.specs.pipeline",
    "analyze": "repro.pointsto.analysis",
    "java_registry": "repro.corpus.apis",
    "python_registry": "repro.corpus.apis",
}

__all__ = list(_LAZY)
__getattr__ = lazy_exports(__name__, _LAZY)

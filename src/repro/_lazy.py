"""Lazy package exports (PEP 562).

A package ``__init__`` imports eagerly only what every process that
imports one of its submodules loads anyway.  It lists every other
export in a ``{name: module}`` table and installs::

    _LAZY = {"MiningEngine": "repro.mining.engine", ...}
    __all__ = list(_LAZY)
    __getattr__ = lazy_exports(__name__, _LAZY)

so that importing the package, or any light submodule of it, loads
none of them: ``from repro.mining import MiningEngine`` imports the
engine, ``import repro.mining.supervisor`` does not.  ``from pkg
import *`` resolves every ``__all__`` name the same way.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(package: str,
                 table: Mapping[str, str]) -> Callable[[str], object]:
    """The module ``__getattr__`` of ``package``: import ``name`` from
    ``table[name]`` on first access and keep it in the package's
    namespace, so the next access is an ordinary attribute lookup."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    return __getattr__

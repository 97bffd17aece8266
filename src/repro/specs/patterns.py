"""The hypothesis class of API aliasing specifications (paper §5.1, Tab. 1).

Two patterns are supported:

* ``RetSame(s)`` — calling ``s`` multiple times on the same receiver
  with equal arguments may return the same object.
* ``RetArg(t, s, x)`` — calling ``t`` may return the ``x``-th argument
  of a preceding call of ``s`` on the same receiver where all other
  arguments are equal.

Instances are concrete specifications (``s``/``t`` are fully qualified
method identifiers).  :class:`SpecSet` is the container handed to the
augmented points-to analysis (:mod:`repro.pointsto`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Set, Union


@dataclass(frozen=True, order=True)
class RetSame:
    """``RetSame(s)``: ``s`` reads internal state keyed by its arguments."""

    method: str

    def __str__(self) -> str:
        return f"RetSame({self.method})"


@dataclass(frozen=True, order=True)
class RetRecv:
    """``RetRecv(s)``: ``s`` returns its receiver (fluent/builder APIs).

    An *extension* beyond the paper's two patterns, in the spirit of
    its §5.3 discussion that the approach "is fundamentally not
    restricted to these patterns".  Classic instance:
    ``StringBuilder.append`` returns ``this``.
    """

    method: str

    def __str__(self) -> str:
        return f"RetRecv({self.method})"


@dataclass(frozen=True, order=True)
class RetArg:
    """``RetArg(t, s, x)``: ``s`` stores its ``x``-th argument, ``t`` reads it.

    ``x`` is 1-based and never 0 (receiver) or ``ret`` by construction
    (paper Tab. 1: ``x ∈ Pos \\ {ret, 0}``).
    """

    target: str  # t — the reading method
    source: str  # s — the storing method
    arg_index: int  # x

    def __post_init__(self) -> None:
        if self.arg_index < 1:
            raise ValueError(f"RetArg index must be >= 1, got {self.arg_index}")

    def __str__(self) -> str:
        return f"RetArg({self.target}, {self.source}, {self.arg_index})"


Spec = Union[RetSame, RetArg, RetRecv]


def api_class_of(method: str) -> str:
    """The API class owning a method identifier.

    ``java.util.HashMap.put`` → ``java.util.HashMap``; identifiers
    without a dot (program-internal functions) map to ``""``.
    """
    if "." not in method:
        return ""
    return method.rsplit(".", 1)[0]


class SpecSet:
    """An indexed set of aliasing specifications.

    Provides the lookups needed by the ghost-field analysis: RetSame by
    reading method and RetArg by storing (source) method.
    """

    def __init__(self, specs: Iterable[Spec] = ()) -> None:
        self._specs: Set[Spec] = set()
        self._retsame: Set[str] = set()
        self._retrecv: Set[str] = set()
        self._retarg_by_source: Dict[str, Set[RetArg]] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: Spec) -> None:
        if spec in self._specs:
            return
        self._specs.add(spec)
        if isinstance(spec, RetSame):
            self._retsame.add(spec.method)
        elif isinstance(spec, RetRecv):
            self._retrecv.add(spec.method)
        elif isinstance(spec, RetArg):
            self._retarg_by_source.setdefault(spec.source, set()).add(spec)
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a specification: {spec!r}")

    def has_retsame(self, method: str) -> bool:
        return method in self._retsame

    def has_retrecv(self, method: str) -> bool:
        return method in self._retrecv

    def retargs_with_source(self, method: str) -> FrozenSet[RetArg]:
        return frozenset(self._retarg_by_source.get(method, ()))

    def api_classes(self) -> FrozenSet[str]:
        """All API classes covered by at least one specification."""
        classes: Set[str] = set()
        for spec in self._specs:
            if isinstance(spec, (RetSame, RetRecv)):
                classes.add(api_class_of(spec.method))
            else:
                classes.add(api_class_of(spec.source))
                classes.add(api_class_of(spec.target))
        classes.discard("")
        return frozenset(classes)

    def __contains__(self, spec: object) -> bool:
        return spec in self._specs

    def __iter__(self) -> Iterator[Spec]:
        return iter(sorted(self._specs, key=str))

    def __len__(self) -> int:
        return len(self._specs)

    def __or__(self, other: "SpecSet") -> "SpecSet":
        return SpecSet(list(self) + list(other))

    def __repr__(self) -> str:
        return f"<SpecSet {len(self)} specs over {len(self.api_classes())} classes>"

"""Events — the nodes of event graphs (paper §3.1).

An event is a pair ``⟨m, x⟩`` of a call site ``m`` and a position
``x ∈ Pos = ℕ ∪ {ret}``: 0 for the receiver, ``1..nargs`` for
arguments, :data:`RET` for the returned object.  Allocation statements
(``t = new T()``) and literal occurrences also produce (pseudo) call
sites with a single ``ret`` event (``⟨newT, ret⟩`` and ``⟨lc_i, ret⟩``).

A :class:`Site` couples the IR instruction with its calling context, so
the same static statement reached through different call chains yields
distinct call sites, as required by the paper's definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.ir.instructions import Alloc, Call, Const, Instruction

#: Position of the returned object.
RET: str = "ret"

#: An event position: 0 (receiver), 1.. (arguments) or ``RET``.
Pos = Union[int, str]


@dataclass(frozen=True)
class Site:
    """A call site: an instruction plus its calling context.

    ``instr`` is a :class:`~repro.ir.instructions.Call`,
    :class:`~repro.ir.instructions.Alloc` or
    :class:`~repro.ir.instructions.Const`; the latter two model the
    allocation and literal-construction pseudo-sites of §3.1.
    """

    instr: Instruction
    ctx: Tuple[Call, ...] = ()

    def __post_init__(self) -> None:
        # the value the dataclass would compute, once: sites are set
        # members and dict keys on every hot path of featurization
        object.__setattr__(self, "_hash", hash((self.instr, self.ctx)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: the cached hash of a string
        # position is per process (PYTHONHASHSEED)
        return (Site, (self.instr, self.ctx))

    @property
    def method_id(self) -> str:
        """``id(m)`` — the method identifier of this site.

        For allocations the label is ``new:<Type>``; for literals it is
        ``lc:<literal type>``.  Literal sites remain unique via the
        instruction identity; the label deliberately generalises over
        occurrences so that the probabilistic model can learn from it.
        """
        instr = self.instr
        if isinstance(instr, Call):
            return instr.method
        if isinstance(instr, Alloc):
            return f"new:{instr.type_name}"
        if isinstance(instr, Const):
            return f"lc:{instr.type_name}"
        raise TypeError(f"not a site instruction: {instr!r}")  # pragma: no cover

    @property
    def nargs(self) -> int:
        """``nargs(m)`` — argument count (0 for pseudo-sites)."""
        if isinstance(self.instr, Call):
            return self.instr.nargs
        return 0

    @property
    def is_api_call(self) -> bool:
        return isinstance(self.instr, Call)

    @property
    def sort_key(self) -> Tuple:
        """Deterministic ordering key (uses instruction uids)."""
        return (self.method_id, self.instr.uid,
                tuple(c.uid for c in self.ctx))

    def __repr__(self) -> str:
        depth = len(self.ctx)
        ctx = f"@{depth}" if depth else ""
        return f"<site {self.method_id}{ctx} #{self.instr.uid}>"


@dataclass(frozen=True)
class Event:
    """An event ``⟨m, x⟩`` — usage of an object at position ``x`` of ``m``."""

    site: Site
    pos: Pos

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.site, self.pos)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Event, (self.site, self.pos))

    @property
    def label(self) -> Tuple[str, Pos]:
        """A generalisable (method, position) label for featurization."""
        return (self.site.method_id, self.pos)

    @property
    def sort_key(self) -> Tuple:
        return self.site.sort_key + (str(self.pos),)

    def __repr__(self) -> str:
        return f"⟨{self.site.method_id}, {self.pos}⟩#{self.site.instr.uid}"

"""Worklist-based Andersen-style points-to solver (paper §6.3, Tab. 2).

The solver implements inclusion (subset) constraints with difference
propagation.  Constraint variables ("nodes") are:

* ``("v", fn, ctx, var)`` — a local variable of a function analysed
  under a calling context (a tuple of call instructions, truncated to
  ``context_k`` — call-site sensitivity);
* ``("r", fn, ctx)`` — the return value of a function under a context;
* ``("f", obj, field)`` — a concrete field of an abstract object
  (rules FieldW / FieldR);
* ``("g", obj, ghost_field)`` — a ghost field of an abstract object
  (rules GhostW / GhostR).

Complex constraints (field and ghost accesses) are registered as *ops*
watching their input nodes and re-run whenever a watched points-to set
grows.  Field ops are monotone and idempotent, so they re-run from
scratch.  A ghost op applies only its delta: it recomputes its
GhostW/GhostR fields only when an argument's points-to set has grown
(sets only grow, so equal sizes mean equal sets), else applies them to
new receivers.  Ops still run when, and with the argument sets, a
from-scratch solver would run them, as they must: ``max_combos``
truncates the key tuples, so an op's ghost fields depend on when it
runs.  So the effective constraints, their order and the meter's totals
are the from-scratch solver's.  The GhostR "allocate a fresh object on
empty field" rule is non-monotone, so it runs in an outer loop: solve
to fixpoint, allocate ghost objects for read-but-empty eligible fields,
resolve, repeat until stable (this converges because allocations only
ever add objects).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.runtime
    from repro.runtime.budget import Budget, BudgetMeter

from repro.events.events import Site
from repro.ir.instructions import (
    Alloc,
    Assign,
    Call,
    Const,
    FieldLoad,
    FieldStore,
    GlobalRead,
    GlobalWrite,
    Return,
    Var,
)
from repro.ir.program import Function, Program
from repro.ir.traversal import iter_instructions
from repro.pointsto.ghost import (
    ArgValues,
    GhostField,
    TOP,
    ghost_reads,
    ghost_writes,
)
from repro.pointsto.objects import (
    AbstractObject,
    ObjAlloc,
    ObjApiRet,
    ObjGhost,
    ObjLiteral,
    ObjParam,
    value_of,
)
from repro.specs.patterns import SpecSet

Ctx = Tuple[Call, ...]
Node = Tuple  # structural node keys as documented above


def _truncate(ctx: Ctx, k: int) -> Ctx:
    return ctx[-k:] if k > 0 else ()


@dataclass
class _GhostOp:
    """Ghost read/write obligations of one API call site."""

    site: Site
    recv_node: Node
    arg_nodes: Tuple[Node, ...]
    dst_node: Optional[Node]
    #: argument points-to set sizes the cached fields were computed for
    arg_sizes: Optional[Tuple[int, ...]] = None
    writes: Set[Tuple[AbstractObject, GhostField]] = field(default_factory=set)
    reads: Set[GhostField] = field(default_factory=set)
    alloc_eligible: Set[GhostField] = field(default_factory=set)
    #: receivers the cached fields have been applied to
    applied: Set[AbstractObject] = field(default_factory=set)


class Solver:
    """One points-to run over a program.

    Parameters mirror :class:`repro.pointsto.analysis.PointsToOptions`;
    use :func:`repro.pointsto.analysis.analyze` as the public entry
    point.
    """

    def __init__(
        self,
        program: Program,
        specs: Optional[SpecSet] = None,
        context_k: int = 1,
        coverage_mode: bool = False,
        max_combos: int = 32,
        interprocedural: bool = True,
        field_sensitive: bool = True,
        budget: Optional["Budget"] = None,
    ) -> None:
        self.program = program
        self.specs = specs or SpecSet()
        self.context_k = context_k
        self.coverage_mode = coverage_mode
        self.max_combos = max_combos
        self.interprocedural = interprocedural
        self.field_sensitive = field_sensitive
        self.budget = budget
        self._meter: Optional["BudgetMeter"] = None

        self.pts: Dict[Node, Set[AbstractObject]] = {}
        self._succs: Dict[Node, Set[Node]] = {}
        self._watchers: Dict[Node, List] = {}
        self._worklist: deque = deque()
        self._dirty: Set[Node] = set()

        #: (fn name, ctx) pairs reachable from the entry function.
        self.reachable: List[Tuple[str, Ctx]] = []
        #: API call sites discovered, in deterministic program order.
        self.api_sites: List[Site] = []
        #: Site → (function, context) that owns it.
        self.site_owner: Dict[Site, Tuple[str, Ctx]] = {}
        #: Ghost fields read at least once: (receiver obj, field) →
        #: eligible-for-allocation flag.
        self._ghost_reads_seen: Dict[Tuple[AbstractObject, GhostField], bool] = {}
        self._ghost_allocated: Set[Tuple[AbstractObject, GhostField]] = set()

    # ------------------------------------------------------------------
    # node helpers

    def var_node(self, fn: str, ctx: Ctx, var: Var) -> Node:
        return ("v", fn, ctx, var)

    def ret_node(self, fn: str, ctx: Ctx) -> Node:
        return ("r", fn, ctx)

    def field_node(self, obj: AbstractObject, fieldname: str) -> Node:
        return ("f", obj, fieldname)

    def ghost_node(self, obj: AbstractObject, gf: GhostField) -> Node:
        return ("g", obj, gf)

    def global_node(self, name: str) -> Node:
        return ("gv", name)

    def pts_of(self, node: Node) -> FrozenSet[AbstractObject]:
        return frozenset(self.pts.get(node, ()))

    # ------------------------------------------------------------------
    # constraint primitives

    def add_objects(self, node: Node, objs: Iterable[AbstractObject]) -> None:
        current = self.pts.setdefault(node, set())
        new = set(objs) - current
        if not new:
            return
        current |= new
        self._worklist.append((node, new))

    def add_edge(self, src: Node, dst: Node) -> None:
        succs = self._succs.setdefault(src, set())
        if dst in succs:
            return
        succs.add(dst)
        if self._meter is not None:
            self._meter.tick_constraint()
        existing = self.pts.get(src)
        if existing:
            self.add_objects(dst, existing)

    def _watch(self, node: Node, op) -> None:
        self._watchers.setdefault(node, []).append(op)
        self._dirty.add(node)  # ensure the op runs at least once
        if self._meter is not None:
            self._meter.tick_constraint()

    # ------------------------------------------------------------------
    # constraint generation

    def build(self) -> None:
        """Generate constraints for every reachable (function, context)."""
        entry = self.program.entry
        self._build_function(entry, ())
        # seed parameters of the entry function with unknown objects
        fn = self.program.entry_function
        for p in fn.params:
            self.add_objects(
                self.var_node(entry, (), p), {ObjParam(entry, p.name)}
            )

    def _build_function(self, fn_name: str, ctx: Ctx) -> None:
        if (fn_name, ctx) in self.reachable:
            return
        self.reachable.append((fn_name, ctx))
        fn = self.program.functions[fn_name]
        for instr in iter_instructions(fn.body):
            self._build_instruction(fn_name, ctx, instr)

    def _build_instruction(self, fn: str, ctx: Ctx, instr) -> None:
        if isinstance(instr, Alloc):
            self.add_objects(self.var_node(fn, ctx, instr.dst), {ObjAlloc(instr)})
        elif isinstance(instr, Const):
            self.add_objects(self.var_node(fn, ctx, instr.dst), {ObjLiteral(instr)})
        elif isinstance(instr, Assign):
            self.add_edge(
                self.var_node(fn, ctx, instr.src), self.var_node(fn, ctx, instr.dst)
            )
        elif isinstance(instr, FieldLoad):
            # field-insensitive mode merges every field into one cell
            fieldname = instr.field if self.field_sensitive else "*"
            op = ("load", self.var_node(fn, ctx, instr.obj), fieldname,
                  self.var_node(fn, ctx, instr.dst))
            self._watch(op[1], op)
        elif isinstance(instr, FieldStore):
            fieldname = instr.field if self.field_sensitive else "*"
            op = ("store", self.var_node(fn, ctx, instr.obj), fieldname,
                  self.var_node(fn, ctx, instr.src))
            self._watch(op[1], op)
        elif isinstance(instr, GlobalRead):
            self.add_edge(self.global_node(instr.name),
                          self.var_node(fn, ctx, instr.dst))
        elif isinstance(instr, GlobalWrite):
            self.add_edge(self.var_node(fn, ctx, instr.src),
                          self.global_node(instr.name))
        elif isinstance(instr, Return):
            if instr.value is not None:
                self.add_edge(
                    self.var_node(fn, ctx, instr.value), self.ret_node(fn, ctx)
                )
        elif isinstance(instr, Call):
            self._build_call(fn, ctx, instr)

    def _build_call(self, fn: str, ctx: Ctx, call: Call) -> None:
        callee = self.program.resolve(call.method) if self.interprocedural else None
        if callee is not None:
            self._build_internal_call(fn, ctx, call, callee)
        else:
            self._build_api_call(fn, ctx, call)

    def _build_internal_call(self, fn: str, ctx: Ctx, call: Call,
                             callee: Function) -> None:
        callee_ctx = _truncate(ctx + (call,), self.context_k)
        self._build_function(callee.name, callee_ctx)
        args = list(call.args)
        params = list(callee.params)
        if call.receiver is not None and len(params) == len(args) + 1:
            args = [call.receiver] + args
        for arg, param in zip(args, params):
            self.add_edge(
                self.var_node(fn, ctx, arg),
                self.var_node(callee.name, callee_ctx, param),
            )
        if call.dst is not None:
            self.add_edge(
                self.ret_node(callee.name, callee_ctx),
                self.var_node(fn, ctx, call.dst),
            )

    def _build_api_call(self, fn: str, ctx: Ctx, call: Call) -> None:
        site = Site(call, _truncate(ctx, self.context_k))
        self.api_sites.append(site)
        self.site_owner[site] = (fn, ctx)
        if call.dst is not None:
            # the unsound-but-precise baseline: a fresh object per site
            self.add_objects(
                self.var_node(fn, ctx, call.dst), {ObjApiRet(site)}
            )
        if len(self.specs) == 0 or call.receiver is None:
            return
        if call.dst is not None and self.specs.has_retrecv(call.method):
            # RetRecv extension: the call returns its receiver
            self.add_edge(self.var_node(fn, ctx, call.receiver),
                          self.var_node(fn, ctx, call.dst))
        op = _GhostOp(
            site=site,
            recv_node=self.var_node(fn, ctx, call.receiver),
            arg_nodes=tuple(self.var_node(fn, ctx, a) for a in call.args),
            dst_node=self.var_node(fn, ctx, call.dst) if call.dst else None,
        )
        self._watch(op.recv_node, op)
        for an in op.arg_nodes:
            self._watch(an, op)

    # ------------------------------------------------------------------
    # op execution

    def _arg_values(self, node: Node) -> ArgValues:
        objs = self.pts.get(node, ())
        values = frozenset(
            v for v in (value_of(o) for o in objs) if v is not None
        )
        unknown = (not objs) or any(value_of(o) is None for o in objs)
        return ArgValues(values, unknown)

    def _run_op(self, op) -> None:
        if isinstance(op, _GhostOp):
            self._run_ghost_op(op)
            return
        kind, base, fieldname, other = op
        if kind == "load":
            for obj in list(self.pts.get(base, ())):
                self.add_edge(self.field_node(obj, fieldname), other)
        else:  # store
            for obj in list(self.pts.get(base, ())):
                self.add_edge(other, self.field_node(obj, fieldname))

    def _run_ghost_op(self, op: _GhostOp) -> None:
        receivers = list(self.pts.get(op.recv_node, ()))
        if not receivers:
            return
        sizes = tuple(len(self.pts.get(an, ())) for an in op.arg_nodes)
        if sizes != op.arg_sizes:
            # an argument grew: recompute, and apply to every receiver
            method = op.site.instr.method
            args = [self._arg_values(an) for an in op.arg_nodes]
            arg_objects = [self.pts_of(an) for an in op.arg_nodes]
            op.arg_sizes = sizes
            op.writes = ghost_writes(
                method, args, arg_objects, self.specs, self.coverage_mode,
                self.max_combos,
            )
            if op.dst_node is not None:
                op.reads, op.alloc_eligible = ghost_reads(
                    method, args, self.specs, self.coverage_mode,
                    self.max_combos,
                )
            op.applied = set(receivers)
        elif len(receivers) == len(op.applied):
            return
        else:
            receivers = [r for r in receivers if r not in op.applied]
            op.applied.update(receivers)

        # GhostW: store argument objects into ghost fields of receivers
        for recv in receivers:
            for obj, gf in op.writes:
                self.add_objects(self.ghost_node(recv, gf), {obj})

        # GhostR: flow ghost field contents to the call destination
        if op.dst_node is None:
            return
        for recv in receivers:
            for gf in op.reads:
                self.add_edge(self.ghost_node(recv, gf), op.dst_node)
                key = (recv, gf)
                eligible = gf in op.alloc_eligible
                self._ghost_reads_seen[key] = (
                    self._ghost_reads_seen.get(key, False) or eligible
                )

    # ------------------------------------------------------------------
    # fixpoint

    def _propagate(self) -> None:
        meter = self._meter
        while self._worklist or self._dirty:
            while self._dirty:
                node = self._dirty.pop()
                if meter is not None:
                    meter.tick_iteration()
                for op in self._watchers.get(node, ()):
                    self._run_op(op)
            if not self._worklist:
                break
            if meter is not None:
                meter.tick_iteration()
            node, delta = self._worklist.popleft()
            if self._watchers.get(node):
                self._dirty.add(node)
            for succ in self._succs.get(node, ()):
                self.add_objects(succ, delta)

    def _allocate_empty_ghosts(self) -> bool:
        """Apply the GhostR fresh-allocation rule; True if anything changed."""
        changed = False
        for (recv, gf), eligible in sorted(
            self._ghost_reads_seen.items(), key=lambda kv: repr(kv[0])
        ):
            if not eligible or gf.kind == TOP:
                continue
            key = (recv, gf)
            if key in self._ghost_allocated:
                continue
            node = self.ghost_node(recv, gf)
            if self.pts.get(node):
                continue
            self._ghost_allocated.add(key)
            self.add_objects(node, {ObjGhost(recv, gf)})
            changed = True
        return changed

    def solve(self) -> None:
        if self.budget is not None and not self.budget.unbounded:
            self._meter = self.budget.meter("pointsto")
        self.build()
        self._propagate()
        # outer loop for the non-monotone empty-field allocation rule
        while self._allocate_empty_ghosts():
            if self._meter is not None:
                self._meter.check_deadline()
            self._propagate()

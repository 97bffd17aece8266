"""Property tests on solver determinism/idempotence and serialization."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pointsto.andersen as andersen
from repro.frontend.pyfront import parse_python
from repro.ir import iter_calls
from repro.pointsto import analyze
from repro.pointsto.andersen import Solver, _GhostOp
from repro.pointsto.ghost import ghost_reads, ghost_writes
from repro.runtime.budget import Budget
from repro.runtime.errors import BudgetExceeded
from repro.specs import (
    RetArg,
    RetRecv,
    RetSame,
    SpecSet,
    extend_with_retsame,
)
from repro.specs.serialize import specs_from_json, specs_to_json
from tests.test_property_based import _METHODS, small_programs


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_solver_is_deterministic(program):
    """Two runs over the same program agree on every points-to set."""
    r1 = analyze(program)
    r2 = analyze(program)
    assert len(r1.api_sites) == len(r2.api_sites)
    for s1, s2 in zip(r1.api_sites, r2.api_sites):
        assert s1.method_id == s2.method_id
        for pos in (0, 1, "ret"):
            assert {repr(o) for o in r1.event_pts(s1, pos)} == \
                   {repr(o) for o in r2.event_pts(s2, pos)}


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_specs_only_grow_alias_relations(program):
    """The augmented analysis is a refinement-in-coverage: every baseline
    may-alias relation between site returns survives adding specs."""
    specs = SpecSet([
        RetSame("B.get"),
        RetArg("B.get", "B.put", 2),
        RetRecv("A.use"),
    ])
    base = analyze(program)
    aug = analyze(program, specs=specs)
    sites_b = base.api_sites
    sites_a = aug.api_sites
    for i in range(len(sites_b)):
        for j in range(i):
            if base.events_may_alias(sites_b[i], "ret", sites_b[j], "ret"):
                assert aug.events_may_alias(sites_a[i], "ret",
                                            sites_a[j], "ret")


_spec = st.one_of(
    st.builds(RetSame, st.text(
        alphabet="abcDEF.", min_size=1, max_size=20).filter(
        lambda s: not s.startswith(".") and not s.endswith("."))),
    st.builds(RetRecv, st.sampled_from(["A.m", "B.n", "pkg.Cls.meth"])),
    st.builds(RetArg, st.sampled_from(["A.get", "B.load"]),
              st.sampled_from(["A.put", "B.store"]),
              st.integers(min_value=1, max_value=9)),
)


@given(st.lists(_spec, max_size=20),
       st.dictionaries(st.sampled_from([RetSame("A.m"), RetRecv("A.m")]),
                       st.floats(min_value=0, max_value=1), max_size=2))
def test_serialization_roundtrip_property(specs, scores):
    spec_set = SpecSet(specs)
    text = specs_to_json(spec_set, scores)
    loaded, loaded_scores = specs_from_json(text)
    assert set(loaded) == set(spec_set)
    for spec, score in loaded_scores.items():
        assert abs(scores[spec] - score) < 1e-5


# ----------------------------------------------------------------------
# the delta solver against a from-scratch reference


class FromScratchSolver(Solver):
    """The reference: every run of an op redoes its whole constraint.

    The solver's ghost ops apply only their deltas, and must match this
    exactly, not merely soundly.
    """

    def _run_op(self, op) -> None:
        if isinstance(op, _GhostOp):
            self._run_ghost_op_in_full(op)
            return
        kind, base, fieldname, other = op
        if kind == "load":
            for obj in list(self.pts.get(base, ())):
                self.add_edge(self.field_node(obj, fieldname), other)
        else:  # store
            for obj in list(self.pts.get(base, ())):
                self.add_edge(other, self.field_node(obj, fieldname))

    def _run_ghost_op_in_full(self, op: _GhostOp) -> None:
        method = op.site.instr.method
        receivers = list(self.pts.get(op.recv_node, ()))
        if not receivers:
            return
        args = [self._arg_values(an) for an in op.arg_nodes]
        arg_objects = [self.pts_of(an) for an in op.arg_nodes]
        writes = ghost_writes(method, args, arg_objects, self.specs,
                              self.coverage_mode, self.max_combos)
        for recv in receivers:
            for obj, gf in writes:
                self.add_objects(self.ghost_node(recv, gf), {obj})
        if op.dst_node is None:
            return
        fields, alloc_eligible = ghost_reads(
            method, args, self.specs, self.coverage_mode, self.max_combos)
        for recv in receivers:
            for gf in fields:
                self.add_edge(self.ghost_node(recv, gf), op.dst_node)
                key = (recv, gf)
                self._ghost_reads_seen[key] = (
                    self._ghost_reads_seen.get(key, False)
                    or gf in alloc_eligible
                )


#: metered, so the tick totals are counted, but never reached
_METERED = Budget(max_solver_iterations=10**9)
#: above what converging drawn programs need (at most about 100
#: iterations in 1,500 draws).  A drawn receiver can be assigned its own
#: GhostR result (``m = m.get(k)``); it then gets a new ghost object
#: every outer round and never converges.  The limit stops it, and both
#: solvers must stop at the same tick
_METERED_DRAWN = Budget(max_solver_iterations=150)


def _solve(cls, program, specs, coverage_mode, max_combos, budget):
    solver = cls(program, specs=specs, coverage_mode=coverage_mode,
                 max_combos=max_combos, budget=budget)
    try:
        solver.solve()
    except BudgetExceeded as exc:
        return solver, str(exc)
    return solver, None


def _assert_same_solution(program, specs, coverage_mode, max_combos,
                          budget=_METERED):
    delta, delta_exceeded = _solve(Solver, program, specs, coverage_mode,
                                   max_combos, budget)
    ref, ref_exceeded = _solve(FromScratchSolver, program, specs,
                               coverage_mode, max_combos, budget)
    assert delta_exceeded == ref_exceeded
    # compact messages: pytest's diff of two large dicts takes minutes
    differ = [node for node in delta.pts.keys() | ref.pts.keys()
              if delta.pts.get(node) != ref.pts.get(node)]
    assert not differ, f"{len(differ)} points-to sets differ: {differ[:3]}"
    same_order = list(delta.pts) == list(ref.pts)
    assert same_order, "nodes were created in a different order"
    same_ghosts = (delta._ghost_allocated == ref._ghost_allocated
                   and list(delta._ghost_reads_seen.items())
                   == list(ref._ghost_reads_seen.items()))
    assert same_ghosts, "ghost allocations or reads differ"
    totals = [(m.iterations, m.constraints, m.events)
              for m in (delta._meter, ref._meter)]
    assert totals[0] == totals[1]


def _specs_over(methods):
    """Spec sets over ``methods``, closed under RetArg(t, s, x) ⟹
    RetSame(t) as learned sets are; half the draws are RetArg, the one
    pattern whose writes read arguments."""
    method = st.sampled_from(methods)
    retarg = st.builds(RetArg, method, method,
                       st.integers(min_value=1, max_value=2))
    return st.lists(
        st.one_of(retarg, retarg, st.builds(RetSame, method),
                  st.builds(RetRecv, method)),
        max_size=12,
    ).map(lambda specs: extend_with_retsame(SpecSet(specs)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), small_programs(field_ops=True), st.booleans(),
       st.sampled_from([1, 2, 32]))
def test_delta_solver_matches_from_scratch(data, program, coverage_mode,
                                           max_combos):
    """Points-to sets, ghost bookkeeping and the meter's totals are the
    reference's, also when ``max_combos`` truncates the key tuples."""
    called = sorted({c.method for c in iter_calls(program.entry_function)})
    specs = data.draw(_specs_over(called or _METHODS))
    _assert_same_solution(program, specs, coverage_mode, max_combos,
                          _METERED_DRAWN)


_PY_SPECS = SpecSet([
    RetArg("Dict.SubscriptLoad", "Dict.SubscriptStore", 2),
    RetSame("Dict.SubscriptLoad"),
    RetArg("List.pop", "List.append", 1),
    RetSame("List.pop"),
])


def _late_key_snippet(rng: random.Random, n_sites: int) -> str:
    """Dict subscripts and List append/pop, as the serve benchmark sends;
    ``name`` is popped from a list, so it reaches the subscripts that use
    it as a key only after their receiver ``d`` does."""
    keys = [f"k{j}" for j in range(max(2, n_sites // 4))]
    lines = ["d = dict()", "q = list()", "names = list()"]
    lines += [f'names.append("{key}")' for key in keys]
    lines.append("name = names.pop()")
    held = []
    for i in range(n_sites):
        draw = rng.random()
        key = "name" if rng.random() < 0.5 else f'"{rng.choice(keys)}"'
        if draw < 0.4 or not held:
            lines += [f"v{i} = list()", f"d[{key}] = v{i}"]
            held.append(f"v{i}")
        elif draw < 0.75:
            lines.append(f"x{i} = d[{key}]")
            held.append(f"x{i}")
        elif draw < 0.9:
            lines.append(f"q.append({rng.choice(held)})")
        else:
            lines.append(f"p{i} = q.pop()")
    return "\n".join(lines) + "\n"


def test_delta_solver_matches_from_scratch_on_serve_shaped_snippets():
    rng = random.Random(20190622)
    for n_sites in (4, 8, 12, 16, 24) * 4:
        program = parse_python(_late_key_snippet(rng, n_sites))
        for coverage_mode in (False, True):
            for max_combos in (1, 32):
                _assert_same_solution(program, _PY_SPECS, coverage_mode,
                                      max_combos)


def test_ghost_op_rerun_without_argument_growth_recomputes_nothing(
        monkeypatch):
    """At the fixpoint no argument set grows, so re-running any ghost
    op applies its cached fields and computes no ghost rule again."""
    program = parse_python(_late_key_snippet(random.Random(7), 12))
    solver, exceeded = _solve(Solver, program, _PY_SPECS, True, 32,
                              _METERED)
    assert exceeded is None
    ghost_ops = [op for ops in solver._watchers.values() for op in ops
                 if isinstance(op, _GhostOp)]
    assert ghost_ops
    calls = []
    for name in ("ghost_writes", "ghost_reads"):
        def spy(*args, _name=name, _rule=getattr(andersen, name), **kwargs):
            calls.append(_name)
            return _rule(*args, **kwargs)
        monkeypatch.setattr(andersen, name, spy)
    for op in ghost_ops:
        solver._run_op(op)
    assert calls == []
    assert not solver._worklist

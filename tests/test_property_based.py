"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.events import RET, HistoryBuilder, HistoryOptions, build_event_graph
from repro.ir import FunctionBuilder, ProgramBuilder, Var
from repro.model.features import EncodedSample
from repro.model.logistic import TrainConfig
from repro.model.model import EventPairModel
from repro.pointsto import analyze
from repro.pointsto.ghost import ArgValues, ghost_reads, ghost_writes
from repro.pointsto.objects import LitVal
from repro.specs import (
    RetArg,
    RetSame,
    SpecSet,
    average_top_k,
    extend_with_retsame,
    max_score,
    percentile_score,
    select_specs,
)

# ----------------------------------------------------------------------
# random IR programs


_METHODS = ["A.make", "A.use", "B.get", "B.put", "C.read"]
_FIELDS = ["f", "g"]
#: ``field_ops`` draws: calls (2) three times as often as the rest
_SOLVER_OPS = (0, 1, 2, 2, 2, 3, 4, 5, 6, 7, 8)


@st.composite
def small_programs(draw, field_ops: bool = False):
    """A random straight-line/branchy program over a small API alphabet.

    ``field_ops`` adds field stores, field loads and copies into
    existing variables, and lets later ops use copies, so points-to
    sets keep growing after the ops that read them first ran.
    """
    pb = ProgramBuilder(source="prop.java")
    b = pb.function("main")
    variables = [b.alloc("Root")]

    def emit_ops(n_ops: int, depth: int) -> None:
        for _ in range(n_ops):
            op = draw(st.sampled_from(_SOLVER_OPS) if field_ops
                      else st.integers(min_value=0, max_value=5))
            if op == 0:
                variables.append(b.alloc(draw(st.sampled_from("TUV"))))
            elif op == 1:
                variables.append(
                    b.const(draw(st.sampled_from(["k", "x", 1, 2])))
                )
            elif op == 2:
                recv = draw(st.sampled_from(variables))
                nargs = draw(st.integers(min_value=0, max_value=2))
                args = [draw(st.sampled_from(variables)) for _ in range(nargs)]
                out = b.call(draw(st.sampled_from(_METHODS)), receiver=recv,
                             args=args, returns=draw(st.booleans()))
                if out is not None:
                    variables.append(out)
            elif op == 3 and depth < 2:
                cond = b.const(True)
                inner = draw(st.integers(min_value=0, max_value=3))
                with b.if_(cond) as node:
                    emit_ops(inner, depth + 1)
                with b.else_(node):
                    emit_ops(draw(st.integers(min_value=0, max_value=2)),
                             depth + 1)
            elif op == 4 and depth < 2:
                cond = b.const(True)
                with b.while_(cond):
                    emit_ops(draw(st.integers(min_value=0, max_value=3)),
                             depth + 1)
            elif op == 6:
                b.field_store(draw(st.sampled_from(variables)),
                              draw(st.sampled_from(_FIELDS)),
                              draw(st.sampled_from(variables)))
            elif op == 7:
                variables.append(b.field_load(draw(st.sampled_from(variables)),
                                              draw(st.sampled_from(_FIELDS))))
            elif op == 8:
                b.assign(draw(st.sampled_from(variables)),
                         draw(st.sampled_from(variables)))
            else:
                copy = b.assign(b.fresh("copy"),
                                draw(st.sampled_from(variables)))
                if field_ops:
                    variables.append(copy)

    emit_ops(draw(st.integers(min_value=1, max_value=10)), 0)
    pb.add(b.finish())
    return pb.finish()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_event_graph_invariants(program):
    """Structural invariants of §3.3 hold for arbitrary programs."""
    result = analyze(program)
    histories = HistoryBuilder(program, result).build()
    graph = build_event_graph(histories)

    for e in graph.events:
        # no self-edges
        assert not graph.has_edge(e, e)
        # parents/children are consistent
        for child in graph.children(e):
            assert e in graph.parents(child)
        # allocation events are ret events without parents
        if graph.is_allocation(e):
            assert e.pos == RET and not graph.parents(e)
        # alloc(e) only contains allocation events, and contains e iff
        # e itself is an allocation event
        allocs = graph.alloc(e)
        assert all(graph.is_allocation(a) for a in allocs)
        assert (e in allocs) == graph.is_allocation(e)

    # antisymmetry: no 2-cycles
    for e1, e2 in graph.edges():
        assert not graph.has_edge(e2, e1)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_history_bounds(program):
    result = analyze(program)
    options = HistoryOptions(max_len=7, max_histories=4)
    histories = HistoryBuilder(program, result, options).build()
    for _, hs in histories.items():
        assert all(len(h) <= options.max_len for h in hs)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_contexts_contain_event(program):
    """Every path in ctx_{G,k}(e) includes e and respects the bound."""
    result = analyze(program)
    graph = build_event_graph(HistoryBuilder(program, result).build())
    for e in list(graph.events)[:10]:
        for path in graph.contexts(e, k=2):
            assert e in path
            assert 1 <= len(path) <= 2


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_pointsto_monotone_in_specs(program):
    """Adding specifications never removes points-to facts (the ghost
    rules only add objects)."""
    from repro.ir.traversal import iter_calls

    base = analyze(program)
    specs = SpecSet([RetSame("B.get"), RetArg("B.get", "B.put", 2)])
    augmented = analyze(program, specs=specs)
    for site in base.api_sites:
        call = site.instr
        if call.dst is None:
            continue
        fn, ctx = base.site_owner(site)
        before = base.var_pts(fn, ctx, call.dst)
        after = augmented.var_pts(fn, ctx, call.dst)
        assert before <= after


# ----------------------------------------------------------------------
# scoring


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=50),
       st.integers(min_value=1, max_value=20))
def test_average_top_k_bounds(confidences, k):
    score = average_top_k(confidences, len(confidences), k=k)
    assert min(confidences) - 1e-9 <= score <= max(confidences) + 1e-9
    # dominated by the max and at least the overall mean
    assert score >= sum(confidences) / len(confidences) - 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=50))
def test_scorers_ordering(confidences):
    n = len(confidences)
    assert max_score(confidences, n) >= average_top_k(confidences, n) - 1e-9
    assert 0.0 <= percentile_score(confidences, n) <= 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=30),
       st.floats(min_value=0.5, max_value=1.0))
def test_adding_high_confidence_never_lowers_score(confidences, high):
    before = average_top_k(confidences, len(confidences), k=10)
    extended = confidences + [max(high, max(confidences))]
    after = average_top_k(extended, len(extended), k=10)
    assert after >= before - 1e-9


# ----------------------------------------------------------------------
# specification sets


_spec_strategy = st.one_of(
    st.builds(RetSame, st.sampled_from(["A.get", "B.get", "C.read", "D.m"])),
    st.builds(RetArg,
              st.sampled_from(["A.get", "B.get", "C.read"]),
              st.sampled_from(["A.put", "B.put", "C.write"]),
              st.integers(min_value=1, max_value=3)),
)


@given(st.lists(_spec_strategy, max_size=15))
def test_extension_closure(specs):
    extended = extend_with_retsame(SpecSet(specs))
    # invariant (3) of the paper holds
    for spec in extended:
        if isinstance(spec, RetArg):
            assert RetSame(spec.target) in extended
    # idempotence
    assert set(extend_with_retsame(extended)) == set(extended)
    # the extension only adds, never removes
    assert set(specs) <= set(extended)


@given(st.dictionaries(_spec_strategy,
                       st.floats(min_value=0.0, max_value=1.0), max_size=15),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_selection_monotone_in_tau(scores, tau1, tau2):
    low, high = min(tau1, tau2), max(tau1, tau2)
    assert set(select_specs(scores, high)) <= set(select_specs(scores, low))


# ----------------------------------------------------------------------
# ghost fields


_arg_values = st.builds(
    ArgValues,
    st.frozensets(st.builds(LitVal, st.sampled_from(["a", "b", 1, 2])),
                  max_size=3),
    st.booleans(),
)


@given(st.lists(_arg_values, max_size=3), st.booleans(),
       st.integers(min_value=1, max_value=8))
def test_ghost_reads_bounded_and_deterministic(args, coverage, max_combos):
    specs = SpecSet([RetSame("M.get")])
    fields1, eligible1 = ghost_reads("M.get", args, specs, coverage, max_combos)
    fields2, eligible2 = ghost_reads("M.get", args, specs, coverage, max_combos)
    assert fields1 == fields2 and eligible1 == eligible2
    assert eligible1 <= fields1
    exact = [f for f in fields1 if f.kind == "exact"]
    assert len(exact) <= max_combos


@given(st.lists(_arg_values, min_size=2, max_size=2), st.booleans())
def test_ghost_writes_only_with_stored_objects(args, coverage):
    specs = SpecSet([RetArg("M.get", "M.put", 2)])
    writes = ghost_writes("M.put", args, [frozenset(), frozenset()],
                          specs, coverage)
    assert writes == set()  # nothing to store → nothing written


# ----------------------------------------------------------------------
# logistic regression


@given(st.lists(st.tuples(
    st.sampled_from([("0", "ret"), ("1", "2"), ("ret", "ret")]),
    st.frozensets(st.integers(min_value=0, max_value=63), min_size=1,
                  max_size=6),
    st.integers(min_value=0, max_value=1)), min_size=1, max_size=40))
def test_logistic_probabilities_valid(examples):
    model = EventPairModel(train_config=TrainConfig(epochs=2))
    model.fit_encoded([EncodedSample(key, tuple(sorted(f)), label)
                       for key, f, label in examples])
    for key, f, _ in examples:
        p = model.predict_encoded(key, tuple(sorted(f)))
        assert 0.0 <= p <= 1.0

"""Tests for candidate scoring (§5.2) and selection/extension (§5.3–5.4)."""

import pytest

from repro.specs import (
    RetArg,
    RetSame,
    SpecSet,
    average_top_k,
    extend_with_retsame,
    match_count_score,
    max_score,
    percentile_score,
    select_specs,
)
from repro.specs.candidates import CandidateExtraction, CandidateStats
from repro.specs.scoring import score_candidates


def test_average_top_k_uses_best_k():
    gamma = [0.1] * 90 + [0.9] * 10
    assert average_top_k(gamma, len(gamma), k=10) == pytest.approx(0.9)


def test_average_top_k_with_fewer_than_k():
    assert average_top_k([0.4, 0.8], 2, k=10) == pytest.approx(0.6)


def test_average_top_k_empty():
    assert average_top_k([], 0) == 0.0


def test_low_confidences_do_not_hurt_much():
    """§5.2: Γ_S is expected to contain low values (Fig. 4); the score
    must be driven by the high ones."""
    mostly_low = [0.05] * 50 + [0.95] * 12
    assert average_top_k(mostly_low, 62, k=10) > 0.9


def test_max_and_percentile_scores():
    gamma = [i / 100 for i in range(100)]
    assert max_score(gamma, 100) == pytest.approx(0.99)
    assert percentile_score(gamma, 100, pct=95.0) == pytest.approx(0.94)
    assert percentile_score([], 0) == 0.0


def test_match_count_score_monotone_and_bounded():
    values = [match_count_score([], m) for m in (1, 5, 20, 100)]
    assert values == sorted(values)
    assert all(0 <= v < 1 for v in values)


def test_score_candidates_applies_scorer():
    extraction = CandidateExtraction()
    spec = RetSame("A.get")
    extraction.stats[spec] = CandidateStats(confidences=[0.2, 0.9], matches=2)
    scores = score_candidates(extraction, max_score)
    assert scores[spec] == pytest.approx(0.9)


def test_select_specs_threshold():
    scores = {RetSame("A.get"): 0.7, RetSame("B.get"): 0.5}
    selected = select_specs(scores, tau=0.6)
    assert RetSame("A.get") in selected
    assert RetSame("B.get") not in selected


def test_extension_invariant():
    """Eq. (3): RetArg(t, s, x) ∈ S ⟹ RetSame(t) ∈ S."""
    specs = SpecSet([RetArg("Map.get", "Map.put", 2)])
    extended = extend_with_retsame(specs)
    assert RetSame("Map.get") in extended
    for spec in extended:
        if isinstance(spec, RetArg):
            assert RetSame(spec.target) in extended


def test_extension_idempotent():
    specs = SpecSet([RetArg("Map.get", "Map.put", 2), RetSame("Map.get")])
    extended = extend_with_retsame(specs)
    assert len(extended) == len(specs)


def test_specset_lookups():
    specs = SpecSet([
        RetArg("Map.get", "Map.put", 2),
        RetSame("Map.get"),
        RetSame("List.get"),
    ])
    assert specs.has_retsame("Map.get")
    assert not specs.has_retsame("Map.put")
    retargs = specs.retargs_with_source("Map.put")
    assert len(retargs) == 1
    assert specs.api_classes() == frozenset({"Map", "List"})


def test_specset_union():
    a = SpecSet([RetSame("A.get")])
    b = SpecSet([RetSame("B.get")])
    assert len(a | b) == 2


def test_retarg_validates_index():
    with pytest.raises(ValueError):
        RetArg("A.get", "A.put", 0)



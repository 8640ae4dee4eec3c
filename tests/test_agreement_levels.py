"""The agreement test decides only the levels its reach bound leaves open:
a differential test against the loop that draws and scans every level, and
the one-pass analytic capacity table against its per-n definition."""

from itertools import combinations
from random import Random
from unittest import mock

from hypothesis import given, settings, strategies as st

from hypertemplate import signature
from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.signature import (
    F_estimate,
    G_estimate,
    OplusCounterexample,
    OplusResult,
    ParamType,
    SearchBudget,
    _sample_matching,
    _sample_stems,
    analytic_f_bound,
    analytic_g_lower,
    analytic_g_table,
    coverage_level,
    oplus_test,
    predicate_count,
)
from hypertemplate.template import TailPolicy, Template
from hypertemplate.tree import _scan_levels


def reference_oplus_test(t, s, n, budget):
    """The agreement test before it skipped levels: every family is drawn,
    and scanned on every stem level."""
    if s < 1 or n < 0:
        raise InputError("need s >= 1 and n >= 0")
    analytic = t.is_complete() or analytic_f_bound(t, s) <= n
    sizes = [t.level_size(l) for l in range(budget.stem_depth)]
    graphs = t._level_graphs(budget.stem_depth)  # past the stems 0 is a witness
    lc = coverage_level(t, n)
    rng = Random(budget.seed)
    tried = 0
    for _ in range(budget.families):
        tried += 1
        fam_a = tuple(_sample_stems(sizes, t.arity - 1, rng) for _ in range(s))
        if not _scan_levels(graphs, fam_a).consistent:
            continue
        fam_b = []
        for stems in fam_a:
            first = n - 1 - predicate_count(t, lc)  # least level-lc rank of index >= n
            match = _sample_matching(stems, first, sizes, lc, rng, budget.resamples)
            if match is None:
                break
            fam_b.append(match)
        if len(fam_b) != s:
            continue
        if not _scan_levels(graphs, fam_b).consistent:
            fam_a, fam_b = (tuple(ParamType(stems=st) for st in fam) for fam in (fam_a, fam_b))
            return OplusResult(s, n, False, OplusCounterexample(fam_a, fam_b, n), tried)
    return OplusResult(s, n, True, None, tried, analytic=analytic)


@st.composite
def templates(draw):
    """Template(k, levels) with k in 2..4 and 1..3 stored levels of size
    k-1..6, each complete, empty or random, so that some levels fail the
    extension property and some pass it at every count."""
    k = draw(st.integers(2, 4))
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(k - 1, 6))
        sets = list(combinations(range(size), k))
        kind = draw(st.sampled_from(["complete", "empty", "random", "random"]))
        if kind == "complete":
            edges = sets
        elif kind == "empty":
            edges = []
        else:
            keep = draw(st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)))
            edges = [e for e, kept in zip(sets, keep) if kept]
        levels.append((Hypergraph(k, size, edges), draw(st.integers(1, size))))
    return Template(k, levels, TailPolicy("complete_growing", draw(st.integers(1, 2))))


class TestAgreementLevels:
    @settings(max_examples=400, deadline=None)
    @given(templates(), st.integers(1, 5), st.sampled_from([1, 10]), st.integers(0, 2**16), st.data())
    def test_matches_scan_of_every_level(self, t, stem_depth, resamples, seed, data):
        budget = SearchBudget(stem_depth=stem_depth, families=20, resamples=resamples, seed=seed)
        s = data.draw(st.integers(1, 4), label="s")
        n = data.draw(st.integers(0, analytic_f_bound(t, s) + 1), label="n")
        assert oplus_test(t, s, n, budget) == reference_oplus_test(t, s, n, budget)
        got = F_estimate(t, s, budget), G_estimate(t, n, budget, s_cap=4)
        with mock.patch.object(signature, "oplus_test", reference_oplus_test):
            assert got == (F_estimate(t, s, budget), G_estimate(t, n, budget, s_cap=4))

    def test_returns_without_drawing_when_no_level_can_fail(self):
        # level 0 is complete; on level 1 (no edges) a vertex's witness mask
        # is itself, so one complement misses a vertex: no level can fail at
        # s = 1, and no family is drawn
        t = Template(2, [(Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)]), 1), (Hypergraph(2, 4), 1)])
        budget = SearchBudget(stem_depth=3, families=40, resamples=10, seed=5)
        with mock.patch.object(signature, "_sample_stems", side_effect=AssertionError("drew")):
            assert oplus_test(t, 1, 0, budget) == OplusResult(1, 0, True, None, 40)
        assert oplus_test(t, 1, 0, budget) == reference_oplus_test(t, 1, 0, budget)


@settings(max_examples=400, deadline=None)
@given(templates(), st.integers(0, 300))
def test_g_table_matches_per_n_definition(t, n_max):
    table = analytic_g_table(t, n_max)
    if t.is_complete():
        assert table == [signature.INFINITE] * (n_max + 1)
    else:
        assert table == [analytic_g_lower(t, n) for n in range(n_max + 1)]

"""The exact agreement test against the brute force, which scans every
level of every pair of families, and against the sampled search, every
refutation of which is exact; and the one-pass analytic capacity table
against its per-n definition."""

from itertools import combinations
from math import prod
from unittest import mock

from hypothesis import given, settings, strategies as st

from hypertemplate import signature
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.oracle import SearchBudget, naive_oplus_test, sampled_oplus_test
from hypertemplate.signature import (
    F_estimate,
    G_estimate,
    OplusResult,
    analytic_f_bound,
    analytic_g_lower,
    analytic_g_table,
    f_signature,
    family_consistent,
    oplus_test,
)
from hypertemplate.template import TailPolicy, Template


@st.composite
def templates(draw, k_max=4, levels_max=3, size_max=6):
    """Template(k, levels) with k in 2..k_max and 1..levels_max stored
    levels of size k-1..size_max, each complete, empty or random, so that
    some levels fail the extension property and some pass it at every
    count."""
    k = draw(st.integers(2, k_max))
    levels = []
    for _ in range(draw(st.integers(1, levels_max))):
        size = draw(st.integers(k - 1, size_max))
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


def assert_replays(t, ce, n):
    """The first family is consistent, the second is not, and each pair of
    types agrees on the signature up to index n."""
    assert family_consistent(t, ce.consistent_family)
    assert not family_consistent(t, ce.inconsistent_family)
    for a, b in zip(ce.consistent_family, ce.inconsistent_family, strict=True):
        depth = len(a.stems[0])
        assert f_signature(t, a, depth).restrict(n) == f_signature(t, b, depth).restrict(n)


class TestAgreementLevels:
    @settings(max_examples=250, deadline=None)
    @given(templates(k_max=3, levels_max=2, size_max=4), st.data())
    def test_matches_scan_of_every_level(self, t, data):
        # the brute force walks every type with stems down to the prefix:
        # keep it to at most 16 (k-1)-tuples of stems
        stems = prod(t.level_size(l) for l in range(t.prefix_len))
        if stems ** (t.arity - 1) > (16 if t.arity == 3 else 9):
            t = Template(t.arity, t.levels[:1], t.tail)
        s = data.draw(st.integers(1, 3 if t.arity == 2 else 2), label="s")
        n = data.draw(st.integers(0, analytic_f_bound(t, s) + 1), label="n")
        res = oplus_test(t, s, n)
        assert res.exhaustive and res.families_tried == 0
        assert (res.counterexample is None) == (naive_oplus_test(t, s, n) is None)
        if res.counterexample is not None:
            assert_replays(t, res.counterexample, n)

    @settings(max_examples=200, deadline=None)
    @given(
        templates(),
        st.integers(1, 5),
        st.sampled_from([(20, 10), (300, 50)]),  # the signature workload's and the old CLI default
        st.integers(0, 2**16),
        st.data(),
    )
    def test_every_sampled_refutation_is_exact(self, t, stem_depth, draws, seed, data):
        families, resamples = draws
        budget = SearchBudget(stem_depth=stem_depth, families=families, resamples=resamples, seed=seed)
        s = data.draw(st.integers(1, 4), label="s")
        n = data.draw(st.integers(0, analytic_f_bound(t, s) + 1), label="n")
        sampled, _tried = sampled_oplus_test(t, s, n, budget)
        res = oplus_test(t, s, n)
        if sampled is not None:
            assert res.counterexample is not None
        if res.counterexample is not None:
            assert_replays(t, res.counterexample, n)
        # F is the least n that holds, since refutations carry down to smaller n
        F = F_estimate(t, s)
        assert F.exact and F.lower_bound == F.upper_bound == len(F.certificates)
        assert (res.counterexample is None) == (n >= F.lower_bound)
        # G is the largest s that holds, since refutations carry up to larger s
        if not t.is_complete():
            refuted = [c for c in range(1, 5) if oplus_test(t, c, n).counterexample is not None]
            G = G_estimate(t, n, s_cap=4)
            assert (G.value, G.exact) == ((refuted[0] - 1, True) if refuted else (4, False))

    def test_returns_without_drawing_when_no_level_can_fail(self):
        # level 0 is complete; on level 1 (no edges) a vertex's witness mask
        # is itself, so one complement misses a vertex: no level can fail at
        # s = 1, and the test returns without a cover search
        t = Template(2, [(Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)]), 1), (Hypergraph(2, 4), 1)])
        with mock.patch.object(Hypergraph, "_cover_search", side_effect=AssertionError("searched")):
            assert oplus_test(t, 1, 0) == OplusResult(1, 0, True, None)
        assert sampled_oplus_test(t, 1, 0, SearchBudget(families=40))[0] is None


@settings(max_examples=400, deadline=None)
@given(templates(), st.integers(0, 300))
def test_g_table_matches_per_n_definition(t, n_max):
    table = analytic_g_table(t, n_max)
    if t.is_complete():
        assert table == [signature.INFINITE] * (n_max + 1)
    else:
        assert table == [analytic_g_lower(t, n) for n in range(n_max + 1)]

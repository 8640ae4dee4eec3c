"""The exact agreement test, and G over it, against the brute force, which
scans every level of every pair of families; F and G against the test
they are defined over; and the one-pass analytic capacity table against
its per-n definition."""

import pickle
from itertools import combinations, count
from math import ceil, log2, prod
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hypertemplate import hypergraph, signature
from hypertemplate.hypergraph import Hypergraph, random_hypergraph
from hypertemplate.oracle import naive_oplus_test
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
from hypertemplate.template import TailPolicy, Template, random_template


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


def walked_F(t, s):
    """F_estimate's (lower_bound, upper_bound, exact) by its definition:
    oplus_test at n = 0, 1, 2, ... up to the first n it does not refute."""
    for n in count():
        res = oplus_test(t, s, n)
        if res.counterexample is None:
            return n, n if res.exhaustive else analytic_f_bound(t, s), res.exhaustive


def non_complete_random_templates(count_wanted, seed):
    """random_template draws (k 2-3, 1-3 levels of k..6 vertices, edge
    probability 0.3-0.95, target f 1-3), skipping complete templates."""
    rng, out = Random(seed), []
    while len(out) < count_wanted:
        k = rng.choice([2, 2, 3])
        sizes = [rng.randint(k, 6) for _ in range(rng.randint(1, 3))]
        tf = [rng.randint(1, min(3, size)) for size in sizes]
        t = random_template(k, sizes, rng.uniform(0.3, 0.95), tf, rng.randrange(10**6))
        if not t.is_complete():
            out.append(t)
    return out


def assert_kept_checks_change_no_result(t, s, n):
    """F_estimate(t, s), G_estimate(t, n) and oplus_test(t, s, n), run in
    three orders on one copy of t, which keeps its levels' completion
    tables, reach bounds, set-ups and witness masks between them, each equal
    what it returns on a cold copy; returns the test's result."""
    runs = {"F": lambda u: F_estimate(u, s), "G": lambda u: G_estimate(u, n), "oplus": lambda u: oplus_test(u, s, n)}

    def cold():
        return pickle.loads(pickle.dumps(t))

    alone = {name: run(cold()) for name, run in runs.items()}
    for order in (("G", "F", "oplus"), ("F", "G", "oplus"), ("oplus", "G", "F")):
        u = cold()
        assert {name: runs[name](u) for name in order} == alone
    return alone["oplus"]


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
        assert res.exhaustive
        assert (res.counterexample is None) == (naive_oplus_test(t, s, n) is None)
        if res.counterexample is not None:
            assert_replays(t, res.counterexample, n)

    @settings(max_examples=200, deadline=None)
    @given(templates(), st.data())
    def test_F_and_G_agree_with_the_test(self, t, data):
        s = data.draw(st.integers(1, 4), label="s")
        n = data.draw(st.integers(0, analytic_f_bound(t, s) + 1), label="n")
        res = oplus_test(t, s, n)
        if res.counterexample is not None:
            assert_replays(t, res.counterexample, n)
        # F is the least n that holds, since refutations carry down to smaller n
        F = F_estimate(t, s)
        assert F.exact and F.lower_bound == F.upper_bound == len(F.certificates)
        assert (res.counterexample is None) == (n >= F.lower_bound)
        # G is the largest s that holds, since refutations carry up to larger s
        G = G_estimate(t, n)
        assert G.exact
        if G.value == signature.INFINITE:
            assert G.certificate is None
            assert all(oplus_test(t, c, n).counterexample is None for c in range(1, 5))
        else:
            assert oplus_test(t, G.value + 1, n).counterexample is not None
            assert oplus_test(t, G.value, n).counterexample is None
            assert len(G.certificate.consistent_family) == G.value + 1
            assert_replays(t, G.certificate, n)

    @settings(max_examples=300, deadline=None)
    @given(templates(k_max=2, levels_max=2, size_max=4), st.data())
    def test_G_matches_walk_of_every_pair(self, t, data):
        # the brute force refutes G + 1 and passes G, and with G infinite
        # passes s = 1..3; it walks every stem: keep them to at most 9
        stems = prod(t.level_size(l) for l in range(t.prefix_len))
        if stems > 9:
            t = Template(t.arity, t.levels[:1], t.tail)
        n = data.draw(st.integers(0, analytic_f_bound(t, 2) + 1), label="n")
        G = G_estimate(t, n)
        assert G.exact
        if G.value == signature.INFINITE:
            assert all(naive_oplus_test(t, s, n) is None for s in (1, 2, 3))
        else:
            assert naive_oplus_test(t, G.value + 1, n) is not None
            assert naive_oplus_test(t, G.value, n) is None

    @settings(max_examples=150, deadline=None)
    @given(templates(k_max=3, levels_max=2, size_max=4), st.data())
    def test_kept_checks_change_no_result(self, t, data):
        # F, G and the test read the levels' kept state; run in any order
        # on one template they return what each returns on a cold copy,
        # also under a node bound small enough to stop some checks
        stems = prod(t.level_size(l) for l in range(t.prefix_len))
        if stems ** (t.arity - 1) > (16 if t.arity == 3 else 9):
            t = Template(t.arity, t.levels[:1], t.tail)
        s = data.draw(st.integers(1, 3 if t.arity == 2 else 2), label="s")
        n = data.draw(st.integers(0, analytic_f_bound(t, s) + 1), label="n")
        bound = data.draw(st.sampled_from([None, 5, 10, 20, 40]), label="bound")
        with pytest.MonkeyPatch.context() as m:
            if bound is not None:
                m.setattr(hypergraph, "COVER_SEARCH_NODES", bound)
            test = assert_kept_checks_change_no_result(t, s, n)
        if bound is None or test.exhaustive:
            assert (test.counterexample is None) == (naive_oplus_test(t, s, n) is None)

    def test_kept_checks_change_no_result_under_a_node_bound(self, monkeypatch):
        # within 10 nodes the plain check proves that no three tuples lack
        # a witness, but the window check at n = 2 and 3 stops: the test
        # stays inexact after F or G has run, as on a cold copy
        t = Template(2, [(random_hypergraph(2, 5, 0.6, Random(1)), 1)], TailPolicy("complete_growing", 1))
        monkeypatch.setattr(hypergraph, "COVER_SEARCH_NODES", 10)
        for n in (2, 3):
            assert not assert_kept_checks_change_no_result(t, 3, n).exhaustive

    def test_certificate_from_the_first_level_with_the_smallest_cover(self):
        # two edgeless levels each fail at two tuples; the scan keeps the
        # first, so the certificate's stems end at level 0
        t = Template(2, [(Hypergraph(2, 3), 1), (Hypergraph(2, 3), 1)], TailPolicy("complete_growing", 1))
        for ce in (oplus_test(t, 2, 0).counterexample, G_estimate(t, 0).certificate):
            assert [pt.stems for pt in ce.inconsistent_family] == [((0,),), ((1,),)]
            assert_replays(t, ce, 0)

    @pytest.mark.parametrize("bound", [None, 30, 8])
    def test_F_runs_equal_the_walk_of_every_n(self, bound, monkeypatch):
        # F searches n by doubling and bisection and keeps one certificate;
        # at the default node bound it equals a walk that runs the test at
        # each n, and every certificate replays at its agreement.  At node
        # bounds 30 and 8, which stop some checks, it stays sound against
        # the unbounded F, and the test refutes every n below its lower bound
        inexact = 0
        for t in non_complete_random_templates(150, 27):
            for s in (1, 2, 3):
                exact_F = F_estimate(t, s)
                if bound is None:
                    assert (exact_F.lower_bound, exact_F.upper_bound, exact_F.exact) == walked_F(t, s)
                    assert len(exact_F.certificates) == exact_F.lower_bound
                    for ce in exact_F.certificates:
                        assert_replays(t, ce, ce.agreement)
                    continue
                with monkeypatch.context() as m:
                    m.setattr(hypergraph, "COVER_SEARCH_NODES", bound)
                    F = F_estimate(t, s)
                    if F.lower_bound:
                        assert oplus_test(t, s, F.lower_bound - 1).counterexample is not None
                assert F.lower_bound <= exact_F.lower_bound
                if F.exact:
                    assert F == exact_F
                inexact += not F.exact
        assert (inexact > 0) == (bound is not None)

    def test_F_takes_logarithmically_many_scans(self):
        # two edgeless 30-vertex levels: F(2) = 930 = 30 + 30 * 30, refuted
        # at every smaller n.  Each level's plain check, then a bisection of
        # level 1's window start over [1, 30), take at most 2 + ceil(log2 30)
        # = 7 window checks; a search over n re-runs them per probe
        t = Template(2, [(Hypergraph(2, 30), 1), (Hypergraph(2, 30), 1)], TailPolicy("complete_growing", 1))
        spy = mock.patch.object(Hypergraph, "_window_check", autospec=True, side_effect=Hypergraph._window_check)
        with spy as check:
            F = F_estimate(t, 2)
        assert check.call_count <= t.prefix_len + ceil(log2(30)) == 7
        assert F.exact and F.lower_bound == F.upper_bound == len(F.certificates) == 930
        assert [ce.agreement for ce in F.certificates] == list(range(930))
        assert_replays(t, F.certificate, 929)

    def test_returns_without_drawing_when_no_level_can_fail(self):
        # level 0 is complete; on level 1 (no edges) a vertex's witness mask
        # is itself, so one complement misses a vertex: no level can fail at
        # s = 1, and the test returns without a cover search
        t = Template(2, [(Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)]), 1), (Hypergraph(2, 4), 1)])
        with mock.patch.object(Hypergraph, "_cover_search", side_effect=AssertionError("searched")):
            assert oplus_test(t, 1, 0) == OplusResult(1, 0, True, None)


@settings(max_examples=400, deadline=None)
@given(templates(), st.integers(0, 300))
def test_g_table_matches_per_n_definition(t, n_max):
    assert analytic_g_table(t, n_max) == [analytic_g_lower(t, n) for n in range(n_max + 1)]

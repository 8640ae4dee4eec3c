import functools
import gc
import hashlib
import itertools
import operator
import pickle
import time
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertemplate import hypergraph
from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph, complete_hypergraph, random_hypergraph
from hypertemplate.oracle import naive_extension_property, naive_extension_witness
from hypertemplate.template import max_extension_arity


EXTENSION_DIGEST = "5ebf7f27100c75a6b7d4a5e991fef2e7c50caa35c39e5dac5e252b9aee5fb6b9"
EXTENSION_FAILED = 803


def small_random(seed, arity=3, size=4, p=0.5):
    return random_hypergraph(arity, size, p, Random(seed))


class TestIsEdge:
    def test_repeated_entries_always_edge(self):
        h = Hypergraph(3, 4)
        assert h.is_edge((1, 1, 2))

    def test_empty_uniform_part_distinct_tuple(self):
        h = Hypergraph(3, 4)
        assert not h.is_edge((0, 1, 2))

    def test_complete_any_order(self):
        h = complete_hypergraph(3, 4)
        assert h.is_edge((3, 1, 0))

    def test_wrong_length_rejected(self):
        h = Hypergraph(3, 4)
        with pytest.raises(InputError):
            h.is_edge((0, 1))

    def test_out_of_range_rejected(self):
        h = Hypergraph(3, 4)
        with pytest.raises(InputError):
            h.is_edge((0, 1, 4))

    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, seed, tup_seed):
        h = small_random(seed)
        rng = Random(tup_seed)
        tup = tuple(rng.randrange(h.size) for _ in range(h.arity))
        vals = {h.is_edge(p) for p in itertools.permutations(tup)}
        assert len(vals) == 1


class TestWitnessMask:
    def test_matches_is_edge(self):
        h = small_random(7)
        for tup in itertools.product(range(h.size), repeat=h.arity - 1):
            mask = h.witness_mask(tup)
            for s in range(h.size):
                assert bool(mask >> s & 1) == h.is_edge((s,) + tup)

    def test_repeat_in_partial_gives_full_mask(self):
        h = Hypergraph(3, 4)
        assert h.witness_mask((2, 2)) == 0b1111

    def test_any_sequence_as_is_edge_takes(self):
        # a list, memoized under its tuple, gives the tuple's mask, and a
        # list of the wrong length is an input error, not a TypeError
        h = Hypergraph(3, 4, [(0, 1, 2)])
        assert h.witness_mask([0, 1]) == h.witness_mask((0, 1)) == 0b0111
        assert h.witness_mask((1, 2)) == h.witness_mask([1, 2]) == 0b0111
        with pytest.raises(InputError):
            h.witness_mask([0])
        with pytest.raises(InputError):
            h.witness_mask([0, 4])

    # count, when given, takes that many k-sets in a seeded order in place of
    # p: the completion table records the non-edges once more than half the
    # k-sets are edges, so the examples sit at that switch point (C(n, k)/2
    # edges, one more, one fewer) and on edgeless and complete levels
    @given(
        st.integers(2, 4),
        st.integers(1, 6),
        st.floats(0.05, 1.0),
        st.integers(0, 2**31),
        st.floats(0.0, 1.0),
        st.none(),
    )
    @settings(max_examples=80, deadline=None)
    @example(2, 5, 1.0, 0, 0.0, 0)
    @example(2, 5, 1.0, 1, 0.0, 4)
    @example(2, 5, 1.0, 2, 0.5, 5)
    @example(2, 5, 1.0, 3, 0.0, 6)
    @example(2, 5, 1.0, 4, 0.0, 10)
    @example(3, 6, 1.0, 5, 0.0, 0)
    @example(3, 6, 1.0, 6, 0.5, 9)
    @example(3, 6, 1.0, 7, 0.0, 10)
    @example(3, 6, 1.0, 8, 0.5, 11)
    @example(3, 6, 1.0, 9, 0.0, 20)
    @example(4, 8, 1.0, 10, 0.0, 0)
    @example(4, 8, 1.0, 11, 0.0, 34)
    @example(4, 8, 1.0, 12, 0.5, 35)
    @example(4, 8, 1.0, 13, 0.0, 36)
    @example(4, 8, 1.0, 14, 0.5, 70)
    def test_bulk_masks_match_edge_scans(self, arity, size, p, seed, warm, count):
        # masks read off the completion table must agree with direct is_edge
        # scans in product order: from a cold cache, from one partly filled
        # by witness_mask, and after extension checks, which leave the memo
        # alone
        def level():
            if count is None:
                return random_hypergraph(arity, size, p, Random(seed))
            return Hypergraph(arity, size, Random(seed).sample(list(itertools.combinations(range(size), arity)), count))

        tuples = list(itertools.product(range(size), repeat=arity - 1))
        ref = level()
        scans = [sum(1 << s for s in range(size) if ref.is_edge((s,) + tup)) for tup in tuples]
        cold, warmed, checked = (level() for _ in range(3))
        rng = Random(seed + 1)
        for tup in tuples:
            if rng.random() < warm:
                warmed.witness_mask(tup)
                checked.witness_mask(tup)
        memo = dict(checked._mask_cache)
        for t in range(1, 4):
            checked.check_extension_property(t)
            checked.check_extension_property(t, 2 * (arity - 1))
        assert checked._mask_cache == memo
        for h in (cold, warmed, checked):
            assert [h.witness_mask(tup) for tup in tuples] == scans


def extension_digest(warm: bool = False) -> tuple[str, int]:
    """SHA-256 over (holds, exhaustive, counterexample, proven) of checks
    at t = 1..5, with and without span, on seeded random levels, some with
    a partly filled mask memo, and how many of the checks failed.  With
    warm, each level first runs the same checks from t = 5 down, so every
    recorded check reads a kept set-up."""
    digest = hashlib.sha256()
    failed = 0
    for i in range(300):
        rng = Random(5000 + i)
        k = rng.randint(2, 4)
        h = random_hypergraph(k, rng.randint(1, {2: 12, 3: 8, 4: 6}[k]), rng.uniform(0.2, 1.0), rng)
        if i % 2:
            for tup in itertools.product(range(h.size), repeat=k - 1):
                if rng.random() < 0.3:
                    h.witness_mask(tup)
        if warm:
            for t in range(5, 0, -1):
                for span in (None, 2 * (k - 1)):
                    h.check_extension_property(t, span)
        for t in range(1, 6):
            for span in (None, 2 * (k - 1)):
                chk = h.check_extension_property(t, span)
                failed += not chk.holds
                row = (i, t, span, chk.holds, chk.exhaustive, chk.counterexample, chk.proven)
                digest.update(f"{row}\n".encode())
    return digest.hexdigest(), failed


def test_extension_checks_pinned():
    # fixed at an earlier revision: a changed verdict or counterexample must be deliberate
    assert extension_digest() == (EXTENSION_DIGEST, EXTENSION_FAILED)
    assert extension_digest(warm=True) == (EXTENSION_DIGEST, EXTENSION_FAILED)


def test_check_leaves_no_reference_cycle():
    # the cover search's recursive closure must not outlive the check, on a
    # cold level or on one that keeps its set-up, nor the window check's set-ups
    gc.collect()
    gc.disable()
    try:
        for i in range(20):
            h = random_hypergraph(3, 8, 0.8, Random(i))
            assert h.check_extension_property(3) == h.check_extension_property(3)
            assert h.check_window_extension(3, 4) == h.check_window_extension(3, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestExtensionWitness:
    def test_complete_least_witness(self):
        h = complete_hypergraph(3, 6)
        assert h.extension_witness([(0, 1), (2, 3)]) == 0

    def test_repetition_makes_zero_the_witness(self):
        # s = 0 repeats the listed vertex 0, so the least witness is 0 even
        # though the named uniform edge would suggest 2
        h = Hypergraph(3, 3, [(0, 1, 2)])
        assert h.extension_witness([(0, 1)]) == 0

    def test_tiny_graph_repetition_edges(self):
        # on 2 vertices with k = 3 every completion repeats an entry
        h = Hypergraph(3, 2)
        assert h.extension_witness([(0, 1)]) == 0

    def test_genuinely_absent(self):
        h = Hypergraph(3, 4)
        assert h.extension_witness([(0, 1), (2, 3)]) is None

    def test_empty_list_rejected(self):
        h = Hypergraph(3, 4)
        with pytest.raises(InputError):
            h.extension_witness([])

    @pytest.mark.parametrize("bad", [(9, 0), (0, -1), (0,), (0, 1, 2)])
    def test_every_tuple_checked(self, bad):
        # checked before the search, so also after tuples that leave no witness
        h = Hypergraph(3, 4)
        with pytest.raises(InputError):
            h.extension_witness([(0, 1), (2, 3), bad])

    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equality(self, seed, tup_seed):
        h = small_random(seed)
        rng = Random(tup_seed)
        t = rng.randint(1, 3)
        tuples = [
            tuple(rng.randrange(h.size) for _ in range(h.arity - 1))
            for _ in range(t)
        ]
        assert h.extension_witness(tuples) == naive_extension_witness(h, tuples)


class TestExtensionProperty:
    def test_complete_holds(self):
        h = complete_hypergraph(3, 5)
        for t in range(1, 5):
            assert h.check_extension_property(t).holds

    def test_empty_uniform_t1_holds_via_repetition(self):
        # any candidate among the listed vertices completes by repetition
        h = Hypergraph(3, 4)
        assert h.check_extension_property(1).holds
        assert naive_extension_property(h, 1)

    def test_one_uniform_edge_t2_still_holds(self):
        # the named edge {0,1,2} covers every disjoint pair of tuples
        h = Hypergraph(3, 4, [(0, 1, 2)])
        assert h.check_extension_property(2).holds
        assert naive_extension_property(h, 2)

    def test_genuine_failure(self):
        h = Hypergraph(3, 4)
        chk = h.check_extension_property(2)
        assert not chk.holds and chk.exhaustive
        assert chk.counterexample is not None
        assert h.extension_witness(chk.counterexample) is None
        assert not naive_extension_property(h, 2)

    def test_monotone_in_t(self):
        for seed in range(10):
            h = small_random(seed, size=4, p=0.7)
            held = [h.check_extension_property(t).holds for t in range(1, 5)]
            # once it fails it stays failed
            assert held == sorted(held, reverse=True)

    def test_oracle_equality_small(self):
        for seed in range(12):
            h = small_random(seed, arity=2, size=4, p=0.4)
            for t in (1, 2, 3):
                assert h.check_extension_property(t).holds == naive_extension_property(h, t)

    @given(
        st.sampled_from([(2, 6), (3, 3), (3, 4), (4, 3)]),
        st.sampled_from([0.3, 0.6, 0.85, 0.95]),
        st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_cover_search_matches_oracle(self, shape, p, seed):
        k, size = shape
        h = random_hypergraph(k, size, p, Random(seed))
        # the oracle walks (size^(k-1))^t choices: keep it to desk scale
        ts = [t for t in range(1, 5) if (size ** (k - 1)) ** t <= 20000]
        held = [naive_extension_property(h, t) for t in ts]
        for t, naive in zip(ts, held):
            chk = h.check_extension_property(t)
            assert chk.exhaustive and chk.holds == naive
            if naive:
                assert chk.counterexample is None and chk.proven == t
            else:
                # a smallest cover: every choice of fewer tuples has a witness
                assert 1 <= len(chk.counterexample) <= t
                assert naive_extension_witness(h, chk.counterexample) is None
                assert chk.proven == len(chk.counterexample) - 1
                assert chk.proven == 0 or naive_extension_property(h, chk.proven)
        for cap in ts:
            assert max_extension_arity(h, cap) == max(
                (t for t, naive in zip(ts, held) if t <= cap and naive), default=0
            )

    def test_sampled_arity_regression(self):
        # sampling once reported t = 7 here; these seven tuples share no witness
        h = random_hypergraph(3, 14, 0.95, Random(1))
        chk = h.check_extension_property(7)
        assert not chk.holds and chk.exhaustive
        assert chk.counterexample == (
            (2, 10), (3, 8), (4, 13), (5, 7), (5, 10), (8, 12), (10, 13)
        )
        assert naive_extension_witness(h, chk.counterexample) is None
        assert h.check_extension_property(6) == hypergraph.ExtensionCheck(True, True, None, 6)

    def test_maximal_complements_keep_a_check_under_the_node_bound(self):
        # offering every complement, not only the inclusion-maximal ones,
        # took this check from 226,157 nodes past the bound of 1,000,000
        h = random_hypergraph(3, 26, 0.95, Random(268))
        assert h.check_extension_property(8) == hypergraph.ExtensionCheck(True, True, None, 8)

    @given(st.integers(1, 12), st.lists(st.integers(0, 2**12 - 1), max_size=40, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_setup_keeps_the_inclusion_maximal_complements(self, size, masks):
        full = (1 << size) - 1
        masks = [m & full for m in masks]
        rows = [(m, (i,)) for i, m in enumerate(dict.fromkeys(m for m in masks if m != full))]
        ordered = list(rows)
        reach = hypergraph._reach(size, ordered)
        comps, tuples, supports, by_vertex = hypergraph._setup(size, ordered, None)
        every = [full ^ m for m, _ in sorted(rows, key=lambda row: row[0].bit_count())]
        assert [full ^ m for m, _ in ordered] == every
        assert comps == [c for c in every if not any(c != d and c & d == c for d in every)]
        assert reach[-1] == sum(c.bit_count() for c in every)
        assert by_vertex == [[i for i, c in enumerate(comps) if c >> v & 1] for v in range(size)]
        assert hypergraph._setup(size, ordered, size)[0] == every

    def test_node_bound_stop_flagged(self, monkeypatch):
        h = Hypergraph(3, 4)  # fails at t = 2 once the search may visit a node
        monkeypatch.setattr(hypergraph, "COVER_SEARCH_NODES", 0)
        chk = h.check_extension_property(2)
        assert chk.holds and not chk.exhaustive and chk.counterexample is None
        assert chk.proven == 1

    @given(
        st.integers(2, 4),
        st.integers(1, 8),
        st.sampled_from([0.3, 0.6, 0.85, 1.0]),
        st.integers(0, 2**31),
        st.lists(st.tuples(st.integers(1, 6), st.integers(-1, 3)), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_warm_level_answers_like_cold(self, arity, size, p, seed, calls):
        h = random_hypergraph(arity, size, p, Random(seed))
        width = arity - 1

        def mode(offset):  # no span, or a span in k-1..2(k-1)
            return None if offset < 0 else width + min(offset, width)

        def same_as_cold(t, span):
            chk = h.check_extension_property(t, span)
            assert chk == Hypergraph(arity, size, h.uniform_edges).check_extension_property(t, span)
            return chk

        # a witness mask holds its own tuple's vertices, so no one complement
        # covers: t = 1 ends at the reach bound and keeps that bound but no
        # set-up; the first search in a mode builds its set-up once, and
        # every later call in that mode reuses that same object
        modes = (None, mode(calls[0][1]))
        for span in modes:
            same_as_cold(1, span)
        assert not h._cover
        reach = {span: h._reach[span is None] for span in modes}
        kept = {}
        for t, offset in calls:
            span = mode(offset)
            same_as_cold(t, span)
            if not h._reach_proves(t, span):  # this call searched
                setup = h._cover[span is None]
                assert kept.setdefault(span is None, setup) is setup
        assert h._cover.keys() == kept.keys()
        assert all(h._reach[span is None] is bound for span, bound in reach.items())
        # a stop on a warm level is not kept: the next call searches in full
        t, span = calls[-1][0], mode(calls[-1][1])
        bound = hypergraph.COVER_SEARCH_NODES
        hypergraph.COVER_SEARCH_NODES = 0
        try:
            same_as_cold(t, span)
        finally:
            hypergraph.COVER_SEARCH_NODES = bound
        assert same_as_cold(t, span).exhaustive

    @given(
        st.sampled_from([(2, 6), (3, 5), (3, 6), (4, 5)]),
        st.sampled_from([0.3, 0.6, 0.85]),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_span_search_matches_family_walk(self, shape, p, seed):
        k, size = shape
        h = random_hypergraph(k, size, p, Random(seed))
        sets = list(itertools.combinations(range(size), k - 1))
        for span in range(k - 1, min(2 * (k - 1), size) + 1):
            # families of distinct sets on at most span vertices, smallest first
            fams = (
                fam for r in range(1, 5) for fam in itertools.combinations(sets, r)
                if len({v for tup in fam for v in tup}) <= span
            )
            least = next((len(f) for f in fams if naive_extension_witness(h, f) is None), None)
            for t in range(1, 5):
                chk = h.check_extension_property(t, span)
                assert chk.exhaustive
                assert chk.holds == (least is None or least > t)
                if not chk.holds:
                    assert len(chk.counterexample) == least
                    assert len({v for tup in chk.counterexample for v in tup}) <= span
                    assert naive_extension_witness(h, chk.counterexample) is None

    def test_span_cap_above_the_number_of_sets(self):
        # the six 2-sets' complements cover the vertices together, but a
        # family within 2 vertices holds one 2-set, which has a witness, so
        # at every cap the search ends where the sets run out
        h = Hypergraph(3, 4, [(1, 2, 3)])
        for t in (6, 7, 50):
            assert h.check_extension_property(t, 2) == hypergraph.ExtensionCheck(True, True, proven=t)

    @given(
        st.integers(2, 3),
        st.integers(1, 6),
        st.sampled_from([0.3, 0.6, 0.85, 0.95]),
        st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_reach_bound_is_sound(self, k, size, p, seed):
        h = random_hypergraph(k, size, p, Random(seed))
        tuples = list(itertools.product(range(size), repeat=k - 1))
        for t in (1, 2, 3):
            if h._reach_proves(t):
                # every choice of t tuples, up to order and repeats
                choices = itertools.combinations_with_replacement(tuples, t)
                assert all(naive_extension_witness(h, c) is not None for c in choices)
                assert h.check_extension_property(t) == hypergraph.ExtensionCheck(True, True, None, t)

    def test_reach_bound_proves_complete_levels(self):
        for k, size in ((2, 1), (2, 5), (3, 2), (3, 6), (4, 5)):
            h = complete_hypergraph(k, size)
            assert all(h._reach_proves(t) for t in (1, 2, 7, 100))

    def test_large_edgeless_level_answers_from_the_reach_bound(self):
        # no single complement covers, so t = 1 needs only the reach bound;
        # building the search's set-up first (per-vertex lists of about
        # size^2 entries in all) took 21 s here
        h = Hypergraph(2, 4000)
        start = time.perf_counter()
        assert h.check_extension_property(1) == hypergraph.ExtensionCheck(True, True, None, 1)
        assert time.perf_counter() - start < 2.0
        assert not h._cover

    def test_t_zero_rejected(self):
        with pytest.raises(InputError):
            Hypergraph(3, 4).check_extension_property(0)


def window_walk(h, tup, start):
    """tup's window replacements in product order: a vertex below start
    stays, any other runs over the vertices from max(start, 0) on."""
    lo = max(start, 0)
    return itertools.product(*((v,) if v < start else range(lo, h.size) for v in tup))


def naive_window_holds(h, t, start):
    """Walk every choice of t (k-1)-tuples (with repetition) and look for
    one with no common witness where some vertex forms an edge with a window
    replacement of each tuple, testing edges with is_edge alone."""
    tuples = list(itertools.product(range(h.size), repeat=h.arity - 1))
    for choice in itertools.combinations_with_replacement(tuples, t):
        if naive_extension_witness(h, choice) is None and any(
            all(any(h.is_edge((s,) + r) for r in window_walk(h, tup, start)) for tup in choice)
            for s in range(h.size)
        ):
            return False
    return True


def walked_window_mask(h, tup, start):
    """tup's window mask: the OR of the walked replacements' witness masks."""
    return functools.reduce(operator.or_, (h.witness_mask(r) for r in window_walk(h, tup, start)))


def walked_replacements(h, tuples, start):
    """Per tuple, the first walked replacement whose witness mask holds the
    least vertex the tuples' walked window masks share."""
    common = functools.reduce(operator.and_, (walked_window_mask(h, tup, start) for tup in tuples))
    w = (common & -common).bit_length() - 1
    return tuple(next(r for r in window_walk(h, tup, start) if h.witness_mask(r) >> w & 1) for tup in tuples)


def walked_setup_rows(h, start):
    """Per vertex w, the (mask, tuple) rows the window check offers its
    search, from walked window masks: each (k-1)-set whose window mask holds
    w and whose own mask is not full, the first set per mask."""
    full = (1 << h.size) - 1
    sets = [
        (h.witness_mask(tup), walked_window_mask(h, tup, start), tup)
        for tup in itertools.combinations(range(h.size), h.arity - 1)
    ]
    per_vertex = []
    for w in range(h.size):
        seen = {}
        for m, window, tup in sets:
            if window >> w & 1 and m != full:
                seen.setdefault(m, tup)
        per_vertex.append(list(seen.items()))
    return per_vertex


def walked_window_check(h, t, start):
    """check_window_extension with its window masks from the walk: the
    cover search over one set-up per distinct set of walked rows."""
    if start <= 0:
        return h.check_extension_property(t)
    if start >= h.size or h._reach_proves(t):
        return hypergraph.ExtensionCheck(True, True, proven=t)
    setups, searched = [], set()
    for rows in walked_setup_rows(h, start):
        if (key := frozenset(m for m, _ in rows)) not in searched:
            searched.add(key)
            setups.append((hypergraph._reach(h.size, rows), *hypergraph._setup(h.size, rows, None)))
    return h._cover_search(t, setups, None)


class TestWindowExtension:
    @given(
        st.integers(2, 3),
        st.integers(1, 5),
        st.sampled_from([0.3, 0.6, 0.85]),
        st.integers(0, 2**31),
        st.integers(1, 3),
        st.integers(-1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_walk_of_every_choice(self, arity, size, p, seed, t, start):
        h = random_hypergraph(arity, size, p, Random(seed))
        chk = h.check_window_extension(t, start)
        assert chk.exhaustive and chk.holds == naive_window_holds(h, t, start)
        if start <= 0:
            assert chk == h.check_extension_property(t)
        if not chk.holds:
            ce = chk.counterexample
            assert len(ce) <= t and naive_extension_witness(h, ce) is None
            # smallest over every vertex: each choice of fewer tuples passes
            assert len(ce) == 1 or naive_window_holds(h, len(ce) - 1, start)
            moved = h._window_check(t, start)[1]
            assert moved == walked_replacements(h, ce, start)
            assert naive_extension_witness(h, moved) is not None
            for tup, r in zip(ce, moved, strict=True):
                assert all(u == v if v < start else u >= start for v, u in zip(tup, r, strict=True))

    @given(
        st.integers(2, 4),
        st.integers(1, 8),
        st.sampled_from([0.15, 0.3, 0.5, 0.8]),
        st.integers(0, 2**31),
        st.integers(1, 6),
        st.sampled_from([None, 40]),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_forms_match_the_walk(self, arity, size, p, seed, t, bound):
        # at every start, the check, node count included, is the one its
        # search gives on walked window masks, and its replacements are the
        # walked ones
        h = random_hypergraph(arity, size, p, Random(seed))
        with pytest.MonkeyPatch.context() as m:
            if bound is not None:
                m.setattr(hypergraph, "COVER_SEARCH_NODES", bound)
            for start in range(-1, size + 2):
                chk, moved = pickle.loads(pickle.dumps(h))._window_check(t, start)
                assert chk == walked_window_check(pickle.loads(pickle.dumps(h)), t, start)
                assert chk == pickle.loads(pickle.dumps(h)).check_window_extension(t, start)
                assert moved == (None if chk.holds else walked_replacements(h, chk.counterexample, start))

    @pytest.mark.parametrize(
        "arity, size, seed, t, start, ce, moved",
        [
            # k = 2, no fixed part: (1,) may move to any vertex from 1 on,
            # and 2 is the least whose mask holds the shared vertex
            (2, 3, 7, 2, 1, ((0,), (1,)), ((0,), (2,))),
            # (0, 3) keeps 0 and moves 3; both of (1, 2) lie past start, so
            # its first replacement moves both to start, a repeat
            (3, 4, 5, 2, 1, ((0, 3), (1, 2)), ((0, 1), (1, 1))),
            # only the last vertex past start: (1, 2) ends at 3, not at start
            (3, 4, 7, 3, 2, ((0, 1), (0, 2), (1, 2)), ((0, 1), (0, 2), (1, 3))),
            # start <= 0: every window is full, so every replacement is all zeros
            (3, 3, 0, 3, 0, ((0, 1), (0, 2), (1, 2)), ((0, 0), (0, 0), (0, 0))),
            (2, 2, 0, 2, -1, ((0,), (1,)), ((0,), (0,))),
        ],
    )
    def test_closed_form_cases_pinned(self, arity, size, seed, t, start, ce, moved):
        h = random_hypergraph(arity, size, 0.3, Random(seed))
        assert walked_replacements(h, ce, start) == moved
        assert walked_window_check(h, t, start) == hypergraph.ExtensionCheck(False, True, ce, len(ce) - 1)
        assert h._window_check(t, start) == (hypergraph.ExtensionCheck(False, True, ce, len(ce) - 1), moved)

    def test_start_at_the_last_vertex_holds(self):
        # at start = size - 1 a set's one window replacement is itself, so
        # tuples with no common witness never have window masks sharing one
        for seed in range(10):
            h = random_hypergraph(3, 6, 0.3, Random(seed))
            for tup in itertools.combinations(range(6), 2):
                assert walked_window_mask(h, tup, 5) == h.witness_mask(tup)
            assert h._window_check(36, 5) == (hypergraph.ExtensionCheck(True, True, None, 36), None)

    def test_smallest_cover_over_every_vertex(self):
        # the first vertex with a cover gives three tuples, (2,4) (3,5) (4,5),
        # and a later one two; no single tuple lacks a witness
        h = random_hypergraph(3, 8, 0.5, Random(1))
        chk = h.check_window_extension(4, 4)
        assert chk == hypergraph.ExtensionCheck(False, True, ((2, 3), (4, 5)), 1)
        assert not naive_window_holds(h, 2, 4) and naive_window_holds(h, 1, 4)

    def test_one_node_bound_for_every_vertex(self, monkeypatch):
        # one search over three vertex set-ups: at t = 2 their size-2
        # passes visit 6, 3 and 4 nodes, 13 in all, so a bound of 13 lets it
        # finish and one of 12 stops it, though no one set-up reaches 12;
        # t = 1 stays proven, since a tuple's own vertices witness it.  A
        # fourth vertex's tuples share a witness, so it gets no set-up
        h = random_hypergraph(3, 6, 0.6, Random(5))
        built = []
        setup = hypergraph._setup

        def spy(size, rows, span):
            built.append(rows)
            return setup(size, rows, span)

        monkeypatch.setattr(hypergraph, "_setup", spy)
        assert h.check_window_extension(2, 4) == hypergraph.ExtensionCheck(True, True, None, 2)
        assert len(built) == 3
        monkeypatch.setattr(hypergraph, "COVER_SEARCH_NODES", 13)
        assert h.check_window_extension(2, 4) == hypergraph.ExtensionCheck(True, True, None, 2)
        monkeypatch.setattr(hypergraph, "COVER_SEARCH_NODES", 12)
        assert h.check_window_extension(2, 4) == hypergraph.ExtensionCheck(True, False, None, 1)

    def test_set_ups_built_only_as_the_search_reaches_them(self, monkeypatch):
        # at start 5 each vertex's window tuples hold distinct masks; vertex
        # 3's set-up is the first with two disjoint masks, a size-2 cover,
        # so the search ends there and builds none of vertices 4-6
        h = random_hypergraph(3, 7, 0.6, Random(0))
        keys = [frozenset(m for m, _ in rows) for rows in walked_setup_rows(h, 5)]
        assert len(set(keys)) == h.size
        disjoint = [any(a & b == 0 for a, b in itertools.combinations(key, 2)) for key in keys]
        assert disjoint.index(True) == 3
        built = []
        setup = hypergraph._setup

        def spy(size, rows, span):
            built.append(frozenset(m for m, _ in rows))
            return setup(size, rows, span)

        monkeypatch.setattr(hypergraph, "_setup", spy)
        chk = h.check_window_extension(3, 5)
        assert not chk.holds and len(chk.counterexample) == 2
        assert built == keys[:4]

    def test_no_set_up_for_a_vertex_whose_tuples_cannot_cover(self, monkeypatch):
        # edgeless, k = 2: a vertex w below start lies in the window mask of
        # (w,) alone, so only w = start, whose masks are the disjoint {v}
        # for v >= start, gets a set-up, and its first two complements cover
        h = Hypergraph(2, 12)
        built = []
        setup = hypergraph._setup

        def spy(size, rows, span):
            built.append(rows)
            return setup(size, rows, span)

        monkeypatch.setattr(hypergraph, "_setup", spy)
        for start in range(1, 11):
            built.clear()
            chk, moved = h._window_check(2, start)
            assert chk == hypergraph.ExtensionCheck(False, True, ((start,), (start + 1,)), 1)
            assert moved == walked_replacements(h, chk.counterexample, start)
            assert len(built) == 1

    @given(
        st.integers(2, 4),
        st.integers(1, 7),
        st.sampled_from([0.3, 0.6, 0.85]),
        st.integers(0, 2**31),
        st.integers(1, 6),
        st.integers(-1, 7),
        st.sampled_from([None, 5, 10, 20, 40]),
    )
    # within 5 nodes the uncapped check finds two tuples in its size-2
    # pass, before any size-3 search could stop it, so the check at cap 2
    # finds the same two
    @example(2, 6, 0.3, 8, 2, 3, 5)
    @settings(max_examples=200, deadline=None)
    def test_smaller_caps_read_down(self, arity, size, p, seed, t, start, bound):
        # a check at cap t answers what the uncapped check's result gives at
        # t, the node bound included: its counterexample of c tuples when
        # t >= c, its stop when it stopped and t > proven, else a proof of t
        h = random_hypergraph(arity, size, p, Random(seed))
        with pytest.MonkeyPatch.context() as m:
            if bound is not None:
                m.setattr(hypergraph, "COVER_SEARCH_NODES", bound)
            top = pickle.loads(pickle.dumps(h)).check_window_extension(size ** (arity - 1), start)
            chk = pickle.loads(pickle.dumps(h)).check_window_extension(t, start)
        if top.counterexample is not None:
            assert top.exhaustive and top.proven == len(top.counterexample) - 1
        if top.counterexample is not None and t >= len(top.counterexample) or not top.exhaustive and t > top.proven:
            assert chk == top
        else:
            assert chk == hypergraph.ExtensionCheck(True, True, proven=t)


class TestKeptAgreementChecks:
    """Window checks on a level that keeps its completion table, reach
    bound, set-ups and witness masks from earlier checks."""

    @given(
        st.integers(2, 4),
        st.integers(1, 7),
        st.sampled_from([0.3, 0.6, 0.85]),
        st.integers(0, 2**31),
        st.lists(st.tuples(st.integers(1, 5), st.integers(-1, 7)), min_size=1, max_size=10),
        st.sampled_from([None, 5, 10, 20, 40]),
    )
    # within 5 nodes the window check at start 3 finds two tuples at cap
    # 2, and at cap 3 it finds them too, in its size-2 pass, before a
    # size-3 search could stop it
    @example(2, 6, 0.3, 8, [(2, 3), (3, 3)], 5)
    # within 10 nodes the plain check proves cap 3, but the window check at
    # start 1 and cap 3 stops
    @example(2, 5, 0.6, 1, [(3, 0), (3, 1)], 10)
    @settings(max_examples=200, deadline=None)
    def test_interleaved_queries_match_a_cold_copy(self, arity, size, p, seed, queries, bound):
        # whatever ran before, each answer is the check's on a cold copy,
        # and so are the window replacements; a small node bound stops some
        # checks, the cold ones among them
        h = random_hypergraph(arity, size, p, Random(seed))
        with pytest.MonkeyPatch.context() as m:
            if bound is not None:
                m.setattr(hypergraph, "COVER_SEARCH_NODES", bound)
            for t, start in queries:
                chk, moved = h._window_check(t, start)
                cold = pickle.loads(pickle.dumps(h))
                assert chk == cold.check_window_extension(t, start)
                assert moved == (None if chk.holds else walked_replacements(cold, chk.counterexample, start))

    def test_plain_counterexample_answers_every_cap(self):
        # the plain search's first smallest cover does not depend on the cap
        h = random_hypergraph(3, 8, 0.5, Random(1))
        chk, moved = h._window_check(5, 0)
        assert not chk.holds and chk.exhaustive and len(chk.counterexample) < 5
        assert moved == walked_replacements(h, chk.counterexample, 0)
        for t in range(len(chk.counterexample), 12):
            assert h._window_check(t, -1) == (chk, moved)
        assert h._window_check(1, 0) == (hypergraph.ExtensionCheck(True, True, None, 1), None)


class TestConstruction:
    def test_bad_uniform_edge_rejected(self):
        with pytest.raises(InputError):
            Hypergraph(3, 4, [(0, 1)])
        with pytest.raises(InputError):
            Hypergraph(3, 4, [(0, 1, 4)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, 2), (1, 2, 4), (0, 0, 1)], r"^uniform edge \[1, 2, 4\] has a vertex outside 0\.\.3$"),
            ([(0, 1, 2), (-1, 0, 1), (0, 0, 1)], r"^uniform edge \[-1, 0, 1\] has a vertex outside 0\.\.3$"),
            ([(0, 1, 2), (0, 0, 1), (1, 2, 4)], r"^uniform edge \[0, 1\] does not have 3 distinct vertices$"),
            ([(0, 1, 2), (0, 1, 2, 3), (-1, 0, 1)], r"^uniform edge \[0, 1, 2, 3\] does not have 3 distinct vertices$"),
        ],
    )
    def test_first_bad_edge_in_input_order_named(self, edges, message):
        with pytest.raises(InputError, match=message):
            Hypergraph(3, 4, edges)

    def test_edge_containers_give_equal_levels(self):
        edges = [(0, 1, 2), (1, 2, 3), (0, 2, 3)]
        levels = [
            Hypergraph(3, 4, (tuple(e) for e in edges)),  # one-pass generator
            Hypergraph(3, 4, list(map(list, edges))),
            Hypergraph(3, 4, tuple(edges)),
            Hypergraph(3, 4, frozenset(map(frozenset, edges))),
            Hypergraph(3, 4, [e[::-1] for e in edges] + edges),  # permuted repeats
        ]
        assert all(h == levels[0] for h in levels)
        assert levels[0].uniform_edges == frozenset(map(frozenset, edges))

    def test_edgeless_level_builds(self):
        for h in (Hypergraph(3, 1), Hypergraph(3, 4, []), Hypergraph(2, 5, iter(()))):
            assert h.uniform_edges == frozenset()
        assert not Hypergraph(3, 4).is_edge((0, 1, 2))

    def test_immutable(self):
        h = Hypergraph(3, 4)
        with pytest.raises(AttributeError):
            h.size = 5
        with pytest.raises(AttributeError):
            h._cover = {}

    def test_random_reproducible(self):
        a = random_hypergraph(3, 5, 0.5, Random(9))
        b = random_hypergraph(3, 5, 0.5, Random(9))
        assert a == b

    def test_pickle_roundtrip(self):
        import pickle

        h = small_random(3)
        assert pickle.loads(pickle.dumps(h)) == h

    def test_warm_level_pickles_to_an_equal_level(self):
        import pickle

        h = random_hypergraph(3, 7, 0.8, Random(4))
        checks = [(t, span) for t in range(1, 6) for span in (None, 4)]
        first = [h.check_extension_property(t, span) for t, span in checks]
        assert set(h._cover) == {True, False}  # both modes searched
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and hash(copy) == hash(h)
        assert [copy.check_extension_property(t, span) for t, span in checks] == first

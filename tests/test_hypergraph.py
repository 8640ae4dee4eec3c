import gc
import hashlib
import itertools
from random import Random

import pytest
from hypothesis import given, settings
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

    @given(
        st.integers(2, 4),
        st.integers(1, 6),
        st.floats(0.05, 1.0),
        st.integers(0, 2**31),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bulk_masks_match_edge_scans(self, arity, size, p, seed, warm):
        # masks read off the completion table must agree with direct is_edge
        # scans in product order: from a cold cache, from one partly filled
        # by witness_mask, and after extension checks, which leave the memo
        # alone
        tuples = list(itertools.product(range(size), repeat=arity - 1))
        ref = random_hypergraph(arity, size, p, Random(seed))
        scans = [sum(1 << s for s in range(size) if ref.is_edge((s,) + tup)) for tup in tuples]
        cold, warmed, checked = (random_hypergraph(arity, size, p, Random(seed)) for _ in range(3))
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
    # cold level or on one that keeps its set-up
    gc.collect()
    gc.disable()
    try:
        for i in range(20):
            h = random_hypergraph(3, 8, 0.8, Random(i))
            assert h.check_extension_property(3) == h.check_extension_property(3)
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
        # covers and t = 1 ends at the reach bound: each mode's set-up is
        # begun before the first call that searches completes it
        for span in (None, mode(calls[0][1])):
            same_as_cold(1, span)
            assert h._cover[span is None][-1] is None
        for t, offset in calls:
            same_as_cold(t, mode(offset))
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

    def test_t_zero_rejected(self):
        with pytest.raises(InputError):
            Hypergraph(3, 4).check_extension_property(0)


def naive_window_holds(h, t, start):
    """Walk every choice of t (k-1)-tuples (with repetition) and look for
    one with no common witness where some vertex forms an edge with a window
    replacement of each tuple, testing edges with is_edge alone."""
    lo = max(start, 0)

    def window(tup):
        return itertools.product(*((v,) if v < start else range(lo, h.size) for v in tup))

    tuples = list(itertools.product(range(h.size), repeat=h.arity - 1))
    for choice in itertools.combinations_with_replacement(tuples, t):
        if naive_extension_witness(h, choice) is None and any(
            all(any(h.is_edge((s,) + r) for r in window(tup)) for tup in choice)
            for s in range(h.size)
        ):
            return False
    return True


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
            moved = h._window_replacements(ce, start)
            assert naive_extension_witness(h, moved) is not None
            for tup, r in zip(ce, moved, strict=True):
                assert all(u == v if v < start else u >= start for v, u in zip(tup, r, strict=True))

    def test_one_node_bound_for_every_vertex(self, monkeypatch):
        # four vertex searches visit 6, 0, 3 and 4 nodes: a bound of 12 stops
        # the last one, though no one search reaches it
        h = random_hypergraph(3, 6, 0.6, Random(5))
        counters = []
        search = Hypergraph._cover_search

        def spy(self, t, setup, span, nodes):
            counters.append(nodes)
            return search(self, t, setup, span, nodes)

        monkeypatch.setattr(Hypergraph, "_cover_search", spy)
        assert h.check_window_extension(2, 4) == hypergraph.ExtensionCheck(True, True, None, 2)
        assert len(counters) == 4 and all(c is counters[0] for c in counters)
        assert counters[0] == [13]
        monkeypatch.setattr(hypergraph, "COVER_SEARCH_NODES", 12)
        assert h.check_window_extension(2, 4) == hypergraph.ExtensionCheck(True, False)


class TestConstruction:
    def test_bad_uniform_edge_rejected(self):
        with pytest.raises(InputError):
            Hypergraph(3, 4, [(0, 1)])
        with pytest.raises(InputError):
            Hypergraph(3, 4, [(0, 1, 4)])

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
        assert all(setup[-1] is not None for setup in h._cover.values())  # both modes searched
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and hash(copy) == hash(h)
        assert [copy.check_extension_property(t, span) for t, span in checks] == first

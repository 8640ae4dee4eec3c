"""The predicate counts a Template keeps (Template._counts_to) against a
sum-of-products reference: every signature-index formula that reads them,
cold and warmed in drawn call orders, and the slot's invisibility to
equality, hashing and pickling."""

import pickle
from itertools import combinations
from math import inf, prod

import pytest
from hypothesis import given, settings, strategies as st

from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.oracle import naive_f_signature
from hypertemplate.signature import (
    ParamType,
    _window_start,
    analytic_f_bound,
    analytic_g_lower,
    analytic_g_table,
    coverage_level,
    equality_patterns,
    f_signature,
    first_difference,
    predicate_count,
)
from hypertemplate.template import TailPolicy, Template, complete_template


def ref_sizes(t, depth):
    return [t.level_size(l) for l in range(depth)]


def ref_count(t, depth):
    """Predicates of length 1..depth: a sum of products of level sizes."""
    sizes = ref_sizes(t, depth)
    return sum(prod(sizes[:j]) for j in range(1, depth + 1))


def ref_coverage(t, n):
    L = 0
    while ref_count(t, L + 1) <= n - 1:
        L += 1
    return L


def ref_window_start(t, n, lc):
    sizes = ref_sizes(t, lc + 1)
    return n - 1 - ref_count(t, lc) - (prod(sizes[:lc]) - 1) * sizes[lc]


def ref_g_lower(t, n):
    if all(len(h.uniform_edges) == len(list(combinations(range(h.size), t.arity))) for h, _f in t.levels):
        return inf
    p = t.prefix_len
    return min(t.f_value(l) for l in range(min(ref_coverage(t, n), p), p + 1))


def ref_first_difference(t, a, b, depth):
    va, vb = (naive_f_signature(t, pt, depth).values for pt in (a, b))
    return min([i for i, (x, y) in enumerate(zip(va, vb)) if x != y] + [depth])


@st.composite
def templates(draw):
    """complete_template (level 0 of size 1) or k in 2..3 with one to three
    stored levels of sizes 1..5, random edges and f, and tail growth 1..3."""
    if draw(st.booleans()) and draw(st.booleans()):
        return complete_template(draw(st.integers(2, 3)), draw(st.integers(1, 3)))
    k = draw(st.integers(2, 3))
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 5))
        tuples = list(combinations(range(size), k))
        edges = draw(st.lists(st.sampled_from(tuples), unique=True)) if tuples else []
        levels.append((Hypergraph(k, size, edges), draw(st.integers(1, size))))
    return Template(k, levels, TailPolicy("complete_growing", draw(st.integers(1, 3))))


def _ptype(draw, t, length, eq):
    stem = st.tuples(*(st.integers(0, t.level_size(l) - 1) for l in range(length)))
    by_class = {c: draw(stem) for c in sorted(set(eq))}
    return ParamType(stems=tuple(by_class[c] for c in eq), equality=eq)


@st.composite
def call_orders(draw):
    """A template and a list of calls on it, each kind at values from 0 to
    past the stored prefix, in drawn order, so each formula runs on cold
    counts in some draws and on counts others grew in the rest."""
    t = draw(templates())
    past = ref_count(t, t.prefix_len + 2) + 3
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["count", "coverage", "window", "table", "g_lower", "f_bound", "signature", "first_difference"]))
        if kind == "count":
            calls.append((kind, draw(st.integers(0, t.prefix_len + 3))))
        elif kind in ("coverage", "window", "table", "g_lower"):
            calls.append((kind, draw(st.integers(0, past))))
        elif kind == "f_bound":
            calls.append((kind, draw(st.integers(1, 6))))
        else:
            depth = draw(st.integers(1, t.prefix_len + 2))
            eq = draw(st.sampled_from(equality_patterns(t.arity - 1)))
            calls.append((kind, (depth, _ptype(draw, t, depth, eq), _ptype(draw, t, depth, eq))))
    return t, calls


class TestKeptLayout:
    @settings(max_examples=300, deadline=None)
    @given(call_orders())
    def test_every_reader_matches_the_reference(self, case):
        t, calls = case
        for kind, arg in calls:
            if kind == "count":
                assert predicate_count(t, arg) == ref_count(t, arg)
            elif kind == "coverage":
                assert coverage_level(t, arg) == ref_coverage(t, arg)
            elif kind == "window":
                lc = ref_coverage(t, arg)
                assert _window_start(t, arg, lc) == ref_window_start(t, arg, lc)
            elif kind == "table":
                assert analytic_g_table(t, arg) == [ref_g_lower(t, n) for n in range(arg + 1)]
            elif kind == "g_lower":
                assert analytic_g_lower(t, arg) == ref_g_lower(t, arg)
            elif kind == "f_bound":
                assert analytic_f_bound(t, arg) == ref_count(t, t.stabilization_level(arg)) + 1
            elif kind == "signature":
                depth, a, _b = arg
                assert f_signature(t, a, depth) == naive_f_signature(t, a, depth)
            else:
                depth, a, b = arg
                assert first_difference(t, a, b, depth) == ref_first_difference(t, a, b, depth)
        # the counts grow level by level and hold nothing but the reference
        assert t._counts == [ref_count(t, d) for d in range(len(t._counts))]

    def test_counts_grow_only_as_far_as_asked(self):
        t = Template(2, [(Hypergraph(2, 3), 1)], TailPolicy("complete_growing", 2))
        assert t._counts == [0]
        assert predicate_count(t, 0) == 0 and t._counts == [0]
        assert predicate_count(t, 2) == 3 + 3 * 5 and t._counts == [0, 3, 18]
        # index 18 is the last of length 2, so covering n = 19 needs length 3
        assert coverage_level(t, 19) == 2 and t._counts == [0, 3, 18, 18 + 15 * 7]
        assert predicate_count(t, 1) == 3 and len(t._counts) == 4

    def test_n_zero_and_a_level_of_size_one(self):
        t = complete_template(2, 1)  # sizes 1, 2, 3, ...
        assert [coverage_level(t, n) for n in range(6)] == [0, 0, 1, 1, 2, 2]
        assert [_window_start(t, n, coverage_level(t, n)) for n in range(4)] == [-1, 0, 0, 1]
        assert analytic_g_table(t, 0) == [inf]
        t = Template(2, [(Hypergraph(2, 1), 1), (Hypergraph(2, 2), 1)])
        assert analytic_g_table(t, 0) == [1] and analytic_g_lower(t, 0) == 1

    def test_g_table_rejects_negative_n_max(self):
        for t in (complete_template(2, 1), Template(2, [(Hypergraph(2, 2), 1)])):
            with pytest.raises(InputError, match="^need n_max >= 0, got -1$"):
                analytic_g_table(t, -1)

    def test_equality_hash_and_pickling_ignore_the_kept_values(self):
        warm = Template(3, [(Hypergraph(3, 4, [(0, 1, 2)]), 1)] * 2, TailPolicy("complete_growing", 2))
        cold = Template(3, warm.levels, warm.tail)
        predicate_count(warm, 6)
        warm.is_complete()
        assert warm._counts != cold._counts and warm._complete is False and cold._complete is None
        assert warm == cold and hash(warm) == hash(cold)
        loaded = pickle.loads(pickle.dumps(warm))
        assert loaded == warm and hash(loaded) == hash(warm)
        assert loaded._counts == [0] and loaded._complete is None
        for name in ("_counts", "_complete"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(warm, name, None)

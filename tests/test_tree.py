from math import prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertemplate.errors import InputError, PreconditionError
from hypertemplate.hypergraph import Hypergraph, complete_hypergraph, random_hypergraph
from hypertemplate.oracle import naive_edge_partners
from hypertemplate.template import (
    TailPolicy,
    Template,
    complete_template,
    random_template,
    validate,
)
from hypertemplate.tree import (
    complete_to_leaf,
    einfty_prefix,
    enumerate_edge_partners,
    extend_canonically,
    in_tree,
)


def two_edge_template():
    # k = 3, one named edge per stored level, the rest repetition-only
    h0 = Hypergraph(3, 3, [(0, 1, 2)])
    h1 = Hypergraph(3, 6, [(3, 4, 5)])
    return Template(3, [(h0, 1), (h1, 1)], TailPolicy("complete_growing", 1))


class TestInTree:
    def test_empty_stem(self):
        assert in_tree(complete_template(3, 2), ())

    def test_growing_sizes(self):
        t = complete_template(3, 4)
        assert in_tree(t, (0, 1, 2))
        assert not in_tree(t, (0, 5))

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(1, 3),
        st.lists(st.integers(-1, 12), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_tail_sizes_grow_by_the_tail_growth(self, prefix, growth, stem):
        # past the stored prefix each level is growth larger than the one before
        t = Template(2, [(Hypergraph(2, n), 1) for n in prefix], TailPolicy("complete_growing", growth))
        sizes = list(prefix)
        while len(sizes) < len(stem) + 2:
            sizes.append(sizes[-1] + growth)
        assert [t.level_size(n) for n in range(len(sizes))] == sizes
        assert in_tree(t, stem) == all(0 <= v < n for v, n in zip(stem, sizes))


class TestEinftyPrefix:
    def test_named_edges_both_levels(self):
        t = two_edge_template()
        assert einfty_prefix(t, [(0, 3), (1, 4), (2, 5)])

    def test_repetition_edges(self):
        t = two_edge_template()
        assert einfty_prefix(t, [(0, 1), (1, 0), (2, 0)])

    def test_single_level_failure(self):
        t = two_edge_template()
        assert not einfty_prefix(t, [(0, 3), (1, 4), (2, 0)])

    def test_permutation_invariant(self):
        t = two_edge_template()
        stems = [(0, 3), (1, 4), (2, 5)]
        assert einfty_prefix(t, stems[::-1]) == einfty_prefix(t, stems)

    def test_length_mismatch_rejected(self):
        t = two_edge_template()
        with pytest.raises(InputError):
            einfty_prefix(t, [(0,), (1, 4), (2, 5)])

    def test_wrong_stem_count_rejected(self):
        t = two_edge_template()
        with pytest.raises(InputError):
            einfty_prefix(t, [(0,), (1,)])


class TestCompleteToLeaf:
    def test_complete_template_appends_zeros(self):
        t = complete_template(3, 3)
        cons = [((0, 0, 0, 0, 0), (0, 1, 1, 2, 3))]
        out = complete_to_leaf(t, (0,), cons, 5)
        assert out == (0, 0, 0, 0, 0)

    def test_no_constraints_pads_zeros(self):
        t = complete_template(3, 2)
        assert complete_to_leaf(t, (0, 1), [], 5) == (0, 1, 0, 0, 0)

    def test_postcheck_einfty_on_random_template(self):
        rng = Random(4)
        t = random_template(3, [4, 4, 4], 0.9, [2, 2, 2], seed=4)
        assert validate(t, 3).valid
        target = 6
        for _ in range(30):
            cons = [
                tuple(
                    tuple(rng.randrange(t.level_size(n)) for n in range(target))
                    for _ in range(2)
                )
                for _ in range(2)
            ]
            # grow a nu satisfying the hypothesis level by level
            nu = []
            ok = True
            for n in range(t.stabilization_level(2) + 1):
                h = t.level_hypergraph(n)
                picks = [
                    s
                    for s in range(h.size)
                    if all(h.is_edge((s,) + tuple(c[n] for c in tup)) for tup in cons)
                ]
                if not picks:
                    ok = False
                    break
                nu.append(rng.choice(picks))
            if not ok:
                continue
            out = complete_to_leaf(t, tuple(nu), cons, target)
            assert len(out) == target and out[: len(nu)] == tuple(nu)
            for tup in cons:
                trimmed = [s[:target] for s in tup]
                assert einfty_prefix(t, [out] + trimmed)

    def test_hypothesis_violation_names_level(self):
        t = Template(3, [(Hypergraph(3, 3), 1)], TailPolicy("complete_growing", 1))
        cons = [((1, 0, 0), (2, 0, 0))]
        with pytest.raises(PreconditionError, match="level 0"):
            complete_to_leaf(t, (0,), cons, 3)

    def test_short_nu_rejected(self):
        t = complete_template(3, 4)
        cons = [((0, 0, 0), (0, 1, 1)), ((0, 0, 0), (0, 1, 2))]
        # stabilization level for 2 constraints is 1, so lgn(nu) must be >= 2
        with pytest.raises(PreconditionError):
            complete_to_leaf(t, (0,), cons, 3)

    def test_target_shorter_than_nu_rejected(self):
        t = complete_template(3, 4)
        with pytest.raises(InputError):
            complete_to_leaf(t, (0, 0, 0), [], 2)


class TestExtendCanonically:
    def test_pads_with_zeros(self):
        t = complete_template(3, 2)
        assert extend_canonically(t, (0, 1), 4) == (0, 1, 0, 0)

    def test_long_enough_unchanged(self):
        t = complete_template(3, 3)
        assert extend_canonically(t, (0, 1, 2), 2) == (0, 1, 2)


class TestEnumerateEdgePartners:
    def test_complete_k2_all_partners(self):
        h0 = complete_hypergraph(2, 2)
        h1 = complete_hypergraph(2, 2)
        t = Template(2, [(h0, 2), (h1, 2)], TailPolicy("complete_growing", 1))
        assert enumerate_edge_partners(t, (0, 0), 2) == 4

    def test_repetition_only_level(self):
        t = Template(2, [(Hypergraph(2, 2), 1)], TailPolicy("complete_growing", 1))
        # sigma = (0) repeats rho(0); sigma = (1) would need a uniform edge
        assert enumerate_edge_partners(t, (0,), 1) == 1

    def test_monotone_under_depth(self):
        t = random_template(2, [3, 3, 3], 0.6, [1, 1, 1], seed=6)
        for d in range(1, 3):
            shallow = enumerate_edge_partners(t, (0, 0, 0), d)
            deep = enumerate_edge_partners(t, (0, 0, 0), d + 1)
            # each deep partner projects to a qualifying shallow one
            assert deep <= shallow * t.level_size(d)

    @given(
        st.integers(2, 4),
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.floats(0.1, 1.0),
        st.integers(0, 2**31),
        st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_oracle(self, k, sizes, p, seed, tail):
        levels = [(random_hypergraph(k, n, p, Random(seed + i)), 1) for i, n in enumerate(sizes)]
        t = Template(k, levels, TailPolicy("complete_growing", 1))
        # depths reach past the stored prefix into complete tail levels
        rng = Random(seed)
        rho = tuple(rng.randrange(t.level_size(n)) for n in range(len(sizes) + tail))
        for depth in range(len(rho) + 1):
            if prod(t.level_size(n) for n in range(depth)) ** (k - 1) <= 5000:
                assert enumerate_edge_partners(t, rho, depth) == naive_edge_partners(t, rho, depth)

    def test_depth_beyond_stem_rejected(self):
        t = complete_template(2, 2)
        with pytest.raises(InputError):
            enumerate_edge_partners(t, (0,), 2)

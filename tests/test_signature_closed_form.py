"""The closed-form signature against the enumeration oracle, and the
shared level scan against the checked type decision and its oracle."""

from itertools import combinations
from math import prod
from random import Random

from hypothesis import given, settings, strategies as st

from hypertemplate.hypergraph import Hypergraph
from hypertemplate.oracle import brute_force_positive_type, naive_f_signature
from hypertemplate.signature import ParamType, equality_patterns, family_consistent, f_signature
from hypertemplate.template import TailPolicy, Template
from hypertemplate.tree import _scan_levels
from hypertemplate import m_star
from hypertemplate.typecheck import PositiveTypeSpec, decide_positive_type


@st.composite
def typed_signature_cases(draw):
    """A template (k in 2..4, stored level sizes 1..5, any tail growth), a
    parameter type whose stems may reach past the stored prefix and whose
    equality pattern may merge variables, and a depth <= the stem length."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    growth = draw(st.integers(1, 2))
    t = Template(k, [(Hypergraph(k, s), 1) for s in sizes], TailPolicy("complete_growing", growth))
    stem_len = draw(st.integers(1, 5))
    eq = draw(st.sampled_from(equality_patterns(k - 1)))
    stem = st.tuples(*(st.integers(0, t.level_size(l) - 1) for l in range(stem_len)))
    by_class = {c: draw(stem) for c in sorted(set(eq))}
    ptype = ParamType(stems=tuple(by_class[c] for c in eq), equality=eq)
    depth = draw(st.integers(1, stem_len))
    return t, ptype, depth


class TestClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(typed_signature_cases())
    def test_matches_enumeration(self, case):
        t, ptype, depth = case
        assert f_signature(t, ptype, depth) == naive_f_signature(t, ptype, depth)

    def test_sparse(self):
        t = Template(3, [(Hypergraph(3, 4), 1)] * 3)
        sig = f_signature(t, ParamType(stems=((1, 2, 3), (1, 0, 0))), 3)
        nonzero = {i: v for i, v in enumerate(sig.values) if v}
        # level 0: prefix 1 at 1 + 1; level 1: 1 + 4 + rank(1, x);
        # level 2: 1 + 4 + 16 + rank(1, x, y)
        assert nonzero == {2: 0b11, 5 + 6: 0b01, 5 + 4: 0b10, 21 + 27: 0b01, 21 + 16: 0b10}


@st.composite
def sampled_families(draw):
    """A template (k in 2..4, one to three stored levels of sizes 2..4 with
    random uniform edges and any declared f, any tail growth) and s in 1..3
    parameter tuples of seeded random stems, at a stem depth of 1..5: below
    m* + 1 or past the stored prefix as it falls."""
    k = draw(st.integers(2, 4))
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(2, 4))
        tuples = list(combinations(range(size), k))
        edges = draw(st.lists(st.sampled_from(tuples), unique=True)) if tuples else []
        levels.append((Hypergraph(k, size, edges), draw(st.integers(1, size))))
    t = Template(k, levels, TailPolicy("complete_growing", draw(st.integers(1, 2))))
    sizes = [t.level_size(l) for l in range(draw(st.integers(1, 5)))]
    rng = Random(draw(st.integers(0, 2**32)))
    count = draw(st.integers(1, 3))
    return t, tuple(tuple(tuple(rng.randrange(m) for m in sizes) for _ in range(k - 1)) for _ in range(count))


class TestAgreementShortcuts:
    @settings(max_examples=300, deadline=None)
    @given(sampled_families())
    def test_scan_matches_checked_path(self, case):
        t, family = case
        depth = max(len(family[0][0]), m_star(t, len(family)) + 1)
        dec = _scan_levels([t.level_hypergraph(l) for l in range(depth)], family)
        assert dec.consistent == family_consistent(t, tuple(ParamType(stems=st) for st in family))
        spec = PositiveTypeSpec(params=family)
        assert dec == decide_positive_type(t, spec, depth)
        assert decide_positive_type(t, spec) == dec  # the default depth is that least one
        if prod(t.level_size(l) for l in range(depth)) <= 500:
            assert (dec.consistent, dec.witness) == brute_force_positive_type(t, spec, depth)

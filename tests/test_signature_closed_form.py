"""The closed-form signature against the enumeration oracle, and a pin on
the agreement test's random draws."""

import hashlib

from hypothesis import given, settings, strategies as st

from hypertemplate.hypergraph import Hypergraph
from hypertemplate.oracle import naive_f_signature
from hypertemplate.signature import (
    F_estimate,
    G_estimate,
    ParamType,
    SearchBudget,
    _signature_prefix,
    equality_patterns,
    f_signature,
    oplus_test,
    pattern_index,
    predicate_count,
)
from hypertemplate.template import TailPolicy, Template


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

    @settings(max_examples=150, deadline=None)
    @given(typed_signature_cases())
    def test_prefix_matches_restrict(self, case):
        t, ptype, depth = case
        sig = f_signature(t, ptype, depth)
        total = 1 + predicate_count(t, depth)
        assert len(sig.values) == total
        sizes = [t.level_size(l) for l in range(depth)]
        code = pattern_index(ptype.equality)
        for n in range(total + 3):
            assert tuple(_signature_prefix(sizes, code, ptype.stems, n)) == sig.restrict(n)

    def test_sparse(self):
        t = Template(3, [(Hypergraph(3, 4), 1)] * 3)
        sig = f_signature(t, ParamType(stems=((1, 2, 3), (1, 0, 0))), 3)
        nonzero = {i: v for i, v in enumerate(sig.values) if v}
        # level 0: prefix 1 at 1 + 1; level 1: 1 + 4 + rank(1, x);
        # level 2: 1 + 4 + 16 + rank(1, x, y)
        assert nonzero == {2: 0b11, 5 + 6: 0b01, 5 + 4: 0b10, 21 + 27: 0b01, 21 + 16: 0b10}


def _pinned(t, seed):
    """Everything the agreement test reports on one template and seed; the
    certificates enter through a digest of their repr."""
    budget = SearchBudget(stem_depth=3, families=30, resamples=10, seed=seed)
    F = F_estimate(t, 2, budget)
    G = G_estimate(t, 1, budget, s_cap=3)
    ops = [oplus_test(t, 2, n, budget) for n in range(5)]
    certs = (F.certificates, G.certificate, tuple(r.counterexample for r in ops))
    return (
        (F.lower_bound, F.upper_bound, F.exact, F.analytic_bound, len(F.certificates)),
        (G.value, G.exact, G.analytic_lower, G.certificate is not None),
        tuple((r.holds_up_to_budget, r.families_tried, r.analytic) for r in ops),
        hashlib.sha256(repr(certs).encode()).hexdigest()[:16],
    )


def _template(k, levels):
    return Template(k, [(Hypergraph(k, size, edges), f) for size, f, edges in levels])


PINNED_TEMPLATES = {
    "k2-bottleneck": _template(2, [(4, 1, []), (3, 2, [(0, 1), (0, 2)])]),
    "k2-sparse": _template(2, [(3, 1, [(1, 2)]), (4, 1, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])]),
    "k3": _template(3, [(4, 1, [(0, 1, 2), (0, 2, 3)]), (4, 2, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])]),
}

# Recorded before signatures were computed in closed form: any change to
# the order or the arguments of the agreement test's random draws shows here.
PINNED = {
    ("k2-bottleneck", 0): ((4, 4, False, 5, 4), (1, True, 1, True), ((False, 7, False), (False, 7, False), (False, 10, False), (False, 10, False), (True, 30, False)), "a3923a11630d5cb6"),
    ("k2-bottleneck", 1): ((4, 4, False, 5, 4), (1, True, 1, True), ((False, 3, False), (False, 3, False), (False, 8, False), (False, 4, False), (True, 30, False)), "05e9f7fd6c005aba"),
    ("k2-bottleneck", 2): ((4, 4, False, 5, 4), (1, True, 1, True), ((False, 4, False), (False, 4, False), (False, 4, False), (False, 4, False), (True, 30, False)), "41794cc8cb0f3ecd"),
    ("k2-sparse", 0): ((2, 2, False, 16, 2), (1, True, 1, True), ((False, 2, False), (False, 2, False), (True, 30, False), (True, 30, False), (True, 30, False)), "26f99aeb416f2a34"),
    ("k2-sparse", 1): ((2, 2, False, 16, 2), (1, True, 1, True), ((False, 1, False), (False, 1, False), (True, 30, False), (True, 30, False), (True, 30, False)), "d13e8b8672e69370"),
    ("k2-sparse", 2): ((2, 2, False, 16, 2), (1, True, 1, True), ((False, 11, False), (False, 11, False), (True, 30, False), (True, 30, False), (True, 30, False)), "19f2a11ed58fc822"),
    ("k3", 0): ((0, 0, False, 5, 0), (3, False, 1, False), ((True, 30, False), (True, 30, False), (True, 30, False), (True, 30, False), (True, 30, False)), "6e71db64a2235cdd"),
    ("k3", 1): ((0, 0, False, 5, 0), (2, True, 1, True), ((True, 30, False), (True, 30, False), (True, 30, False), (True, 30, False), (True, 30, False)), "887419754bacf9c3"),
    ("k3", 2): ((0, 0, False, 5, 0), (2, True, 1, True), ((True, 30, False), (True, 30, False), (True, 30, False), (True, 30, False), (True, 30, False)), "9a113613fa72b868"),
}


def test_agreement_draws_pinned():
    got = {
        (name, seed): _pinned(t, seed)
        for name, t in PINNED_TEMPLATES.items()
        for seed in (0, 1, 2)
    }
    assert got == PINNED

"""The closed-form signature against the enumeration oracle, and a pin on
the sampled agreement search's random draws (oracle.sampled_oplus_test)."""

import hashlib
from dataclasses import dataclass
from itertools import combinations
from math import prod
from random import Random
from typing import Optional

from hypothesis import given, settings, strategies as st

from hypertemplate.hypergraph import Hypergraph
from hypertemplate.oracle import (
    SearchBudget,
    _sample_matching,
    _sample_stems,
    brute_force_positive_type,
    naive_f_signature,
    sampled_oplus_test,
)
from hypertemplate.signature import (
    INFINITE,
    FEstimate,
    GEstimate,
    OplusCounterexample,
    ParamType,
    analytic_f_bound,
    analytic_g_lower,
    coverage_level,
    equality_patterns,
    family_consistent,
    f_signature,
    predicate_count,
)
from hypertemplate.template import TailPolicy, Template, random_template
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
    parameter tuples drawn as the agreement test draws them, at a stem
    depth of 1..5: below m* + 1 or past the stored prefix as it falls."""
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
    return t, tuple(_sample_stems(sizes, k - 1, rng) for _ in range(draw(st.integers(1, 3))))


@st.composite
def matching_cases(draw):
    """A template, its level sizes down to a stem depth of 1..5 (stored
    sizes 1..5, then the tail), base stems over them, n from 0 to past the last index they
    reach, the coverage level of n (len(sizes) or more once n is past the
    stems), a try count and a seed."""
    k = draw(st.integers(2, 4))
    stored = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    t = Template(k, [(Hypergraph(k, s), 1) for s in stored], TailPolicy("complete_growing", 1))
    depth = draw(st.integers(1, 5))
    sizes = [t.level_size(l) for l in range(depth)]
    base = tuple(tuple(draw(st.integers(0, m - 1)) for m in sizes) for _ in range(k - 1))
    n = draw(st.integers(0, predicate_count(t, depth) + 3))
    return t, base, n, sizes, coverage_level(t, n), draw(st.integers(1, 3)), draw(st.integers(0, 2**32))


def _prefix_matching(t, base, n, sizes, lc, rng, tries):
    """The match by whole signature prefixes, as the agreement test first
    computed it: draw stems keeping base's first lc entries until their
    first n signature values equal base's."""
    prefix = lambda stems: f_signature(t, ParamType(stems=stems), len(sizes)).restrict(n)
    want = prefix(base)
    for _ in range(tries):
        stems = tuple(s[:lc] + tuple(rng.randrange(m) for m in sizes[lc:]) for s in base)
        if prefix(stems) == want:
            return stems
    return None


class TestAgreementShortcuts:
    @settings(max_examples=300, deadline=None)
    @given(sampled_families())
    def test_scan_matches_checked_path(self, case):
        t, family = case
        depth = max(len(family[0][0]), m_star(t, len(family)) + 1)
        dec = _scan_levels(t._level_graphs(depth), family)
        assert dec.consistent == family_consistent(t, tuple(ParamType(stems=st) for st in family))
        spec = PositiveTypeSpec(params=family)
        assert dec == decide_positive_type(t, spec, depth)
        assert decide_positive_type(t, spec) == dec  # the default depth is that least one
        if prod(t.level_size(l) for l in range(depth)) <= 500:
            assert (dec.consistent, dec.witness) == brute_force_positive_type(t, spec, depth)

    @settings(max_examples=500, deadline=None)
    @given(matching_cases())
    def test_one_level_match_equals_prefix_match(self, case):
        t, base, n, sizes, lc, tries, seed = case
        first = n - 1 - sum(prod(sizes[: l + 1]) for l in range(lc))  # least level-lc rank of index >= n
        rng, ref_rng = Random(seed), Random(seed)
        match = _sample_matching(base, first, sizes, lc, rng, tries)
        assert match == _prefix_matching(t, base, n, sizes, lc, ref_rng, tries)
        assert rng.getstate() == ref_rng.getstate()  # the same draws, in the same order


@dataclass(frozen=True)
class OplusResult:
    """The record the agreement test returned while it sampled; the pins
    below hash its repr."""

    s: int
    n: int
    holds_up_to_budget: bool
    counterexample: Optional[OplusCounterexample]
    families_tried: int
    analytic: bool = False


def sampled_oplus(t, s, n, budget):
    """oracle.sampled_oplus_test in the sampled test's record: holding was
    called analytic where the template is complete or n reaches the
    analytic bound."""
    ce, tried = sampled_oplus_test(t, s, n, budget)
    analytic = ce is None and (t.is_complete() or analytic_f_bound(t, s) <= n)
    return OplusResult(s, n, ce is None, ce, tried, analytic)


def sampled_F(t, s, budget):
    """F as it was estimated over the sampled test."""
    if t.is_complete():
        return FEstimate(s, 0, 0, True, 0, ())
    bound = analytic_f_bound(t, s)
    certs = []
    for n in range(bound + 1):
        res = sampled_oplus(t, s, n, budget)
        if res.counterexample is None:
            return FEstimate(s, n, n, res.analytic, bound, tuple(certs))
        certs.append(res.counterexample)
    return FEstimate(s, bound, bound, True, bound, tuple(certs))


def sampled_G(t, n, budget, s_cap):
    """G as it was estimated over the sampled test, never below the
    analytic lower bound."""
    if t.is_complete():
        return GEstimate(n, INFINITE, True, s_cap, None)
    lower = analytic_g_lower(t, n)
    value = 0
    for s in range(1, s_cap + 1):
        res = sampled_oplus(t, s, n, budget)
        if res.counterexample is not None:
            return GEstimate(n, max(value, lower), value >= lower, lower, res.counterexample)
        value = s
    return GEstimate(n, max(value, lower), False, lower, None)


def _pinned(t, seed):
    """Everything the sampled search reports on one template and seed; the
    certificates enter through a digest of their repr."""
    budget = SearchBudget(stem_depth=3, families=30, resamples=10, seed=seed)
    F = sampled_F(t, 2, budget)
    G = sampled_G(t, 1, budget, s_cap=3)
    ops = [sampled_oplus(t, 2, n, budget) for n in range(5)]
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
# the order or the arguments of the sampled search's random draws shows here.
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


# (level sizes, edge probability, target f) per arity; each gives a
# non-complete template whose stored prefix ends at depth 2
WIDE_SHAPES = {2: ((3, 3), 0.5, (1, 2)), 3: ((3, 4), 0.6, (1, 2)), 4: ((4, 4), 0.7, (1, 2))}

# Recorded before sampled families were decided on the shared level scan.
WIDE_PIN = "ba9fcf04f4f9ed40155fdb7de8f0c539b261a9420a667cc6f54730adf3573386"


def _wide_results(k, seed):
    """F, G and every sampled result from n = 0 to analytic_f_bound + 1
    (so the coverage level passes the stem depth), for s = 1..3, stem depths
    1..5 (below m* + 1 and past the stored prefix) and resamples 1 and 10."""
    sizes, p, target = WIDE_SHAPES[k]
    t = random_template(k, sizes, p, target, seed=seed)
    assert not t.is_complete()
    out = []
    for stem_depth in range(1, 6):
        for resamples in (1, 10):
            budget = SearchBudget(stem_depth=stem_depth, families=10, resamples=resamples, seed=seed)
            for s in (1, 2, 3):
                out.append(sampled_F(t, s, budget))
                out.extend(sampled_oplus(t, s, n, budget) for n in range(analytic_f_bound(t, s) + 2))
            out.extend(sampled_G(t, n, budget, 3) for n in range(analytic_f_bound(t, 2) + 2))
    return out


def test_agreement_wide_pinned():
    digest = hashlib.sha256()
    for k in (2, 3, 4):
        for seed in (0, 1):
            digest.update(repr(_wide_results(k, seed)).encode())
    assert digest.hexdigest() == WIDE_PIN

"""transfer_check decides level transfer exactly by a search at m*; the
oracle samples formulas and walks every extension of every parameter.  Each
oracle counterexample must imply an exact failure, each exact verdict must
match a walk over every small family of tuples at m*, and each exact
counterexample must be confirmed by decide_qf_formula."""

import hashlib
import time
from itertools import combinations
from math import comb
from random import Random

import pytest

from hypertemplate import (
    Hypergraph,
    InputError,
    QfFormulaSpec,
    TailPolicy,
    Template,
    complete_template,
    corrupt_level,
    decide_qf_formula,
    hypergraph,
    m_star,
    max_extension_arity,
    naive_transfer_check,
    random_hypergraph,
    random_template,
    transfer_check,
    validate,
)

SIZES = {2: 5, 3: 4, 4: 4}
TRIALS = 66


def grid():
    """Valid templates for k = 2..4 and m = 1..4, and each one corrupted at
    m* with three keep fractions."""
    out = []
    for k in (2, 3, 4):
        for m in (1, 2, 3, 4):
            f = min(m, SIZES[k])
            t = random_template(k, [SIZES[k]] * 3, 0.8, [1, f, f], seed=10 * k + m)
            ms = m_star(t, m)
            out.append((f"k{k}-m{m}-valid", t, m))
            for keep in (0.0, 0.3, 0.7):
                bad = corrupt_level(t, ms, keep_fraction=keep, seed=m)
                out.append((f"k{k}-m{m}-keep{keep}", bad, m))
    return out


GRID = grid()


def random_cases(count=40):
    """Random k = 2, 3 templates with sizes 3..5, half corrupted at m*."""
    rng = Random(61)
    out = []
    for i in range(count):
        k = rng.choice((2, 3))
        m = rng.randint(1, 4)
        size = rng.randint(k + 1, 5)
        f = min(m, size)
        t = random_template(k, [size] * 3, rng.uniform(0.6, 0.95), [1, f, f], seed=rng.randrange(2**30))
        if i % 2:
            t = corrupt_level(t, m_star(t, m), keep_fraction=rng.random(), seed=i)
        out.append((f"random{i}-k{k}-m{m}", t, m))
    return out


RANDOM = random_cases()


def smallest_family(h: Hypergraph, cap: int, span: int):
    """Size of a smallest family of at most cap distinct (k-1)-sets on at
    most span vertices with no common witness, walking every vertex set and
    every family with is_edge; None when there is none."""
    best = None
    for verts in combinations(range(h.size), min(span, h.size)):
        subsets = list(combinations(verts, h.arity - 1))
        for r in range(1, min(cap, len(subsets), best or cap + 1) + 1):
            if any(
                not any(all(h.is_edge((s,) + tup) for tup in fam) for s in range(h.size))
                for fam in combinations(subsets, r)
            ):
                best = r
                break
    return best


def confirm(t, rep):
    """Every counterexample is consistent at m* and, extended, has no x."""
    ms = rep.m_star
    for c in rep.counterexamples:
        spec = c.spec
        assert len(spec.positive) <= rep.m and len(spec.param_leaves) <= 2 * (t.arity - 1)
        assert decide_qf_formula(t, ms, spec)
        assert not any(
            decide_qf_formula(t, ms + 1, QfFormulaSpec(
                x_leaf=spec.x_leaf + (s,), param_leaves=c.extension, positive=spec.positive))
            for s in range(t.level_size(ms))
        )


@pytest.mark.parametrize("name,t,m", GRID + RANDOM, ids=[g[0] for g in GRID + RANDOM])
def test_matches_oracle_at_both_worker_counts(name, t, m):
    seed = len(name)
    rep = transfer_check(t, m, TRIALS, seed, workers=1)
    assert transfer_check(t, m, TRIALS, seed, workers=2) == rep
    assert rep.exhaustive and len(rep.counterexamples) <= 1
    want = naive_transfer_check(t, m, TRIALS, seed)
    assert rep.m_star == want.m_star
    if want.counterexamples:
        assert not rep.holds
    k = t.arity
    best = smallest_family(t.level_hypergraph(rep.m_star), min(m, comb(2 * (k - 1), k - 1)), 2 * (k - 1))
    assert rep.holds == (best is None)
    if not rep.holds:
        assert len(rep.counterexamples[0].spec.positive) == best
    confirm(t, rep)


def canonical(rep) -> str:
    rows = [f"{rep.m} {rep.m_star} {TRIALS}"]
    for c in rep.counterexamples:
        s = c.spec
        # every counterexample is consistent at m* and not one level up;
        # the pinned text still spells out the two flags
        rows.append(repr((
            c.trial, s.x_leaf, s.param_leaves, sorted(s.positive), s.equality,
            c.extension, True, False,
        )))
    return "\n".join(rows)


# recorded with the full-product trial, before trials were settled by the
# extension property at m*; it pins the oracle's sampled trials
PINNED_COUNTEREXAMPLES = 64
PINNED_DIGEST = "f0ecacfeb64a3cc217bd267879994d4fc0b4647b3cf9e90bde2620f30aebdb99"


def test_reports_pinned():
    reps = [naive_transfer_check(t, m, TRIALS, len(name)) for name, t, m in GRID]
    assert sum(len(rep.counterexamples) for rep in reps) == PINNED_COUNTEREXAMPLES
    text = "\n\n".join(canonical(rep) for rep in reps)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


def cold_copy(t: Template) -> Template:
    """The same template on fresh levels, which keep no cover-search set-up."""
    levels = [(Hypergraph(h.arity, h.size, h.uniform_edges), f) for h, f in t.levels]
    return Template(t.arity, levels, t.tail)


def test_warm_grid_matches_cold():
    # validate keeps each level's cover-search set-up without span and
    # transfer_check the one with span: a rerun on the warm levels, and the
    # same call on fresh ones, must give the same report
    for name, t, m in GRID:
        assert validate(t, t.prefix_len) == validate(cold_copy(t), t.prefix_len)
        rep = transfer_check(t, m, TRIALS, len(name))
        assert transfer_check(t, m, TRIALS, len(name)) == rep
        assert transfer_check(cold_copy(t), m, TRIALS, len(name)) == rep


def test_unproven_extension_property_settles_no_trial(monkeypatch):
    # a search the node bound stops settles nothing: no counterexample, and
    # the report says it is not exhaustive
    name, t, m = next(g for g in GRID if g[0] == "k2-m2-keep0.0")
    assert not transfer_check(t, m, TRIALS, len(name)).holds
    monkeypatch.setattr(hypergraph, "COVER_SEARCH_NODES", 0)
    assert max_extension_arity(t.level_hypergraph(m_star(t, m)), m) == 1
    rep = transfer_check(t, m, TRIALS, len(name))
    assert rep.holds and not rep.exhaustive and not rep.counterexamples


def test_smallest_cover_spanning_too_many_vertices_is_not_a_counterexample():
    # at k = 3 the smallest witness-free family of this level spans six
    # vertices, so the transfer search must look again within four
    h = random_hypergraph(3, 40, 0.5, Random(1))
    wide = h.check_extension_property(6).counterexample
    assert len({v for tup in wide for v in tup}) > 4
    t = Template(3, [(h, 3), (h, 3)], TailPolicy("complete_growing", 1))
    rep = transfer_check(t, 3, 1, 0)
    assert rep.m_star == 0 and rep.exhaustive and not rep.holds
    assert len(rep.counterexamples[0].extension) <= 4
    assert len(rep.counterexamples[0].spec.positive) == len(wide)
    confirm(t, rep)


@pytest.mark.parametrize("edge_prob,seed,outcome", [(0.5, 1, "fails"), (0.9, 2, "holds"), (0.8, 1, "stops")])
def test_large_level_ends_in_bounded_time(edge_prob, seed, outcome):
    # a k = 3 level of 40 vertices has C(40, 4) sets of four vertices; the
    # search decides, or stops at the node bound, without walking them all
    h = random_hypergraph(3, 40, edge_prob, Random(seed))
    t = Template(3, [(h, 6), (h, 6)], TailPolicy("complete_growing", 1))
    start = time.perf_counter()
    rep = transfer_check(t, 6, 1, 0)
    assert time.perf_counter() - start < 10
    assert rep.m_star == 0 and rep.exhaustive == (outcome != "stops")
    assert rep.holds == (outcome != "fails")
    confirm(t, rep)


class TestWorkerPool:
    def test_workers_below_one_rejected(self):
        t = complete_template(2, 3)
        for workers in (0, -1):
            with pytest.raises(InputError):
                transfer_check(t, 1, trials=5, seed=0, workers=workers)

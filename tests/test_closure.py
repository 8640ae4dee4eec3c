"""Bounded existential closure: results pinned on seeded inputs, and the
fixpoint held to decide_qf_formula as an independent oracle."""

import hashlib
from itertools import combinations
from random import Random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertemplate import serialization as ser
from hypertemplate.template import random_template
from hypertemplate.theory import FiniteModel, all_level_stems, close_existentially
from hypertemplate.tree import einfty_prefix
from hypertemplate.typecheck import QfFormulaSpec, decide_qf_formula

# recorded at the revision that still built a QfFormulaSpec per candidate:
# a changed model, count or fixpoint flag must be deliberate
PINNED_DIGEST = ("df82aefa953f6cdd3a2b5bf8eecd3ffce1fedf2abe43bb49d3b7ad4646972e11", 1080)


def _template(k, rng):
    depth = rng.randint(1, 2)
    sizes = [rng.randint(k, k + 1) for _ in range(depth)]
    target = [rng.randint(1, 2) for _ in sizes]
    return random_template(k, sizes, rng.uniform(0.5, 1.0), target, seed=rng.randrange(2**30))


def _model(t, m, rng):
    """Up to four elements on random level-m leaves, each allowed k-subset
    an edge with one shared random probability."""
    stems = all_level_stems(t, m)
    leaves = [rng.choice(stems) for _ in range(rng.randint(0, 4))]
    p = rng.random()
    edges = {
        frozenset(sub)
        for sub in combinations(range(len(leaves)), t.arity)
        if einfty_prefix(t, [leaves[i] for i in sub]) and rng.random() < p
    }
    return FiniteModel(t.arity, m, leaves, edges)


def closure_digest() -> tuple[str, int]:
    """SHA-256 over the dumped model, the added count and the fixpoint flag
    of seeded closures: k in 2..4, levels 0..2, param_bound 1..3 and
    budgets 0, 1, 4 and 40; also how many closures ran."""
    digest = hashlib.sha256()
    calls = 0
    for i in range(90):
        rng = Random(7000 + i)
        t = _template(2 + i % 3, rng)
        m = rng.randint(0, t.prefix_len)
        model = _model(t, m, rng)
        for bound in (1, 2, 3):
            for budget in (0, 1, 4, 40):
                res = close_existentially(t, m, model, bound, budget)
                digest.update(ser.dump_model(res.model).encode())
                digest.update(f"{i} {bound} {budget} {res.added} {res.reached_fixpoint}\n".encode())
                calls += 1
    return digest.hexdigest(), calls


def test_closures_pinned():
    assert closure_digest() == PINNED_DIGEST


def _realized(model, params, positive, x_leaf):
    """Some element outside params sits on x_leaf and forms exactly the
    demanded edges with the parameters."""
    space = combinations(range(len(params)), model.arity - 1)
    tuples = [(tup, frozenset(params[i] for i in tup)) for tup in space]
    return any(
        model.leaves[b] == x_leaf
        and all((e | {b} in model.edges) == (tup in positive) for tup, e in tuples)
        for b in range(len(model.leaves))
        if b not in params
    )


@given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_fixpoint_realizes_every_consistent_formula(k, bound, seed):
    # m reaches up to two complete tail levels past the prefix; every
    # added leaf ends at level m, at a fixpoint or not
    rng = Random(seed)
    t = _template(k, rng)
    m = rng.randint(0, t.prefix_len + 2)
    model = _model(t, m, rng)
    res = close_existentially(t, m, model, bound, budget=40)
    closed = res.model
    assert all(len(leaf) == m for leaf in closed.leaves)
    assume(res.reached_fixpoint)
    assert closed.leaves[: len(model)] == model.leaves
    for n in range(1, bound + 1):
        space = list(combinations(range(n), k - 1))
        demands = [frozenset(c) for size in range(len(space) + 1) for c in combinations(space, size)]
        for params in combinations(range(len(model)), n):
            leaves = tuple(model.leaves[i] for i in params)
            for positive in demands:
                for x_leaf in all_level_stems(t, m):
                    spec = QfFormulaSpec(x_leaf=x_leaf, param_leaves=leaves, positive=positive)
                    if decide_qf_formula(t, m, spec):
                        assert _realized(closed, params, positive, x_leaf), (params, positive, x_leaf)

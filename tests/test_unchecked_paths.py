"""The decision procedures and model checks check their input once at entry
and then run on unchecked level lookups.  These tests pin their results on
seeded inputs, malformed ones included, and hold each unchecked helper to
the checked API it stands in for."""

import hashlib
from itertools import combinations, product
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from hypertemplate.hypergraph import Hypergraph, random_hypergraph
from hypertemplate.template import (
    TailPolicy,
    Template,
    complete_template,
    corrupt_level,
    random_template,
)
from hypertemplate.theory import FiniteModel, build_random_model, check_model
from hypertemplate.tree import complete_to_leaf, einfty_prefix, in_tree
from hypertemplate.typecheck import (
    PositiveTypeSpec,
    QfFormulaSpec,
    decide_positive_type,
    decide_qf_formula,
)

# recorded at the revision before the unchecked helpers: a changed result,
# exception type or message must be deliberate
PINNED_DIGEST = ("f7adfd0d29335fe9e0cfe7fa3909da56df4e16c041438166c7c9aa7895467853", 4370, 1102)


def _stem(t, length, rng):
    return tuple(rng.randrange(t.level_size(n)) for n in range(length))


def _malformed(t, stem, rng, rate=0.06):
    """The stem, or at the given rate a copy with one vertex out of range,
    one negative entry, or one coordinate dropped."""
    if not stem or rng.random() >= rate:
        return stem
    s = list(stem)
    n = rng.randrange(len(s))
    kind = rng.randrange(3)
    if kind == 0:
        s[n] = t.level_size(n) + rng.randint(0, 2)
    elif kind == 1:
        s[n] = -rng.randint(1, 2)
    else:
        del s[n]
    return tuple(s)


def _width(k, rng):
    return k - 1 + (rng.random() < 0.05) * rng.choice((-1, 1))


def _template(i, rng):
    k = rng.randint(2, 4)
    if i % 10 == 0:
        return complete_template(k, rng.randint(1, 3))
    depth = rng.randint(1, 3)
    sizes = [rng.randint(k, k + (3 if k == 2 else 2)) for _ in range(depth)]
    target = [rng.randint(1, s) for s in sizes]
    t = random_template(k, sizes, rng.uniform(0.5, 1.0), target, seed=rng.randrange(2**30))
    if i % 10 == 5:
        t = corrupt_level(t, rng.randrange(t.prefix_len), 0.3, seed=i)
    return t


def _positive_type_call(t, rng):
    k, p = t.arity, t.prefix_len
    length = rng.randint(1, p + 3)
    count = rng.randint(0, 4)
    params = tuple(
        tuple(_malformed(t, _stem(t, length, rng), rng) for _ in range(_width(k, rng)))
        for _ in range(count)
    )
    x = None
    if rng.random() < 0.4:
        x = _malformed(t, _stem(t, rng.randint(1, length + 1), rng), rng)
    depth = max(length, t.stabilization_level(max(1, count)) + 1) + rng.randint(-1, 2)
    return lambda: decide_positive_type(t, PositiveTypeSpec(params=params, x_stem=x), depth)


def _qf_call(t, rng):
    k, p = t.arity, t.prefix_len
    m = rng.randint(1, p + 3)
    n = rng.randint(k - 1, 2 * (k - 1))
    eq = []
    for _ in range(n):
        top = max(eq, default=-1)
        eq.append(rng.randint(0, top) if top >= 0 and rng.random() < 0.3 else top + 1)
    by_class = [_stem(t, m, rng) for _ in range(max(eq) + 1)]
    # equal parameters sit on one stem, except now and then
    leaves = [_stem(t, m, rng) if rng.random() < 0.1 else by_class[c] for c in eq]
    leaves = [_malformed(t, s, rng) for s in leaves]
    tuples = list(combinations(range(n), k - 1))
    positive = set(rng.sample(tuples, rng.randint(0, min(3, len(tuples)))))
    if rng.random() < 0.05:
        positive.add(tuple(range(min(n, k))))
    x = _malformed(t, _stem(t, m, rng), rng)
    if rng.random() < 0.5:  # x on a parameter's stem so demanded edges tend to hold
        x = leaves[rng.randrange(n)]
    spec = QfFormulaSpec(x_leaf=x, param_leaves=tuple(leaves), positive=frozenset(positive),
                         equality=tuple(eq))
    limit = rng.random() < 0.5
    return lambda: decide_qf_formula(t, m, spec, for_limit_theory=limit)


def _einfty_call(t, rng):
    length = rng.randint(1, t.prefix_len + 3)
    base = _stem(t, length, rng)
    stems = []
    for _ in range(_width(t.arity + 1, rng)):
        s = tuple(v if rng.random() < 0.6 else rng.randrange(t.level_size(n)) for n, v in enumerate(base))
        stems.append(_malformed(t, s, rng))
    return lambda: einfty_prefix(t, stems)


def _complete_call(t, rng):
    k = t.arity
    m = rng.randint(0, 2)
    stab = t.stabilization_level(max(1, m))
    target = stab + rng.randint(1, 3)
    cons = tuple(
        tuple(_stem(t, target - (rng.random() < 0.04), rng) for _ in range(_width(k, rng)))
        for _ in range(m)
    )
    nu = []
    for n in range(stab + 1 - (rng.random() < 0.1)):  # mostly satisfying the hypothesis
        h = t.level_hypergraph(n)
        usable = [tup for tup in cons if len(tup) == k - 1 and min(map(len, tup)) > n]
        picks = [s for s in range(h.size)
                 if all(h.is_edge((s,) + tuple(c[n] for c in tup)) for tup in usable)]
        nu.append(rng.choice(picks) if picks and rng.random() < 0.9 else rng.randrange(h.size))
    cons = tuple(tuple(_malformed(t, s, rng) for s in tup) for tup in cons)
    nu = _malformed(t, tuple(nu), rng)
    if rng.random() < 0.05:
        target = len(nu) - 1
    return lambda: complete_to_leaf(t, nu, cons, target)


def _model_calls(t, rng):
    """build_random_model at a level keeping the model small, then
    check_model on the result and on copies with extra edges (allowed or
    forbidden), a malformed edge, an edge-free element with a malformed
    leaf, and a mismatched arity."""
    k = t.arity
    count = rng.randint(1, 2)
    m, leaves = 0, 1
    while m < t.prefix_len and leaves * t.level_size(m) * count <= 14:
        leaves *= t.level_size(m)
        m += 1
    args = [t, m, count, rng.uniform(0.2, 0.9), rng.randrange(2**30)]
    bad = rng.random()
    if bad < 0.05:
        args[1] = t.prefix_len + 1
    elif bad < 0.1:
        args[2] = -1
    elif bad < 0.15:
        args[3] = 1.5
    calls = [lambda: _canonical(build_random_model(*args))]
    try:
        model = build_random_model(*args)
    except Exception:
        return calls
    variants = [model]
    size = len(model.leaves)
    if size >= k:
        extra = model.copy()
        subsets = list(combinations(range(size), k))
        for sub in rng.sample(subsets, min(3, len(subsets))):
            extra.edges.add(frozenset(sub))
        variants.append(extra)
        shape = model.copy()
        shape.edges.add(frozenset(range(k - 1)))
        shape.edges.add(frozenset(range(size - k + 1, size + 1)))
        variants.append(shape)
    loose = model.copy()
    loose.leaves.append(_malformed(t, _stem(t, m, rng), rng, rate=1.0) if m else (0,))
    loose.leaves.append(_stem(t, m + 1, rng))
    variants.append(loose)
    variants.append(FiniteModel(k + 1, m, list(model.leaves), set()))
    calls += [lambda v=v: check_model(t, v) for v in variants]
    return calls


def _canonical(model):
    return model.arity, model.level, model.leaves, sorted(sorted(e) for e in model.edges)


def decision_digest() -> tuple[str, int, int]:
    """SHA-256 over the repr of each result, or the exception's type and
    message, of seeded calls to the decision procedures, the stem functions
    and the model functions on random, complete and corrupted templates;
    also how many calls ran and how many raised."""
    digest = hashlib.sha256()
    calls = raised = 0
    for i in range(150):
        rng = Random(9000 + i)
        t = _template(i, rng)
        todo = []
        for make in (_positive_type_call, _qf_call, _einfty_call, _complete_call):
            todo += [make(t, rng) for _ in range(6)]
        todo += _model_calls(t, rng)
        for j, call in enumerate(todo):
            try:
                out = repr(call())
            except Exception as e:
                out = f"{type(e).__name__}: {e}"
                raised += 1
            calls += 1
            digest.update(f"{i} {j} {out}\n".encode())
    return digest.hexdigest(), calls, raised


def test_decisions_pinned():
    assert decision_digest() == PINNED_DIGEST


@st.composite
def levels(draw):
    """A random hypergraph with k in 2..4 and 1..7 vertices."""
    k = draw(st.integers(2, 4))
    size = draw(st.integers(1, 7))
    return random_hypergraph(k, size, draw(st.floats(0.05, 1.0)), Random(draw(st.integers(0, 2**31))))


class TestHelpersMatchCheckedApi:
    @given(levels(), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_has_and_witness(self, h, seed):
        rng = Random(seed)
        k, size = h.arity, h.size
        for tup in product(range(size), repeat=k):
            assert h._has(tup) == h.is_edge(tup)
        checked = Hypergraph(k, size, h.uniform_edges)  # its own, cold, mask memo
        for _ in range(40):
            tuples = [tuple(rng.randrange(size) for _ in range(k - 1)) for _ in range(rng.randint(1, 4))]
            assert h._witness(tuples) == checked.extension_witness(tuples)

    @given(
        st.integers(2, 4),
        st.lists(st.integers(1, 7), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_in_tree(self, k, sizes, growth, seed):
        rng = Random(seed)
        t = Template(k, [(Hypergraph(k, s), 1) for s in sizes], TailPolicy("complete_growing", growth))
        for _ in range(60):
            length = rng.randint(0, len(sizes) + 3)
            stem = tuple(rng.randint(-2, t.level_size(n) + 1) for n in range(length))
            assert in_tree(t, stem) == all(0 <= v < t.level_size(n) for n, v in enumerate(stem))

    @given(
        st.integers(2, 4),
        st.lists(st.integers(2, 7), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_stabilization_memo(self, k, sizes, growth, seed):
        rng = Random(seed)
        t = Template(
            k,
            [(random_hypergraph(k, s, 0.7, rng), rng.randint(1, s)) for s in sizes],
            TailPolicy("complete_growing", growth),
        )
        counts = list(range(1, max(sizes) + 4))
        for tt in (t, corrupt_level(t, rng.randrange(len(sizes)), 0.5, seed)):
            rng.shuffle(counts)
            for c in counts + counts:  # the second pass reads the memo
                # past level p + c every f is a tail size > c
                top = t.prefix_len + c
                fresh = min(n for n in range(top + 1) if all(tt.f_value(j) >= c for j in range(n, top + 1)))
                assert tt.stabilization_level(c) == fresh

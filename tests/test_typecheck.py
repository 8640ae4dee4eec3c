from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hypertemplate import m_star
from hypertemplate.errors import InputError, PreconditionError
from hypertemplate.hypergraph import Hypergraph, complete_hypergraph
from hypertemplate.oracle import brute_force_positive_type
from hypertemplate.template import (
    TailPolicy,
    Template,
    complete_template,
    corrupt_level,
    random_template,
    validate,
)
from hypertemplate.typecheck import (
    PositiveTypeSpec,
    QfFormulaSpec,
    decide_positive_type,
    decide_qf_formula,
    transfer_check,
)
from hypertemplate.tree import _scan_levels


def repetition_only_template(arity=3, size=3):
    # level 0 has no uniform edges; the complete tail starts right after
    return Template(
        arity,
        [(Hypergraph(arity, size), 1)],
        TailPolicy("complete_growing", 1),
    )


def random_spec(t, rng, max_tuples=2, stem_len=2):
    count = rng.randint(1, max_tuples)
    params = tuple(
        tuple(
            tuple(rng.randrange(t.level_size(n)) for n in range(stem_len))
            for _ in range(t.arity - 1)
        )
        for _ in range(count)
    )
    x_stem = None
    if rng.random() < 0.3:
        x_stem = tuple(rng.randrange(t.level_size(n)) for n in range(rng.randint(1, stem_len)))
    return PositiveTypeSpec(params=params, x_stem=x_stem)


class TestMStar:
    def test_prefix_pattern(self):
        levels = [(complete_hypergraph(3, 4), f) for f in (1, 1, 2, 2, 3, 3)]
        t = Template(3, levels, TailPolicy("complete_growing", 1))
        assert m_star(t, 3) == 4

    def test_complete_template(self):
        t = complete_template(3, 2)
        for count in range(1, 6):
            assert m_star(t, count) == count - 1

    def test_count_one(self):
        t = repetition_only_template()
        assert m_star(t, 1) == 0


class TestDecidePositiveType:
    def test_complete_all_zeros(self):
        t = complete_template(3, 3)
        spec = PositiveTypeSpec(params=(((0, 0), (0, 1)),))
        dec = decide_positive_type(t, spec, 3)
        assert dec.consistent and dec.witness == (0, 0, 0)

    def test_repetition_only_level_forces_repeat(self):
        t = repetition_only_template()
        spec = PositiveTypeSpec(params=((((0,), (1,))),))
        dec = decide_positive_type(t, spec, 2)
        # witness at level 0 must repeat 0 or 1; least is 0
        assert dec.consistent and dec.witness[0] == 0

    def test_x_stem_blocking_reports_level(self):
        t = repetition_only_template()
        spec = PositiveTypeSpec(params=(((0,), (1,)),), x_stem=(2,))
        dec = decide_positive_type(t, spec, 2)
        assert not dec.consistent and dec.failing_level == 0

    def test_two_disjoint_tuples_can_clash(self):
        t = repetition_only_template(size=4)
        spec = PositiveTypeSpec(params=(((0,), (1,)), ((2,), (3,))))
        depth = max(1, m_star(t, 2) + 1)
        dec = decide_positive_type(t, spec, depth)
        assert not dec.consistent and dec.failing_level == 0

    def test_depth_below_bound_rejected(self):
        t = complete_template(3, 4)
        spec = PositiveTypeSpec(params=(((0, 0), (0, 1)), ((0, 0), (0, 0))))
        with pytest.raises(InputError):
            decide_positive_type(t, spec, 1)

    def test_monotone_under_constraint_removal(self):
        rng = Random(11)
        for seed in range(15):
            t = random_template(3, [4, 4], 0.8, [1, 2], seed=seed)
            spec = random_spec(t, rng)
            if len(spec.params) < 2:
                continue
            depth = max(spec.common_length(), m_star(t, len(spec.params)) + 1)
            if decide_positive_type(t, spec, depth).consistent:
                sub = PositiveTypeSpec(params=spec.params[:-1], x_stem=spec.x_stem)
                assert decide_positive_type(t, sub, depth).consistent

    def test_oracle_equality_sample(self):
        rng = Random(5)
        for seed in range(20):
            k = rng.choice((2, 3))
            sizes = [rng.randint(k, 4) for _ in range(rng.randint(1, 3))]
            t = random_template(k, sizes, rng.uniform(0.3, 0.95), [1] * len(sizes), seed=seed)
            for _ in range(25):
                spec = random_spec(t, rng)
                depth = max(spec.common_length(), m_star(t, len(spec.params)) + 1,
                            len(spec.x_stem or ()))
                dec = decide_positive_type(t, spec, depth)
                o_cons, o_wit = brute_force_positive_type(t, spec, depth)
                assert dec.consistent == o_cons
                assert dec.witness == o_wit


class TestQfFormulaSpec:
    def test_bad_equality_pattern_rejected(self):
        with pytest.raises(InputError):
            QfFormulaSpec(x_leaf=(0,), param_leaves=((0,), (0,)), positive=frozenset(), equality=(0, 2))

    def test_bad_positive_tuple_rejected(self):
        with pytest.raises(InputError):
            QfFormulaSpec(x_leaf=(0,), param_leaves=((0,), (0,)), positive=frozenset({(1, 0)}))


class TestDecideQfFormula:
    def test_empty_c_consistent(self):
        t = complete_template(3, 3)
        spec = QfFormulaSpec(x_leaf=(0, 0), param_leaves=((0, 1), (0, 0)), positive=frozenset())
        assert decide_qf_formula(t, 2, spec)

    def test_two_edge_template_positive_pair(self):
        h0 = Hypergraph(3, 3, [(0, 1, 2)])
        h1 = Hypergraph(3, 6, [(3, 4, 5)])
        t = Template(3, [(h0, 1), (h1, 1)], TailPolicy("complete_growing", 1))
        spec = QfFormulaSpec(
            x_leaf=(0, 3), param_leaves=((1, 4), (2, 5)), positive=frozenset({(0, 1)})
        )
        assert decide_qf_formula(t, 2, spec)

    def test_level_blocked_edge_inconsistent(self):
        t = repetition_only_template()
        spec = QfFormulaSpec(
            x_leaf=(0,), param_leaves=((1,), (2,)), positive=frozenset({(0, 1)})
        )
        assert not decide_qf_formula(t, 1, spec)

    def test_equality_pattern_must_match_leaves(self):
        t = complete_template(3, 3)
        spec = QfFormulaSpec(
            x_leaf=(0,), param_leaves=((0,), (0,)), positive=frozenset(),
            equality=(0, 0),
        )
        bad = QfFormulaSpec(
            x_leaf=(0, 0), param_leaves=((0, 0), (0, 1)), positive=frozenset(),
            equality=(0, 0),
        )
        assert decide_qf_formula(t, 1, spec)
        assert not decide_qf_formula(t, 2, bad)

    def test_edge_repeating_a_class_inconsistent(self):
        t = complete_template(3, 3)
        spec = QfFormulaSpec(
            x_leaf=(0,), param_leaves=((0,), (0,)), positive=frozenset({(0, 1)}),
            equality=(0, 0),
        )
        assert not decide_qf_formula(t, 1, spec)

    def test_permutation_clash_with_nonedge(self):
        t = complete_template(3, 4)
        # parameters 1 and 2 are equal, so the demanded edge (0,1) is, up to
        # permutation, the declared non-edge (0,2)
        spec = QfFormulaSpec(
            x_leaf=(0,),
            param_leaves=((0,), (0,), (0,)),
            positive=frozenset({(0, 1)}),
            equality=(0, 1, 1),
        )
        assert not decide_qf_formula(t, 1, spec)

    def test_limit_theory_implies_every_finite_level(self):
        # x and the leaves end at m, so the limit theory decides exactly as
        # level m does: the full scan, to past the stabilization level,
        # agrees with both answers
        rng = Random(13)
        for k in (2, 3, 4):
            for seed in range(8):
                t = random_template(k, [4, 4], 0.8, [1, 2], seed=seed)
                for _ in range(20):
                    m = rng.randint(1, t.prefix_len + 2)
                    n = rng.randint(k - 1, k + 1)
                    leaves = tuple(
                        tuple(rng.randrange(t.level_size(l)) for l in range(m))
                        for _ in range(n)
                    )
                    x = tuple(rng.randrange(t.level_size(l)) for l in range(m))
                    if rng.random() < 0.5:  # on a parameter's leaf demanded edges tend to hold
                        x = leaves[rng.randrange(n)]
                    pos = frozenset(
                        tup for tup in combinations(range(n), k - 1) if rng.random() < 0.4
                    )
                    spec = QfFormulaSpec(x_leaf=x, param_leaves=leaves, positive=pos)
                    limit = decide_qf_formula(t, m, spec, for_limit_theory=True)
                    assert limit == decide_qf_formula(t, m, spec)
                    if pos and limit:
                        rows = [[leaves[i] for i in tup] for tup in sorted(pos)]
                        depth = max(m, m_star(t, len(rows)) + 1)
                        assert _scan_levels([t.level_hypergraph(l) for l in range(depth)], rows, x).consistent


@st.composite
def scan_cases(draw):
    """A template (k in 2..4, one to four stored levels of sizes 1..4 with
    random uniform edges, then the complete tail), parameter stems of one
    length L in 0..3, an x stem that often outruns them, and a check depth
    at or past the required bound."""
    k = draw(st.integers(2, 4))
    levels = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 4))
        tuples = list(combinations(range(size), k))
        edges = draw(st.lists(st.sampled_from(tuples), unique=True)) if tuples else []
        levels.append((Hypergraph(k, size, edges), 1))
    t = Template(k, levels, TailPolicy("complete_growing", 1))

    def stem(length):
        return st.tuples(*(st.integers(0, t.level_size(l) - 1) for l in range(length)))

    L = draw(st.integers(0, 3))
    params = tuple(
        tuple(draw(stem(L)) for _ in range(k - 1)) for _ in range(draw(st.integers(1, 3)))
    )
    x = draw(st.none() | st.integers(0, 6).flatmap(stem))
    needed = max(L, m_star(t, len(params)) + 1, len(x or ()))
    return t, PositiveTypeSpec(params=params, x_stem=x), needed + draw(st.integers(0, 2))


class TestScanDepth:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_stopped_scan_matches_full_scan(self, case):
        # decide_positive_type scans only as deep as x and the stems reach
        t, spec, depth = case
        full = _scan_levels([t.level_hypergraph(l) for l in range(depth)], spec.params, spec.x_stem or ())
        assert decide_positive_type(t, spec, depth) == full


class TestTransferCheck:
    def test_complete_template_never_fails(self):
        t = complete_template(3, 4)
        rep = transfer_check(t, 2, trials=50, seed=0)
        assert rep.holds and rep.exhaustive

    def test_validated_random_template_holds(self):
        t = random_template(3, [4, 4, 4], 0.85, [1, 2, 2], seed=7)
        assert validate(t, 3).valid
        rep = transfer_check(t, 2, trials=100, seed=1)
        assert rep.holds

    def test_corruption_detected(self):
        # break extension at the stabilization level: whatever the seed,
        # the exact decision finds the failure
        t = complete_template(2, 4)
        ms = m_star(t, 2)
        bad = corrupt_level(t, ms, keep_fraction=0.0)
        for seed in range(3):
            rep = transfer_check(bad, 2, trials=200, seed=seed)
            assert not rep.holds and rep.exhaustive

    def test_workers_agree(self):
        t = random_template(3, [4, 4], 0.85, [1, 2], seed=9)
        a = transfer_check(t, 2, trials=40, seed=3, workers=1)
        b = transfer_check(t, 2, trials=40, seed=3, workers=4)
        assert a == b

    def test_short_prefix_rejected(self):
        t = Template(2, [(complete_hypergraph(2, 2), 1)], TailPolicy("complete_growing", 1))
        with pytest.raises(PreconditionError):
            transfer_check(t, 3, trials=10, seed=0)

from math import inf
from random import Random

import pytest

from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph, complete_hypergraph
from hypertemplate.template import TailPolicy, Template, complete_template, random_template, validate
from hypertemplate.oracle import SearchBudget
from hypertemplate.signature import (
    MAX_COUNT,
    F_estimate,
    G_estimate,
    ParamType,
    analytic_f_bound,
    analytic_g_lower,
    analytic_g_table,
    coverage_level,
    equality_patterns,
    f_signature,
    family_consistent,
    oplus_test,
    pattern_index,
    predicate_count,
    predicate_enumeration,
)
from hypertemplate import m_star


def bottleneck_template():
    # k = 2, an empty level 0 with f = 1, then the complete growing tail:
    # two instances disagreeing at level 0 are jointly inconsistent
    return Template(
        2, [(Hypergraph(2, 2), 1)], TailPolicy("complete_growing", 1)
    )


class TestEqualityPatterns:
    def test_one_var(self):
        assert equality_patterns(1) == [(0,)]

    def test_two_vars(self):
        assert equality_patterns(2) == [(0, 1), (0, 0)]

    def test_three_vars(self):
        assert equality_patterns(3) == [
            (0, 1, 2),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (0, 0, 0),
        ]

    def test_pattern_index(self):
        assert pattern_index((0, 1)) == 0
        assert pattern_index((0, 0)) == 1
        assert pattern_index((0, 0, 0)) == 4
        # the closed form against the enumeration, every pattern of 1-8 variables
        for variables in range(1, 9):
            patterns = equality_patterns(variables)
            assert list(map(pattern_index, patterns)) == list(range(len(patterns)))

    def test_non_canonical_rejected(self):
        for pattern, message in [
            ((1, 0), "(1, 0) is not a canonical restricted growth string"),
            ((0, 2, 1), "(0, 2, 1) is not a canonical restricted growth string"),
            ((), "need at least one variable"),
        ]:
            with pytest.raises(InputError) as err:
                pattern_index(pattern)
            assert str(err.value) == message


class TestPredicateEnumeration:
    def test_two_by_two(self):
        h = complete_hypergraph(2, 2)
        t = Template(2, [(h, 2), (h, 2)], TailPolicy("complete_growing", 1))
        assert predicate_enumeration(t, 2) == [
            (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    def test_depth_one_singletons(self):
        t = complete_template(3, 4)
        assert predicate_enumeration(t, 1) == [(0,)]

    def test_count_formula(self):
        t = complete_template(2, 4)
        for depth in range(1, 5):
            assert len(predicate_enumeration(t, depth)) == predicate_count(t, depth)

    def test_coverage_level_inverts_count(self):
        t = bottleneck_template()
        for n in range(0, 12):
            L = coverage_level(t, n)
            assert predicate_count(t, L) <= max(0, n - 1)
            assert predicate_count(t, L + 1) > n - 1

    def test_coverage_level_rejects_negative_index(self):
        # a negative n is no signature index; -1 would read as level 0
        with pytest.raises(InputError, match="^need n >= 0, got -1$"):
            coverage_level(bottleneck_template(), -1)


class TestFSignature:
    def test_equality_code_first(self):
        t = complete_template(3, 3)
        merged = ParamType(stems=((0, 0), (0, 0)), equality=(0, 0))
        assert f_signature(t, merged, 2).values[0] == 1

    def test_k2_values_are_bits(self):
        t = bottleneck_template()
        pt = ParamType(stems=((0, 1, 0),))
        sig = f_signature(t, pt, 3)
        assert sig.values[0] == 0
        assert all(v in (0, 1) for v in sig.values[1:])

    def test_agreement_follows_shared_prefix(self):
        t = complete_template(3, 4)
        a = ParamType(stems=((0, 1, 0), (0, 0, 1)))
        b = ParamType(stems=((0, 1, 1), (0, 0, 2)))
        # identical through level 2; predicates up to length 2 agree
        n = 1 + predicate_count(t, 2)
        sa, sb = f_signature(t, a, 3), f_signature(t, b, 3)
        assert sa.restrict(n) == sb.restrict(n)
        assert sa.values != sb.values

    def test_perturbation_below_coded_levels_invisible(self):
        t = complete_template(2, 4)
        n = 1 + predicate_count(t, 2)
        a = ParamType(stems=((0, 1, 0, 0),))
        b = ParamType(stems=((0, 1, 1, 1),))
        assert f_signature(t, a, 4).restrict(n) == f_signature(t, b, 4).restrict(n)

    def test_restrict_rejects_negative_index(self):
        # restrict(-1) would slice off the last value, keeping 12 of 13 here
        h = complete_hypergraph(3, 3)
        t = Template(3, [(h, 1), (h, 1)], TailPolicy("complete_growing", 1))
        sig = f_signature(t, ParamType(stems=((0, 0), (0, 1))), 2)
        assert len(sig.values) == 13 and sig.restrict(0) == ()
        with pytest.raises(InputError, match="^need n >= 0, got -1$"):
            sig.restrict(-1)

    def test_short_stems_rejected(self):
        t = complete_template(2, 3)
        with pytest.raises(InputError):
            f_signature(t, ParamType(stems=((0,),)), 2)

    def test_merged_vars_need_equal_stems(self):
        with pytest.raises(InputError):
            ParamType(stems=((0, 0), (0, 1)), equality=(0, 0))


class TestFamilyConsistent:
    def test_merging_pattern_rejected(self):
        t = complete_template(3, 3)
        fam = (ParamType(stems=((0, 0), (0, 0)), equality=(0, 0)),)
        assert not family_consistent(t, fam)

    def test_bottleneck_pair_inconsistent(self):
        t = bottleneck_template()
        fam = (
            ParamType(stems=((0, 0),)),
            ParamType(stems=((1, 0),)),
        )
        assert not family_consistent(t, fam)

    def test_agreeing_pair_consistent(self):
        t = bottleneck_template()
        fam = (
            ParamType(stems=((0, 0),)),
            ParamType(stems=((0, 1),)),
        )
        assert family_consistent(t, fam)


class TestOplus:
    @pytest.mark.parametrize(
        "field, value",
        [("stem_depth", 0), ("stem_depth", -1), ("families", 0), ("families", -3), ("resamples", 0)],
    )
    def test_budget_below_one_rejected(self, field, value):
        with pytest.raises(InputError, match=f"^{field} must be >= 1, got {value}$"):
            SearchBudget(**{field: value})

    def test_coverage_past_stem_depth_keeps_base(self):
        # at a coverage level past the stored prefix matched types share
        # every stored level, and tail levels are complete: nothing fails
        t = bottleneck_template()
        assert coverage_level(t, 200) >= 2
        assert oplus_test(t, 1, 200).counterexample is None

    def test_complete_template_holds_analytically(self):
        t = complete_template(3, 3)
        res = oplus_test(t, 2, 0)
        assert res.counterexample is None and res.exhaustive

    def test_bottleneck_counterexample_at_low_n(self):
        t = bottleneck_template()
        res = oplus_test(t, 2, 0)
        assert res.counterexample is not None
        ce = res.counterexample
        assert family_consistent(t, ce.consistent_family)
        assert not family_consistent(t, ce.inconsistent_family)

    def test_monotone_counterexample_transfer(self):
        # a counterexample at n also refutes every smaller n (families agree
        # on the shorter prefix a fortiori)
        t = bottleneck_template()
        hi = oplus_test(t, 2, 1)
        assert hi.counterexample is not None
        lo = oplus_test(t, 2, 0)
        assert lo.counterexample is not None

    def test_holds_past_analytic_bound(self):
        t = bottleneck_template()
        n = analytic_f_bound(t, 2)
        res = oplus_test(t, 2, n)
        assert res.counterexample is None and res.exhaustive


class TestFandG:
    def test_complete_template_F_zero(self):
        t = complete_template(3, 3)
        for s in range(1, 6):
            est = F_estimate(t, s)
            assert est.lower_bound == est.upper_bound == 0 and est.exact

    def test_complete_template_G_infinite(self):
        t = complete_template(3, 3)
        for n in range(0, 11):
            est = G_estimate(t, n)
            assert est.value == inf and est.exact

    def test_G_past_the_stored_prefix_infinite(self):
        # from the coverage level on only complete tail levels are left
        t = bottleneck_template()
        n = predicate_count(t, t.prefix_len + 1) + 1
        assert coverage_level(t, n) > t.prefix_len
        est = G_estimate(t, n)
        assert est.value == inf and est.exact and est.certificate is None

    @pytest.mark.parametrize("template", [complete_template(3, 2), bottleneck_template()])
    def test_bad_counts_rejected_before_shortcut(self, template):
        # complete and non-complete templates reject s < 1 and n < 0 alike
        for s in (0, -2):
            with pytest.raises(InputError, match=f"count must be >= 1, got {s}"):
                F_estimate(template, s)
        with pytest.raises(InputError, match="^need n >= 0, got -1$"):
            G_estimate(template, -1)

    def test_bottleneck_F2(self):
        t = bottleneck_template()
        est = F_estimate(t, 2)
        assert est.lower_bound == 2
        assert est.upper_bound <= est.analytic_bound == analytic_f_bound(t, 2)
        assert len(est.certificates) == 2
        for ce in est.certificates:
            assert family_consistent(t, ce.consistent_family)
            assert not family_consistent(t, ce.inconsistent_family)

    def test_F_nondecreasing_in_s(self):
        t = bottleneck_template()
        vals = [F_estimate(t, s).lower_bound for s in (1, 2, 3)]
        assert vals == sorted(vals)

    def test_G_nondecreasing_in_n(self):
        t = bottleneck_template()
        vals = [G_estimate(t, n, s_cap=4).value for n in range(0, 5)]
        assert vals == sorted(vals)

    def test_analytic_g_lower_sound(self):
        t = bottleneck_template()
        # agreement past the coverage level pins the bottleneck coordinate
        assert analytic_g_lower(t, 0) == 1
        assert analytic_g_lower(t, 3) >= 2

    def test_analytic_g_lower_rejects_negative_index(self):
        # -1 would read as the coverage level of 0, a capacity of 1
        with pytest.raises(InputError, match="^need n >= 0, got -1$"):
            analytic_g_lower(bottleneck_template(), -1)

    def test_analytic_g_table_shapes(self):
        assert analytic_g_table(complete_template(2, 2), 4) == [inf] * 5
        tab = analytic_g_table(bottleneck_template(), 6)
        assert len(tab) == 7 and tab == sorted(tab)


# (arity, level sizes, edge probability, target f): the template shapes of
# the signature benchmark workload
SIGNATURE_SHAPES = [
    (2, (4, 3), 0.6, (1, 2)),
    (3, (4, 4), 0.7, (1, 2)),
    (2, (4, 4, 3), 0.65, (2, 1, 2)),
    (3, (4, 3, 4), 0.75, (1, 1, 2)),
    (2, (3, 4), 0.55, (1, 1)),
    (3, (4, 4), 0.8, (2, 1)),
]


class TestAnalyticBounds:
    @pytest.mark.parametrize("shape", SIGNATURE_SHAPES)
    def test_exact_values_within_analytic_bounds(self, shape):
        # on a valid template F(s) <= analytic_f_bound and G(n) >=
        # analytic_g_lower
        k, sizes, p, target = shape
        for seed in range(30):
            t = random_template(k, sizes, p, target, seed)
            assert validate(t, t.prefix_len).valid
            for s in (1, 2, 3):
                est = F_estimate(t, s)
                assert est.exact and est.upper_bound <= analytic_f_bound(t, s)
            if t.is_complete():
                continue
            for n in range(analytic_f_bound(t, 2) + 2):
                est = G_estimate(t, n)
                assert est.exact and est.value >= analytic_g_lower(t, n)


class TestMStarInteraction:
    def test_analytic_bound_definition(self):
        t = bottleneck_template()
        s = 2
        assert analytic_f_bound(t, s) == predicate_count(t, m_star(t, s)) + 1


class TestCountBound:
    # an edgeless k = 2 level: every agreement count has a counterexample,
    # so oplus_test builds a certificate padded to s types
    EDGELESS = Template(2, [(Hypergraph(2, 120), 1), (Hypergraph(2, 120), 1)], TailPolicy("complete_growing", 1))

    CALLS = {
        "oplus_test": lambda t, s: oplus_test(t, s, 5),
        "F_estimate": F_estimate,
        "analytic_f_bound": analytic_f_bound,
    }

    @pytest.mark.parametrize("template", [complete_template(2, 1), bottleneck_template(), EDGELESS])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_accepts_the_bound_and_rejects_one_more(self, call, template):
        assert MAX_COUNT == 1000
        self.CALLS[call](template, MAX_COUNT)
        with pytest.raises(InputError) as err:
            self.CALLS[call](template, MAX_COUNT + 1)
        assert str(err.value) == "count must be <= 1000, got 1001"

    def test_steepest_bound_prints(self):
        # complete_template(2, 1) grows its analytic bound fastest; at the
        # bound it stays under Python's 4,300-digit limit for str(int)
        assert len(str(analytic_f_bound(complete_template(2, 1), MAX_COUNT))) == 2565

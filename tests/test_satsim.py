from math import inf

import pytest

from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.template import TailPolicy, Template, complete_template
from hypertemplate.signature import ParamType, analytic_g_table, predicate_count
from hypertemplate.satsim import (
    Distribution,
    Infeasible,
    Instance,
    Scenario,
    agreement_level,
    build_distribution,
    capacity,
    validate_scenario,
    verify_realization,
)


def complete_scenario(depths=(2, 3), instances=2):
    t = complete_template(2, max(depths) + 1)
    insts = []
    for a in range(instances):
        lim = tuple(a % t.level_size(n) for n in range(max(depths)))
        insts.append(
            Instance(
                limit=ParamType(stems=(lim,)),
                per_index=tuple(
                    ParamType(stems=(lim[:d] + (0,) * max(0, d - len(lim)),))
                    for d in depths
                ),
            )
        )
    return Scenario(template=t, depths=depths, instances=tuple(insts))


def bottleneck_scenario(num_instances):
    # level 0 has no uniform edges and f = 1: instances that disagree at
    # level 0 are jointly inconsistent, so capacity at low agreement is 1
    t = Template(
        2,
        [(Hypergraph(2, 2), 1), (Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)]), 3)],
        TailPolicy("complete_growing", 1),
    )
    insts = []
    for a in range(num_instances):
        lim = (0, 0)
        # per-index stems diverge from the limit immediately at level 0
        per = (ParamType(stems=((a % 2, 1),)),)
        insts.append(Instance(limit=ParamType(stems=(lim,)), per_index=per))
    return t, Scenario(template=t, depths=(2,), instances=tuple(insts))


def g_table_for(sc):
    n_max = max(1 + predicate_count(sc.template, max(sc.depths)), max(sc.depths) + 1)
    return analytic_g_table(sc.template, n_max)


class TestValidation:
    def test_complete_scenario_valid(self):
        validate_scenario(complete_scenario())

    def test_stem_length_mismatch_rejected(self):
        sc = complete_scenario()
        bad = Scenario(
            template=sc.template,
            depths=sc.depths,
            instances=(
                Instance(
                    limit=sc.instances[0].limit,
                    per_index=(sc.instances[0].per_index[0],) * 2,
                ),
            ),
        )
        with pytest.raises(InputError):
            validate_scenario(bad)


class TestAgreementLevel:
    def test_exact_match_reaches_depth(self):
        sc = complete_scenario()
        assert agreement_level(sc, 0, 0) == sc.depths[0]

    def test_divergence_is_detected(self):
        t, sc = bottleneck_scenario(2)
        # instance 1 diverges from the limit already in the level-0 predicate
        n0 = agreement_level(sc, 0, 0)
        n1 = agreement_level(sc, 1, 0)
        assert n1 < n0

    def test_capacity_lookup(self):
        sc = complete_scenario()
        tab = g_table_for(sc)
        assert capacity(sc, 0, 0, tab) == inf

    def test_short_table_rejected(self):
        sc = complete_scenario()
        with pytest.raises(InputError):
            capacity(sc, 0, 0, [1])


class TestBuildDistribution:
    def test_single_instance_feasible(self):
        sc = complete_scenario(instances=1)
        d = build_distribution(sc, g_table_for(sc), seed=0)
        assert isinstance(d, Distribution)
        assert d.assigned[0]

    def test_all_infinite_assigns_everywhere(self):
        sc = complete_scenario(instances=2)
        d = build_distribution(sc, g_table_for(sc), seed=0)
        assert isinstance(d, Distribution)
        everywhere = frozenset(range(len(sc.depths)))
        assert all(s == everywhere for s in d.assigned)

    def test_pigeonhole_infeasible(self):
        # capacity bound 1 at the single index; two instances cannot fit
        t, sc = bottleneck_scenario(2)
        tab = g_table_for(sc)
        d = build_distribution(sc, tab, seed=0)
        assert isinstance(d, Infeasible)
        assert d.bounds == (1,)

    def test_agreement_capped_at_index_depth(self):
        t, sc = bottleneck_scenario(1)
        # the signatures first disagree at index 3, past the depth cap
        assert agreement_level(sc, 0, 0) == sc.depths[0]

    def test_loads_respect_bounds(self):
        t, sc = bottleneck_scenario(1)
        d = build_distribution(sc, g_table_for(sc), seed=4)
        assert isinstance(d, Distribution)
        for ti, members in enumerate(d.index_sets):
            assert len(members) <= d.bounds[ti]

    def test_seed_determinism(self):
        sc = complete_scenario(instances=3)
        tab = g_table_for(sc)
        assert build_distribution(sc, tab, seed=7) == build_distribution(sc, tab, seed=7)


class TestVerifyRealization:
    def test_identical_stems_fully_realized(self):
        sc = complete_scenario(instances=2)
        d = build_distribution(sc, g_table_for(sc), seed=1)
        rep = verify_realization(sc, d)
        assert rep.fully_realized
        for o in rep.outcomes:
            if o.instances:
                assert o.witness is not None

    def test_complete_template_always_realized(self):
        for seed in range(5):
            sc = complete_scenario(instances=3)
            d = build_distribution(sc, g_table_for(sc), seed=seed)
            assert verify_realization(sc, d).fully_realized

    def test_bottleneck_feasible_case_realized(self):
        t, sc = bottleneck_scenario(1)
        d = build_distribution(sc, g_table_for(sc), seed=0)
        assert isinstance(d, Distribution)
        assert verify_realization(sc, d).fully_realized

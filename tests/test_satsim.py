from dataclasses import replace
from math import inf
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hypertemplate import serialization as ser
from hypertemplate.cli import run
from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.template import TailPolicy, Template, complete_template
from hypertemplate.signature import (
    ParamType,
    analytic_g_table,
    equality_patterns,
    f_signature,
    first_difference,
    predicate_count,
)
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
from test_acceptance import saturation_scenario


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


def _limits(sc, limits):
    return replace(sc, instances=tuple(replace(i, limit=l) for i, l in zip(sc.instances, limits)))


_SC = complete_scenario()  # k = 2, depths (2, 3), limit stems of length 3
_FIRST, _SECOND = _SC.instances
# fault: (scenario, message, whether load_scenario lets it reach the verb)
SCENARIO_FAULTS = {
    "no index": (replace(_SC, depths=(), instances=()), "scenario needs at least one index", False),
    "one tuple for two indices": (
        replace(_SC, instances=(replace(_FIRST, per_index=_FIRST.per_index[:1]), _SECOND)),
        "instance 0 must carry one tuple per index",
        False,
    ),
    "limits of two lengths": (
        _limits(_SC, [_FIRST.limit, ParamType(stems=(_SECOND.limit.stems[0] + (0,),))]),
        "limit tuples must share a common stem length",
        True,
    ),
    "limits short of the deepest index": (
        _limits(_SC, [ParamType(stems=(i.limit.stems[0][:2],)) for i in _SC.instances]),
        "limit stems must reach every index depth",
        True,
    ),
    "limits apart at the bottleneck level": (
        _limits(bottleneck_scenario(2)[1], [ParamType(stems=((a, 0),)) for a in range(2)]),
        "the limit family is not consistent",
        True,
    ),
}


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

    @pytest.mark.parametrize("fault", sorted(SCENARIO_FAULTS))
    def test_fault_message(self, fault, tmp_path, capsys):
        sc, message, through_verb = SCENARIO_FAULTS[fault]
        for call in (lambda: validate_scenario(sc), lambda: build_distribution(sc, [inf] * 8, 0)):
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == message
        if through_verb:
            p = tmp_path / "s.hgs"
            p.write_text(ser.dump_scenario(sc))
            assert run(["simulate-saturation", str(p)]) == 2
            assert capsys.readouterr() == ("", f"input error: {message}\n")


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


def reference_agreement(t, a, b, depth):
    """The agreement level by its definition: build both types' depth-depth
    signatures and count the leading indices they share, capped at depth."""
    n = 0
    for x, y in zip(f_signature(t, a, depth).values, f_signature(t, b, depth).values):
        if x != y or n >= depth:
            break
        n += 1
    return min(n, depth)


@st.composite
def type_pairs(draw):
    """A template (k in 2..4, stored level sizes 1..4, so that size-1 levels
    bring deeper predicates below small depths; any tail growth) and two
    types of one stem length, the second keeping a prefix of the first's
    stems, each with an equality pattern that may merge variables and may
    differ from the other's; and a depth <= the stem length."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    t = Template(k, [(Hypergraph(k, s), 1) for s in sizes], TailPolicy("complete_growing", draw(st.integers(1, 2))))
    stem_len = draw(st.integers(1, 6))
    stem = st.tuples(*(st.integers(0, t.level_size(l) - 1) for l in range(stem_len)))

    def ptype(base):
        # each class's stem keeps a drawn prefix of base's stem for it
        eq = draw(st.sampled_from(equality_patterns(k - 1)))
        by_class = {}
        for c in sorted(set(eq)):
            keep = base[c][: draw(st.integers(0, stem_len))]
            by_class[c] = keep + draw(stem)[len(keep):]
        return ParamType(stems=tuple(by_class[c] for c in eq), equality=eq)

    a = ptype([()] * (k - 1))
    b = ptype(a.stems)
    return t, a, b, draw(st.integers(1, stem_len))


class TestClosedFormAgreement:
    @settings(max_examples=400, deadline=None)
    @given(type_pairs())
    def test_matches_signature_comparison(self, case):
        t, a, b, depth = case
        assert first_difference(t, a, b, depth) == reference_agreement(t, a, b, depth)
        assert first_difference(t, b, a, depth) == first_difference(t, a, b, depth)

    def test_every_pair_of_criterion_6_scenarios(self):
        # the 200 scenarios acceptance criterion 6 draws, in its order
        pairs, seed, scenarios = 0, 0, 0
        while scenarios < 200:
            seed += 1
            sc = saturation_scenario(Random(5000 + seed))
            if sc is None:
                continue
            scenarios += 1
            for a, inst in enumerate(sc.instances):
                for ti, (pt, d) in enumerate(zip(inst.per_index, sc.depths)):
                    assert agreement_level(sc, a, ti) == reference_agreement(sc.template, pt, inst.limit, d)
                    pairs += 1
        assert pairs == 1029


class TestMalformedScenarios:
    """Each scenario has one fault in instance 1, index 0 of a k = 3
    template; the messages are the ones f_signature and the table lookup
    raised when agreement_level built both signatures."""

    T = complete_template(3, 3)  # level sizes 1, 2, 3, ...
    GOOD = ParamType(stems=((0, 1), (0, 0)))
    LIMIT = ParamType(stems=((0, 1, 2), (0, 0, 1)))

    def scenario(self, per=GOOD, limit=LIMIT):
        other = Instance(limit=ParamType(stems=((0, 1, 0), (0, 0, 0))), per_index=(self.GOOD,))
        return Scenario(template=self.T, depths=(2,), instances=(other, Instance(limit=limit, per_index=(per,))))

    FAULTS = {
        "stem outside the tree": (dict(per=ParamType(stems=((0, 1), (0, 2)))), "parameter stem (0, 2) leaves the tree"),
        "three stems": (dict(per=ParamType(stems=((0, 1), (0, 0), (0, 0)))), "expected 2 stems, got 3"),
        "short second stem": (
            dict(per=ParamType(stems=((0, 1), (0,)))), "stems must have length >= 2 to answer all predicates"
        ),
        "non-canonical pattern": (
            dict(per=ParamType(stems=((0, 1), (0, 0)), equality=(1, 0))),
            "(1, 0) is not a canonical restricted growth string",
        ),
        "non-canonical limit pattern": (
            dict(limit=ParamType(stems=LIMIT.stems, equality=(1, 0))),
            "(1, 0) is not a canonical restricted growth string",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_message_from_both_entry_points(self, fault):
        kwargs, message = self.FAULTS[fault]
        sc = self.scenario(**kwargs)
        table = analytic_g_table(self.T, 1 + predicate_count(self.T, 2))
        for call in (lambda: build_distribution(sc, table, 0), lambda: agreement_level(sc, 1, 0)):
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == message

    def test_short_table_same_message(self):
        sc = self.scenario()
        assert [agreement_level(sc, a, 0) for a in (0, 1)] == [2, 2]
        for call in (lambda: build_distribution(sc, [3], 0), lambda: capacity(sc, 1, 0, [3])):
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == "G table of length 1 cannot answer level 2"

    @pytest.mark.parametrize("instances", [0, 1])
    def test_depths_below_one_rejected(self, instances):
        for depths in ((-1, 0), (0,), (2, 0)):
            insts = tuple(
                Instance(limit=self.LIMIT, per_index=tuple(ParamType(stems=(self.LIMIT.stems[0][:d],) * 2) for d in depths))
                for _ in range(instances)
            )
            sc = Scenario(template=self.T, depths=depths, instances=insts)
            with pytest.raises(InputError, match="depth must be >= 1"):
                validate_scenario(sc)
            with pytest.raises(InputError, match="depth must be >= 1"):
                build_distribution(sc, [inf] * 8, 0)

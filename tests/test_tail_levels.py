"""Levels past the stored prefix are read as complete, never built.

Every decision procedure runs on stems that reach one to three levels past
a two-level prefix, first as it is and then with Template.level, the one
tail level builder (through template._complete_cached), made to raise.  The
two runs must agree, so no procedure builds a tail level or reads a level
through Template.level: only the oracles do.
"""

from itertools import combinations
from random import Random

import pytest

from hypertemplate.satsim import Instance, Scenario, build_distribution, verify_realization
from hypertemplate.signature import ParamType, analytic_g_table
from hypertemplate.template import Template, random_template
from hypertemplate.theory import FiniteModel, check_model, close_existentially
from hypertemplate.tree import complete_to_leaf, einfty_prefix, enumerate_edge_partners
from hypertemplate.typecheck import (
    PositiveTypeSpec,
    QfFormulaSpec,
    decide_positive_type,
    decide_qf_formula,
    transfer_check,
)

DEPTH = 5  # stems reach three tail levels past the two stored ones


def _stem(t, rng, length):
    return tuple(rng.randrange(t.level_size(n)) for n in range(length))


def _results(t, seed):
    """Each procedure's results on inputs drawn from the seed alone, so
    both runs see the same ones."""
    rng = Random(seed)
    k, width = t.arity, t.arity - 1
    out = {}
    stems = [_stem(t, rng, DEPTH) for _ in range(3 * k)]

    params = tuple(tuple(rng.sample(stems, width)) for _ in range(2))
    x = _stem(t, rng, DEPTH - 1)
    out["decide_positive_type"] = [
        decide_positive_type(t, PositiveTypeSpec(params=params[:1])),
        decide_positive_type(t, PositiveTypeSpec(params=params, x_stem=x), DEPTH + 1),
    ]

    # nu repeats a vertex of every constraint tuple up to its own length,
    # so it forms the edges there; past it the tuples differ
    first = params[0]
    completed = []
    for count in (1, 2):
        length = t.stabilization_level(count) + 1
        constraints = [first] + [
            tuple(s[:length] + _stem(t, rng, DEPTH)[length:] for s in first) for _ in range(count - 1)
        ]
        completed.append(complete_to_leaf(t, first[0][:length], constraints, DEPTH))
    out["complete_to_leaf"] = completed

    out["einfty_prefix"] = [einfty_prefix(t, rng.sample(stems, k)) for _ in range(4)] + [
        einfty_prefix(t, [stems[0]] * k)
    ]

    leaves = stems[:4]
    out["decide_qf_formula"] = [
        decide_qf_formula(t, DEPTH, QfFormulaSpec(x_leaf=x, param_leaves=leaves, positive=positive))
        for x in (stems[4], leaves[0])
        for positive in (frozenset([tuple(range(width))]), frozenset(combinations(range(4), width)))
    ]

    edges = {frozenset(e) for e in combinations(range(len(stems)), k)}
    out["check_model"] = check_model(t, FiniteModel(k, DEPTH, stems, edges))

    m = 3
    model = FiniteModel(k, m, [s[:m] for s in stems[:k]], set())
    out["close_existentially"] = close_existentially(t, m, model, param_bound=1, budget=6)

    out["transfer_check"] = [transfer_check(t, m) for m in (1, 2)]  # stabilization levels 0 and 1

    out["enumerate_edge_partners"] = [enumerate_edge_partners(t, s, d) for s in stems[:2] for d in range(DEPTH + 1)]

    # the limits share their stored levels, so the family is consistent;
    # each approximation keeps a random part of its limit
    stored = _stem(t, rng, t.prefix_len)
    depths = (3, 4, DEPTH)
    instances = []
    for _ in range(4):
        limit = tuple(stored + _stem(t, rng, DEPTH)[t.prefix_len:] for _ in range(width))
        per_index = []
        for d in depths:
            keep = rng.randint(0, d)
            per_index.append(ParamType(stems=tuple(s[:keep] + _stem(t, rng, d)[keep:] for s in limit)))
        instances.append(Instance(limit=ParamType(stems=limit), per_index=tuple(per_index)))
    sc = Scenario(template=t, depths=depths, instances=tuple(instances))
    dist = build_distribution(sc, analytic_g_table(t, max(depths)), seed)
    out["build_distribution"] = dist
    out["verify_realization"] = verify_realization(sc, dist)
    return out


def _refuse(t, n):
    raise AssertionError(f"read level {n} through Template.level")


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_procedures_never_build_a_tail_level(k, seed, monkeypatch):
    t = random_template(k, [3, 4], 0.8, [1, 2], seed=seed)
    expected = _results(t, seed)
    monkeypatch.setattr(Template, "level", _refuse)
    with pytest.raises(AssertionError, match="through Template.level"):
        t.level_hypergraph(t.prefix_len)  # the one builder, for the oracles
    assert _results(t, seed) == expected

"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every criterion is phrased against an independent check (brute-force
oracles, post-hoc validation, byte comparison), never against the code
under test's own bookkeeping.
"""

import itertools
import sys
from math import comb, inf
from pathlib import Path
from random import Random

from hypertemplate import m_star, serialization as ser
from hypertemplate.cli import run
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.oracle import brute_force_positive_type
from hypertemplate.signature import (
    F_estimate,
    G_estimate,
    ParamType,
    SearchBudget,
    analytic_f_bound,
    analytic_g_table,
    family_consistent,
    predicate_count,
)
from hypertemplate.satsim import (
    Distribution,
    Infeasible,
    Instance,
    Scenario,
    build_distribution,
    verify_realization,
)
from hypertemplate.template import (
    TailPolicy,
    Template,
    complete_template,
    corrupt_level,
    random_template,
    validate,
)
from hypertemplate.theory import build_random_model, amalgamate, check_model
from hypertemplate.tree import complete_to_leaf, einfty_prefix
from hypertemplate.typecheck import PositiveTypeSpec, decide_positive_type, transfer_check
from test_transfer_closed_form import smallest_family


def report(criterion: str, passed: bool, detail: str) -> None:
    line = f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def small_template(rng: Random) -> Template:
    k = rng.choice((2, 3))
    depth = rng.randint(1, 4)
    sizes, target = [], []
    for _ in range(depth):
        size = rng.randint(k, 4)
        sizes.append(size)
        target.append(rng.randint(1, min(2, size)))
    return random_template(k, sizes, rng.uniform(0.4, 0.95), target, seed=rng.randrange(2**30))


def random_spec(t: Template, rng: Random) -> PositiveTypeSpec:
    count = rng.randint(1, 2)
    stem_len = rng.randint(1, 2)
    params = tuple(
        tuple(
            tuple(rng.randrange(t.level_size(n)) for n in range(stem_len))
            for _ in range(t.arity - 1)
        )
        for _ in range(count)
    )
    x_stem = None
    if rng.random() < 0.3:
        x_stem = tuple(
            rng.randrange(t.level_size(n)) for n in range(rng.randint(1, stem_len))
        )
    return PositiveTypeSpec(params=params, x_stem=x_stem)


def test_criterion_1_oracle_equivalence():
    disagreements = 0
    checked = 0
    for seed in range(200):
        rng = Random(seed)
        t = small_template(rng)
        for _ in range(500):
            spec = random_spec(t, rng)
            depth = max(
                spec.common_length(),
                m_star(t, len(spec.params)) + 1,
                len(spec.x_stem or ()),
            )
            dec = decide_positive_type(t, spec, depth)
            o_cons, o_wit = brute_force_positive_type(t, spec, depth)
            checked += 1
            if dec.consistent != o_cons or dec.witness != o_wit:
                disagreements += 1
    report(
        "criterion 1",
        disagreements == 0,
        f"decide_positive_type vs brute force: {disagreements} disagreements"
        f" over {checked} specs (200 templates x 500 specs)",
    )


def test_criterion_2_completion_soundness():
    failures = 0
    completions = 0
    for seed in range(100):
        rng = Random(1000 + seed)
        t = small_template(rng)
        assert validate(t, t.prefix_len).valid
        runs = 0
        while runs < 1000:
            m = rng.randint(0, 2)
            target = t.stabilization_level(max(1, m)) + rng.randint(1, 3)
            cons = [
                tuple(
                    tuple(rng.randrange(t.level_size(n)) for n in range(target))
                    for _ in range(t.arity - 1)
                )
                for _ in range(m)
            ]
            # grow a hypothesis-satisfying nu; resample constraints when a
            # level admits no coordinate at all
            min_len = t.stabilization_level(max(1, m)) + 1
            nu = []
            ok = True
            for n in range(min_len):
                h = t.level_hypergraph(n)
                picks = [
                    s
                    for s in range(h.size)
                    if all(h.is_edge((s,) + tuple(c[n] for c in tup)) for tup in cons)
                ]
                if not picks:
                    ok = False
                    break
                nu.append(rng.choice(picks))
            if not ok:
                continue
            runs += 1
            try:
                out = complete_to_leaf(t, tuple(nu), cons, target)
            except Exception:
                failures += 1
                continue
            completions += 1
            for tup in cons:
                if not einfty_prefix(t, [out] + [s[:target] for s in tup]):
                    failures += 1
                    break
    report(
        "criterion 2",
        failures == 0,
        f"complete_to_leaf: {failures} failures over {completions} completions"
        " (100 templates x 1000 inputs)",
    )


def transfer_template(rng: Random) -> tuple[Template, int]:
    """A validated template whose arities stabilize inside the prefix."""
    k = rng.choice((2, 3))
    m = rng.randint(1, 3)
    first = rng.randint(k, 4)
    sizes = [first, 4, 4]
    target = [rng.randint(1, min(2, first)), min(3, max(m, 2)), min(3, max(m, 2))]
    t = random_template(k, sizes, rng.uniform(0.6, 0.95), target, seed=rng.randrange(2**30))
    return t, m


def test_criterion_3_qe_transfer():
    bad = 0
    for seed in range(50):
        rng = Random(2000 + seed)
        t, m = transfer_template(rng)
        assert validate(t, t.prefix_len).valid
        rep = transfer_check(t, m, trials=1000, seed=seed)
        bad += len(rep.counterexamples)

    detected = 0
    breaking = 0
    corrupted_runs = 25
    for seed in range(corrupted_runs):
        rng = Random(3000 + seed)
        t, m = transfer_template(rng)
        # a formula with one demanded edge extends via repetition no matter
        # what, so detection needs at least two edges in play
        m = max(m, 2)
        ms = m_star(t, m)
        broken = corrupt_level(t, ms, keep_fraction=0.0, seed=seed)
        rep = transfer_check(broken, m, trials=400, seed=seed)
        # the decision must agree with a walk over every small family at m*
        span = 2 * (t.arity - 1)
        breaks = smallest_family(broken.level_hypergraph(ms), min(m, comb(span, t.arity - 1)), span) is not None
        assert rep.exhaustive and rep.holds == (not breaks), seed
        breaking += breaks
        if rep.counterexamples:
            detected += 1
    power = detected / corrupted_runs
    report(
        "criterion 3",
        bad == 0 and power >= 0.8,
        f"transfer_check: {bad} counterexamples on 50 valid templates x 1000"
        f" trials; corruption detected in {power:.0%} of {corrupted_runs} runs, each"
        f" verdict matching the family walk ({breaking} break transfer)",
    )


def random_extension(t, base, extra, edge_prob, rng):
    out = base.copy()
    first_new = len(out.leaves)
    stems = [
        tuple(rng.randrange(t.level_size(n)) for n in range(out.level))
        for _ in range(extra)
    ]
    out.leaves.extend(stems)
    for sub in itertools.combinations(range(len(out.leaves)), t.arity):
        if max(sub) < first_new:
            continue
        leaf = [out.leaves[i] for i in sub]
        if all(
            t.level_hypergraph(n).is_edge(tuple(s[n] for s in leaf))
            for n in range(out.level)
        ):
            if rng.random() < edge_prob:
                out.edges.add(frozenset(sub))
    return out


def test_criterion_4_amalgamation():
    violations = 0
    for seed in range(1000):
        rng = Random(4000 + seed)
        t = small_template(rng)
        m = rng.randint(1, min(2, t.prefix_len))
        base = build_random_model(t, m, 1, rng.random(), seed=seed)
        emb = tuple(range(len(base)))
        m1 = random_extension(t, base, rng.randint(0, 2), rng.random(), rng)
        m2 = random_extension(t, base, rng.randint(0, 2), rng.random(), rng)
        union = amalgamate(t, base, m1, m2, emb, emb)
        if check_model(t, union):
            violations += 1
    report(
        "criterion 4",
        violations == 0,
        f"amalgamation: {violations} invalid unions over 1000 random triples",
    )


def bottleneck_template() -> Template:
    return Template(2, [(Hypergraph(2, 2), 1)], TailPolicy("complete_growing", 1))


def test_criterion_5_signature_machinery():
    budget = SearchBudget(stem_depth=3, families=300, seed=0)
    complete = complete_template(3, 3)
    ok = True
    notes = []
    for s in range(1, 6):
        est = F_estimate(complete, s, budget)
        if not (est.exact and est.upper_bound == 0):
            ok = False
            notes.append(f"F({s}) != 0 exact")
    for n in range(0, 11):
        est = G_estimate(complete, n, budget)
        if not (est.exact and est.value == inf):
            ok = False
            notes.append(f"G({n}) != inf exact")

    t = bottleneck_template()
    est = F_estimate(t, 2, budget)
    if est.upper_bound > est.analytic_bound or est.analytic_bound != analytic_f_bound(t, 2):
        ok = False
        notes.append("upper bound exceeds analytic bound")
    if len(est.certificates) != est.lower_bound:
        ok = False
        notes.append("certificate count mismatch")
    for ce in est.certificates:
        # replay: the stored families must reproduce their verdicts
        if not family_consistent(t, ce.consistent_family):
            ok = False
            notes.append("consistent certificate family fails replay")
        if family_consistent(t, ce.inconsistent_family):
            ok = False
            notes.append("inconsistent certificate family fails replay")
    report(
        "criterion 5",
        ok,
        "complete template F=0/G=inf exact; fixed template"
        f" F(2) in [{est.lower_bound}, {est.upper_bound}] <= analytic"
        f" {est.analytic_bound}, {len(est.certificates)} certificates replayed"
        + ("" if ok else "; " + "; ".join(notes)),
    )


def saturation_scenario(rng: Random) -> Scenario:
    if rng.random() < 0.3:
        t = complete_template(rng.choice((2, 3)), rng.randint(2, 4))
    else:
        t = small_template(rng)
    depths = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    lim_len = max(depths) + rng.randint(0, 1)
    insts = []
    for _ in range(rng.randint(1, 4)):
        for _ in range(30):
            limit = ParamType(
                stems=tuple(
                    tuple(rng.randrange(t.level_size(n)) for n in range(lim_len))
                    for _ in range(t.arity - 1)
                )
            )
            trial = insts + [Instance(limit=limit, per_index=())]
            spec = PositiveTypeSpec(params=tuple(i.limit.stems for i in trial))
            depth = max(lim_len, m_star(t, len(trial)) + 1)
            if decide_positive_type(t, spec, depth).consistent:
                break
        else:
            continue
        per = []
        for d in depths:
            keep = rng.randint(0, d)
            stems = tuple(
                s[:keep] + tuple(rng.randrange(t.level_size(n)) for n in range(keep, d))
                for s in limit.stems
            )
            per.append(ParamType(stems=stems))
        insts.append(Instance(limit=limit, per_index=tuple(per)))
    if not insts:
        return None
    return Scenario(template=t, depths=depths, instances=tuple(insts))


def test_criterion_6_saturation_surrogate():
    feasible = infeasible = failures = 0
    scenarios = 0
    seed = 0
    while scenarios < 200:
        seed += 1
        rng = Random(5000 + seed)
        sc = saturation_scenario(rng)
        if sc is None:
            continue
        scenarios += 1
        n_max = max(1 + predicate_count(sc.template, max(sc.depths)), max(sc.depths) + 1)
        table = analytic_g_table(sc.template, n_max)
        d = build_distribution(sc, table, seed=seed)
        if isinstance(d, Infeasible):
            infeasible += 1
            continue
        feasible += 1
        rep = verify_realization(sc, d)
        failures += len(rep.failures)

    # pigeonhole: one index of capacity 1, two instances demanding a slot
    t = bottleneck_template()
    insts = tuple(
        Instance(
            limit=ParamType(stems=((0, 0),)),
            per_index=(ParamType(stems=((a, 1),)),),
        )
        for a in range(2)
    )
    sc = Scenario(template=t, depths=(2,), instances=insts)
    table = analytic_g_table(t, 1 + predicate_count(t, 2))
    pigeon = build_distribution(sc, table, seed=0)
    report(
        "criterion 6",
        failures == 0 and feasible >= 100 and isinstance(pigeon, Infeasible),
        f"saturation: {failures} realization failures over {feasible} feasible"
        f" scenarios ({infeasible} infeasible of {scenarios});"
        f" pigeonhole reported {type(pigeon).__name__}",
    )


def test_criterion_7_determinism_and_formats(tmp_path):
    ok = True
    notes = []

    tpl = random_template(3, [4, 4], 0.85, [1, 2], seed=3)
    tpl_path = tmp_path / "t.tpl"
    tpl_path.write_text(ser.dump_template(tpl))

    # byte-identical CLI output across two runs
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        run(["qe-transfer", str(tpl_path), "--m", "2", "--seed", "6", "--out", str(out)])
        outs.append(out.read_bytes())
    if outs[0] != outs[1]:
        ok = False
        notes.append("repeat runs differ")

    # round-trips for every serialized artifact
    if ser.load_template(ser.dump_template(tpl)) != tpl:
        ok = False
        notes.append("template round-trip")
    model = build_random_model(tpl, 2, 1, 0.5, seed=1)
    back = ser.load_model(ser.dump_model(model))
    if back.leaves != model.leaves or back.edges != model.edges:
        ok = False
        notes.append("model round-trip")
    spec = PositiveTypeSpec(params=(((0, 1), (1, 0)),), x_stem=(0,))
    if ser.load_typespec(ser.dump_typespec(spec, 3)) != (spec, 3):
        ok = False
        notes.append("typespec round-trip")
    t2 = complete_template(2, 3)
    sc = Scenario(
        template=t2,
        depths=(2,),
        instances=(
            Instance(
                limit=ParamType(stems=((0, 1),)),
                per_index=(ParamType(stems=((0, 1),)),),
            ),
        ),
    )
    if ser.load_scenario(ser.dump_scenario(sc)) != sc:
        ok = False
        notes.append("scenario round-trip")

    report(
        "criterion 7",
        ok,
        "byte-identical repeat runs, all four formats"
        " round-trip" + ("" if ok else "; " + "; ".join(notes)),
    )

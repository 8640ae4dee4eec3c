"""Signature functions F and G, and the saturation surrogate end to end.

Run:  python3 demos/03_signatures_and_saturation.py
"""

from hypertemplate import (
    F_estimate,
    G_estimate,
    Hypergraph,
    Instance,
    ParamType,
    Scenario,
    TailPolicy,
    Template,
    analytic_g_table,
    build_distribution,
    complete_template,
    f_signature,
    predicate_count,
    verify_realization,
)

# On the complete template every family of positive instances is
# consistent, so no agreement at all is needed: F = 0, G = infinity.
c = complete_template(3, 3)
print("complete template:")
print("  F(3) =", F_estimate(c, 3).upper_bound)
print("  G(5) =", G_estimate(c, 5).value)
print()

# A template with a real bottleneck: level 0 has two vertices, no uniform
# edges, and arity 1.  Instances that disagree at level 0 clash.
b = Template(2, [(Hypergraph(2, 2), 1)], TailPolicy("complete_growing", 1))
est = F_estimate(b, 2)
print("bottleneck template:")
print(f"  F(2) in [{est.lower_bound}, {est.upper_bound}],"
      f" analytic bound {est.analytic_bound}")
print(f"  {len(est.certificates)} counterexample certificates"
      " for the refuted agreement depths")

sig = f_signature(b, ParamType(stems=((0, 1, 0),)), 3)
print("  a signature:", sig.values)
print()

# Saturation surrogate: distribute instances over finite indices with
# capacities from the analytic G table, then verify realization per index.
# depth 3 gives enough signature agreement to clear the level-0
# bottleneck: G(3) = 3, so three instances fit on one index
depths = (3, 3)
insts = []
for a in range(3):
    limit = ((0, a % 2, 0),)
    insts.append(Instance(
        limit=ParamType(stems=limit),
        per_index=tuple(ParamType(stems=limit) for _ in depths),
    ))
sc = Scenario(template=b, depths=depths, instances=tuple(insts))
table = analytic_g_table(b, 1 + predicate_count(b, max(depths)))
print("capacity table:", table)

dist = build_distribution(sc, table, seed=0)
print("assignment:", [sorted(s) for s in dist.assigned])
rep = verify_realization(sc, dist)
for o in rep.outcomes:
    print(f"  index {o.index}: instances {list(o.instances)},"
          f" consistent={o.consistent}, witness={o.witness}")
print("fully realized:", rep.fully_realized)

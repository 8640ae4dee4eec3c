"""Decide positive types and qf formulas; decide the level transfer exactly.

Run:  python3 demos/02_decision_procedures.py
"""

from hypertemplate import (
    Hypergraph,
    PositiveTypeSpec,
    QfFormulaSpec,
    TailPolicy,
    Template,
    brute_force_positive_type,
    corrupt_level,
    decide_positive_type,
    decide_qf_formula,
    random_template,
    transfer_check,
)

# A template whose level 0 has no uniform edges: the only level-0 edges
# come from repeated entries, which constrains witnesses sharply.
t = Template(3, [(Hypergraph(3, 4), 1)], TailPolicy("complete_growing", 1))

# One positive constraint R(x, a, b) with a, b on distinct level-0 stems:
# the witness must repeat one of the two level-0 values.
spec = PositiveTypeSpec(params=(((0,), (1,)),))
dec = decide_positive_type(t, spec, check_depth=2)
print("single constraint:", dec)

# Two constraints on four distinct vertices clash at level 0.  With no
# depth given the procedure checks down to the least sound one.
clash = PositiveTypeSpec(params=(((0,), (1,)), ((2,), (3,))))
dec = decide_positive_type(t, clash)
print("disjoint pair:", dec)

# The level-wise procedure agrees with brute-force stem enumeration at the
# depth the decision was made at.
print("oracle agrees:", brute_force_positive_type(t, clash, dec.depth))
print()

# Complete quantifier-free formulas: demanded edges must survive every
# level, and a demanded edge may not collide with a demanded non-edge.
qf = QfFormulaSpec(x_leaf=(0,), param_leaves=((1,), (2,)),
                   positive=frozenset({(0, 1)}))
print("edge through an empty level:", decide_qf_formula(t, 1, qf))
qf0 = QfFormulaSpec(x_leaf=(0,), param_leaves=((1,), (2,)),
                    positive=frozenset())
print("no demanded edges:", decide_qf_formula(t, 1, qf0))
print()

# The transfer property: a formula consistent at the stabilization level
# stays consistent one level up, for every extension of its parameters.
# It depends on level m* alone, so transfer_check decides it by one search
# there: on a valid template the search finds no witness-free family and so
# proves it; corrupt the stabilization level and the search returns a
# smallest failing formula.
r = random_template(3, [4, 4, 4], 0.85, [1, 2, 2], seed=5)
rep = transfer_check(r, m=2)
print(f"valid template: holds {rep.holds}, exhaustive {rep.exhaustive}"
      f" (m* = {rep.m_star})")

broken = corrupt_level(r, rep.m_star, keep_fraction=0.0)
rep = transfer_check(broken, m=2)
(c,) = rep.counterexamples
print(f"corrupted template: holds {rep.holds}; demanded edges"
      f" {sorted(c.spec.positive)} fail once the parameters extend to"
      f" {[leaf[-1] for leaf in c.extension]} at level {rep.m_star}")

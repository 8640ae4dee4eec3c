"""Decision procedures for positive R-types, complete qf formulas and level
transfer.

The load-bearing observation: the witness search for a new element
decomposes level by level, because the coordinate chosen at level n is
constrained only by level-n edges.  That turns positive-type consistency
into a per-level scan (tree._scan_levels, shared with completion and the
agreement test, and stopped where x, the stems or the stored levels end,
as past them vertex 0 is a witness) instead of a search over whole stems;
the brute-force stem enumeration in oracle.py confirms the routes agree.
Level transfer decomposes the same way: it depends on the stabilization
level alone, where one bounded smallest-cover search decides it (oracle.py
samples formulas instead).  Each procedure checks its input once, on
entry, and then scans the levels with the hypergraphs' unchecked helpers,
which trust their callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .errors import InputError, PreconditionError
from .hypergraph import Hypergraph
from .template import Template
from .tree import Stem, TypeDecision, _scan_levels, require_in_tree


# -- positive R-types ------------------------------------------------------


@dataclass(frozen=True)
class PositiveTypeSpec:
    """t positive constraints R(x, rho^i) on a new element x, with an
    optional required stem for x.  Parameters denote pairwise distinct
    elements sitting on the given leaf prefixes (common length L);
    coordinates beyond L are completed canonically with least vertices."""

    params: tuple[tuple[Stem, ...], ...]
    x_stem: Optional[Stem] = None

    def common_length(self) -> int:
        if not self.params:
            return 0
        return len(self.params[0][0])


def _validated_params(t: Template, spec: PositiveTypeSpec) -> list[list[Stem]]:
    rows = []
    length = None
    for i, tup in enumerate(spec.params):
        if len(tup) != t.arity - 1:
            raise InputError(f"parameter tuple {i} must hold {t.arity - 1} stems")
        stems = [require_in_tree(t, s, f"parameter {i} stem") for s in tup]
        for s in stems:
            if length is None:
                length = len(s)
            elif len(s) != length:
                raise InputError("parameter stems must share a common length")
        rows.append(stems)
    return rows


def decide_positive_type(
    t: Template, spec: PositiveTypeSpec, check_depth: Optional[int] = None
) -> TypeDecision:
    """Decide whether {R(x, rho^i) : i < t} plus the x-stem constraint is
    consistent with the template's full theory.

    Levels are independent: consistent iff each level below check_depth has
    a witness vertex forming an edge with every parameter tuple there.
    Past check_depth the declared arities guarantee witnesses, because
    check_depth must exceed the stabilization level for t constraints; it
    defaults to the least sound depth, the larger of that level + 1 and the
    stems' common length.  Below it the scan stops where x, the stems or
    the stored levels end, since past them vertex 0 is a witness (past the
    stored levels, complete, x is kept).  Returns the canonical
    least-per-level witness stem, padded with 0 to check_depth, when
    consistent; the decision carries check_depth as ``depth``.
    """
    rows = _validated_params(t, spec)
    needed = max(spec.common_length(), t.stabilization_level(max(1, len(rows))) + 1)
    check_depth = needed if check_depth is None else check_depth
    if check_depth < needed:
        raise InputError(f"check_depth {check_depth} below required bound {needed}")
    x = ()
    if spec.x_stem is not None:
        x = require_in_tree(t, spec.x_stem, "x_stem")
        if len(x) > check_depth:
            raise InputError("x_stem longer than check_depth")
    if rows:
        dec = _scan_levels(t._graphs[: max(spec.common_length(), len(x))], rows, x)
        if not dec.consistent:
            return TypeDecision(False, None, dec.failing_level, check_depth)
        x = dec.witness
    return TypeDecision(True, x + (0,) * (check_depth - len(x)), None, check_depth)


# -- complete quantifier-free formulas -------------------------------------


@dataclass(frozen=True)
class QfFormulaSpec:
    """A complete qf formula phi(x, a_1..a_n) at level m.

    Parameters carry leaf stems of length m; ``equality`` is a restricted
    growth string identifying which parameters the formula declares equal;
    ``positive`` holds the increasing (k-1)-tuples of parameter indices the
    formula connects to x; every other increasing tuple is a declared
    non-edge.  x itself is declared distinct from all parameters."""

    x_leaf: Stem
    param_leaves: tuple[Stem, ...]
    positive: frozenset[tuple[int, ...]]
    equality: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.param_leaves)
        eq = self.equality if self.equality else tuple(range(n))
        object.__setattr__(self, "equality", eq)
        if len(eq) != n:
            raise InputError("equality pattern length must match parameter count")
        for j, c in enumerate(eq):
            if c > max(eq[:j], default=-1) + 1 or c < 0:
                raise InputError(f"equality pattern {eq} is not a restricted growth string")
        for tup in self.positive:
            if list(tup) != sorted(set(tup)) or any(i < 0 or i >= n for i in tup):
                raise InputError(f"positive edge {tup} is not an increasing tuple of parameter indices")


def decide_qf_formula(
    t: Template, m: int, spec: QfFormulaSpec, for_limit_theory: bool = False
) -> bool:
    """Consistency of a complete qf formula with the level-m theory.

    Holds iff (i) the equality pattern matches the parameter stems, (ii) no
    demanded edge repeats an element or collides, up to permutation, with a
    demanded non-edge, (iii) every demanded edge survives all m levels.
    Non-edges impose nothing further: inside allowed tuples the edge
    relation behaves like a random hypergraph.  for_limit_theory (the
    demanded edges persist to all levels) changes nothing: x and the
    parameters have length m, so past level m every demanded tuple is
    padded with vertex 0 and is an edge.
    """
    x = require_in_tree(t, spec.x_leaf, "x_leaf")
    if len(x) != m:
        raise InputError(f"x_leaf must have length {m}")
    leaves = [require_in_tree(t, s, "parameter leaf") for s in spec.param_leaves]
    if any(len(s) != m for s in leaves):
        raise InputError(f"parameter leaves must have length {m}")
    if any(len(tup) != t.arity - 1 for tup in spec.positive):
        raise InputError(f"positive edges must be {t.arity - 1}-tuples")
    eq = spec.equality
    # (i) equal parameters must sit on identical leaves
    for i, j in combinations(range(len(leaves)), 2):
        if eq[i] == eq[j] and leaves[i] != leaves[j]:
            return False
    # (ii) R is irreflexive: an edge repeating an element is impossible, and
    # a positive edge must not be a permutation of a declared non-edge
    pos_classes = set()
    for tup in spec.positive:
        classes = tuple(sorted(eq[i] for i in tup))
        if len(set(classes)) < len(classes):
            return False
        pos_classes.add(classes)
    for tup in combinations(range(len(leaves)), t.arity - 1):
        if tup in spec.positive:
            continue
        if tuple(sorted(eq[i] for i in tup)) in pos_classes:
            return False
    # (iii) demanded edges survive every level below m
    for tup in spec.positive:
        if not all(map(Hypergraph._has, t._graphs[:m], zip(x, *(leaves[i] for i in tup)))):
            return False
    return True


# -- the level-transfer experiment -----------------------------------------


@dataclass(frozen=True)
class TransferCounterexample:
    """A complete qf formula consistent at level m* and an extension of its
    parameter leaves to level m* + 1 under which no x satisfies it.
    ``trial`` numbers the oracle's sampled trial; the exact decision leaves
    it None."""

    spec: QfFormulaSpec
    extension: tuple[tuple[int, ...], ...]  # extended parameter leaves
    trial: Optional[int] = None


@dataclass(frozen=True)
class TransferReport:
    m: int
    m_star: int
    counterexamples: tuple[TransferCounterexample, ...]
    exhaustive: bool = True

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def transfer_check(
    t: Template, m: int, trials: int = 1, seed: int = 0, workers: int = 1
) -> TransferReport:
    """Decide the level-transfer property: a complete qf formula with up to
    2(k-1) parameters and at most m demanded edges that is consistent at the
    stabilization level ms stays consistent at ms + 1 under every one-level
    extension of its parameter leaves.

    The outcome depends on level ms alone.  Past the equality pattern,
    consistency checks only the demanded edges, and every set of demanded
    edges has a formula consistent at ms: x and every parameter on one stem,
    so each demanded tuple repeats a vertex below ms.  So transfer fails
    exactly when level ms has a family of at most min(m, C(2(k-1), k-1))
    distinct (k-1)-sets, on at most 2(k-1) vertices in all, with no common
    witness.  One smallest-cover search over level ms, restricted to such
    families, decides it: when it finds none the result holds, with proof;
    a found family gives the one counterexample: x and every parameter on
    the stem (0,) * ms, parameter i extended by the family's i-th vertex.
    ``exhaustive`` is False when the node bound stopped the search; the
    report then holds no counterexample and proves nothing.  trials, seed
    and workers change nothing (the sampled trials live on as
    oracle.naive_transfer_check); they stay, with defaults, for old
    callers, and trials and workers must still be >= 1."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    ms = t.stabilization_level(m)
    if t.prefix_len < ms + 1:
        raise PreconditionError(
            f"prefix depth {t.prefix_len} below stabilization level {ms} + 1"
        )
    span = 2 * (t.arity - 1)
    cap = min(m, comb(span, t.arity - 1))
    chk = t._graphs[ms].check_extension_property(cap, span)
    ces = ()
    if chk.counterexample:
        verts = sorted({v for tup in chk.counterexample for v in tup})
        stem = (0,) * ms
        spec = QfFormulaSpec(
            x_leaf=stem,
            param_leaves=(stem,) * len(verts),
            positive=frozenset(tuple(map(verts.index, tup)) for tup in chk.counterexample),
        )
        ces = (TransferCounterexample(spec, tuple(stem + (v,) for v in verts)),)
    return TransferReport(m, ms, ces, chk.exhaustive)

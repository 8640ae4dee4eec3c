"""Signature functions for parameter types, and the agreement test.

A parameter type (an equality pattern plus k-1 leaf stems) is encoded as a
sequence of natural-number codes: position 0 codes the equality pattern,
position m >= 1 codes, as a bitmask over the variables, which of them sit
under the m-th predicate in a canonical enumeration.  Agreement of two
types on a prefix of these codes pins their leaf data down to a tree level,
which is what makes the consistency-preservation test meaningful.

The layout has a closed form.  Predicates are ordered by length, then
lexicographically, so the predicate of stem prefix p sits at index
1 + (number of shorter predicates) + (mixed-radix rank of p over the level
sizes).  A type's stems extend at most (k-1) * depth predicates, so every
other value is 0 and a signature costs O(k * depth) to fill in;
``oracle.naive_f_signature`` keeps the enumeration as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, product
from math import inf
from operator import mul
from random import Random
from typing import Optional, Sequence, Union

from .errors import InputError
from .template import Template
from .tree import Stem, _scan_levels, require_in_tree
from .typecheck import PositiveTypeSpec, decide_positive_type

# -- canonical enumerations ------------------------------------------------


def equality_patterns(variables: int) -> list[tuple[int, ...]]:
    """All equivalence relations on {0..variables-1} as restricted growth
    strings, discrete relation first, then by decreasing class count, ties
    broken lexicographically.

    Published table (k <= 4):
      1 var: (0,)
      2 vars: (0,1) (0,0)
      3 vars: (0,1,2) (0,0,1) (0,1,0) (0,1,1) (0,0,0)
    """
    if variables < 1:
        raise InputError("need at least one variable")

    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], top: int):
        if len(prefix) == variables:
            out.append(tuple(prefix))
            return
        for c in range(top + 2):
            grow(prefix + [c], max(top, c))

    grow([], -1)
    out.sort(key=lambda p: (-len(set(p)), p))
    return out


@lru_cache(maxsize=16)
def _pattern_codes(variables: int) -> dict[tuple[int, ...], int]:
    return {p: i for i, p in enumerate(equality_patterns(variables))}


def pattern_index(pattern: Sequence[int]) -> int:
    pattern = tuple(pattern)
    code = _pattern_codes(len(pattern)).get(pattern)
    if code is None:
        raise InputError(f"{pattern} is not a canonical restricted growth string")
    return code


def predicate_enumeration(t: Template, depth: int) -> list[Stem]:
    """All tree stems of length 1..depth, ordered by length then
    lexicographically: the canonical predicate order."""
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    out: list[Stem] = []
    for n in range(1, depth + 1):
        out.extend(
            tuple(s) for s in product(*(range(t.level_size(l)) for l in range(n)))
        )
    return out


def predicate_count(t: Template, depth: int) -> int:
    """Number of enumerated predicates of length <= depth."""
    total = 0
    prod = 1
    for n in range(1, depth + 1):
        prod *= t.level_size(n - 1)
        total += prod
    return total


def coverage_level(t: Template, n: int) -> int:
    """Largest tree level L such that all predicates of length <= L have
    signature index < n (index 0 is the equality code)."""
    L = 0
    while predicate_count(t, L + 1) <= n - 1:
        L += 1
    return L


# -- signatures ------------------------------------------------------------


@dataclass(frozen=True)
class ParamType:
    """The empty-set type of one parameter tuple: k-1 leaf stems of a
    common length, plus the equality pattern among the variables.
    Variables declared equal must carry identical stems."""

    stems: tuple[Stem, ...]
    equality: tuple[int, ...] = ()

    def __post_init__(self):
        v = len(self.stems)
        eq = self.equality if self.equality else tuple(range(v))
        object.__setattr__(self, "equality", eq)
        if len(eq) != v:
            raise InputError("equality pattern length must match variable count")
        for i in range(v):
            for j in range(i + 1, v):
                if eq[i] == eq[j] and self.stems[i] != self.stems[j]:
                    raise InputError("equal variables must carry identical stems")

    @property
    def stem_length(self) -> int:
        return len(self.stems[0]) if self.stems else 0


@dataclass(frozen=True)
class SignatureFunction:
    values: tuple[int, ...]
    depth: int  # tree depth covered by the enumeration

    def restrict(self, n: int) -> tuple[int, ...]:
        return self.values[:n]


def f_signature(t: Template, ptype: ParamType, depth: int) -> SignatureFunction:
    """Code the type: value 0 is the equality-pattern index, value m >= 1
    is the bitmask of variables whose stem extends the m-th predicate.

    The predicate of stem prefix p sits at 1 + (number of predicates
    shorter than p) + (mixed-radix rank of p), so only the (k-1) * depth
    prefixes of the stems are written; every other value is 0."""
    if len(ptype.stems) != t.arity - 1:
        raise InputError(f"expected {t.arity - 1} stems, got {len(ptype.stems)}")
    stems = [require_in_tree(t, s, "parameter stem") for s in ptype.stems]
    if any(len(s) < depth for s in stems):
        raise InputError(f"stems must have length >= {depth} to answer all predicates")
    code = pattern_index(ptype.equality)
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    sizes = [t.level_size(l) for l in range(depth)]
    # the index of each length's first predicate, then one past the last
    offsets = list(accumulate(accumulate(sizes, mul), initial=1))
    values = [0] * offsets.pop()
    values[0] = code
    for j, s in enumerate(stems):
        rank = 0
        for l, offset in enumerate(offsets):
            rank = rank * sizes[l] + s[l]
            values[offset + rank] |= 1 << j
    return SignatureFunction(tuple(values), depth)


# -- the agreement test ----------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    stem_depth: int = 3
    families: int = 300
    resamples: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("stem_depth", "families", "resamples"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")


Family = tuple[ParamType, ...]


@dataclass(frozen=True)
class OplusCounterexample:
    consistent_family: Family
    inconsistent_family: Family
    agreement: int


@dataclass(frozen=True)
class OplusResult:
    s: int
    n: int
    holds_up_to_budget: bool
    counterexample: Optional[OplusCounterexample]
    families_tried: int
    analytic: bool = False  # True when holding is proved, not just unrefuted


def family_consistent(t: Template, family: Family) -> bool:
    """Whether the s positive instances over these parameter tuples form a
    joint type.  A tuple whose pattern merges two variables can never head
    a positive instance (the edge relation is irreflexive), so such types
    fall outside the admissible set and the family is rejected."""
    if any(len(set(pt.equality)) < len(pt.equality) for pt in family):
        return False
    spec = PositiveTypeSpec(params=tuple(pt.stems for pt in family))
    return decide_positive_type(t, spec).consistent


def _sample_stems(sizes: Sequence[int], variables: int, rng: Random) -> tuple[Stem, ...]:
    return tuple(tuple(rng.randrange(m) for m in sizes) for _ in range(variables))


def _sample_matching(
    base: tuple[Stem, ...], first: int, sizes: Sequence[int], lc: int, rng: Random, tries: int
) -> Optional[tuple[Stem, ...]]:
    """Stems agreeing with base's on signature indices < n, random beyond,
    where first is the least level-lc rank of an index >= n.  They keep
    base's first lc (the coverage level of n) entries, so only the
    predicates of length lc + 1 can differ: each stem must sit under base's
    there, or under one of index >= n where base's index is >= n.  When
    n <= 0, lc is 0 and first < 0, so every stem is drawn afresh."""
    if lc >= len(sizes):
        return base  # nothing is left to draw
    window = []  # per stem, the vertices it may take at level lc
    for s in base:
        start = first - reduce(lambda r, l: r * sizes[l] + s[l], range(lc), 0) * sizes[lc]
        window.append((s[lc], s[lc]) if s[lc] < start else (start, sizes[lc]))
    for _ in range(tries):
        stems = tuple(s[:lc] + tuple(rng.randrange(m) for m in sizes[lc:]) for s in base)
        if all(lo <= s[lc] <= hi for s, (lo, hi) in zip(stems, window)):
            return stems
    return None


def oplus_test(t: Template, s: int, n: int, budget: SearchBudget) -> OplusResult:
    """Search for two families of s parameter types, signature-matched up
    to index n, where the first family's positive instances are jointly
    consistent and the second's are not.

    Finding one refutes the agreement property at (s, n) exactly; finding
    none is only "holds up to budget", except on templates where every
    family is consistent (complete everywhere) or where n already pins
    types past the stabilization level, which are proved analytically.
    Sampled stems are in-tree and discrete: the level scan decides them,
    on the stored stem levels whose reach bound does not prove that any s
    tuples share a witness (Hypergraph._reach_proves), since only there can
    a family fail (tail levels are complete, so the stems are drawn down to
    stem_depth but never scanned past the prefix).  The second family
    repeats the first's tuples below the coverage level of n, so it is
    scanned only on those levels from there on.  When none is left no
    second family can fail, so the test returns without drawing;
    families_tried is then the whole budget, as the sampled search would
    have ended there too."""
    if s < 1 or n < 0:
        raise InputError("need s >= 1 and n >= 0")
    analytic = t.is_complete() or analytic_f_bound(t, s) <= n
    graphs = t._graphs[: budget.stem_depth]  # complete tail levels never fail
    lc = coverage_level(t, n)  # 0 when n = 0, where the second family is drawn afresh
    open_a = [l for l, h in enumerate(graphs) if not h._reach_proves(s)]
    open_b = [l for l in open_a if l >= lc]
    if not open_b:
        return OplusResult(s, n, True, None, budget.families, analytic=analytic)
    graphs_a, graphs_b = ([graphs[l] for l in levels] for levels in (open_a, open_b))

    def consistent(fam, levels, hs):  # the level scan on these levels only
        rows = [[tuple(map(stem.__getitem__, levels)) for stem in stems] for stems in fam]
        return _scan_levels(hs, rows).consistent

    sizes = [t.level_size(l) for l in range(budget.stem_depth)]
    first = n - 1 - predicate_count(t, lc)  # the least level-lc rank of an index >= n
    rng = Random(budget.seed)
    tried = 0
    for _ in range(budget.families):
        tried += 1
        fam_a = tuple(_sample_stems(sizes, t.arity - 1, rng) for _ in range(s))
        if not consistent(fam_a, open_a, graphs_a):
            continue
        fam_b = []
        for stems in fam_a:
            match = _sample_matching(stems, first, sizes, lc, rng, budget.resamples)
            if match is None:
                break
            fam_b.append(match)
        if len(fam_b) != s:
            continue
        if not consistent(fam_b, open_b, graphs_b):
            fam_a, fam_b = (tuple(ParamType(stems=st) for st in fam) for fam in (fam_a, fam_b))
            return OplusResult(s, n, False, OplusCounterexample(fam_a, fam_b, n), tried)
    return OplusResult(s, n, True, None, tried, analytic=analytic)


# -- F and G ---------------------------------------------------------------

INFINITE = inf


@dataclass(frozen=True)
class FEstimate:
    s: int
    lower_bound: int  # exact: counterexamples certify every smaller n fails
    upper_bound: int  # budget-relative unless exact
    exact: bool
    analytic_bound: int
    certificates: tuple[OplusCounterexample, ...]  # one per refuted n, ascending


def analytic_f_bound(t: Template, s: int) -> int:
    """Signature indices through the stabilization level for s instances
    suffice for agreement to preserve consistency."""
    return predicate_count(t, t.stabilization_level(s)) + 1


def F_estimate(t: Template, s: int, budget: SearchBudget) -> FEstimate:
    """Least n at which no agreement counterexample is found, with exact
    lower-bound certificates for every smaller n."""
    if s < 1:
        raise InputError(f"count must be >= 1, got {s}")
    if t.is_complete():
        return FEstimate(s, 0, 0, True, 0, ())
    bound = analytic_f_bound(t, s)
    certs = []
    for n in range(bound + 1):
        res = oplus_test(t, s, n, budget)
        if res.counterexample is None:
            return FEstimate(s, n, n, res.analytic, bound, tuple(certs))
        certs.append(res.counterexample)
    return FEstimate(s, bound, bound, True, bound, tuple(certs))


@dataclass(frozen=True)
class GEstimate:
    n: int
    value: Union[int, float]  # INFINITE on the analytic path
    exact: bool
    analytic_lower: int
    certificate: Optional[OplusCounterexample]  # refutes value + 1 when present


def analytic_g_lower(t: Template, n: int) -> int:
    """min f over levels from the coverage level of n on: that many
    instances survive any agreement-preserving replacement."""
    L = coverage_level(t, n)
    lo = t.f_value(t.prefix_len)  # tail arities are nondecreasing
    for l in range(L, t.prefix_len):
        lo = min(lo, t.f_value(l))
    return lo


def G_estimate(t: Template, n: int, budget: SearchBudget, s_cap: int = 8) -> GEstimate:
    """Largest s whose agreement test at n finds no counterexample, capped
    at s_cap; infinite on complete templates."""
    if n < 0:
        raise InputError("need s >= 1 and n >= 0")
    if t.is_complete():
        return GEstimate(n, INFINITE, True, s_cap, None)
    lower = analytic_g_lower(t, n)
    value = 0
    for s in range(1, s_cap + 1):
        res = oplus_test(t, s, n, budget)
        if res.counterexample is not None:
            return GEstimate(n, max(value, lower), value >= lower, lower, res.counterexample)
        value = s
    return GEstimate(n, max(value, lower), False, lower, None)


def analytic_g_table(t: Template, n_max: int) -> list[Union[int, float]]:
    """Analytic capacity table G(0..n_max), all-infinite for complete
    templates.  Sound: these counts are guaranteed, never optimistic."""
    if t.is_complete():
        return [INFINITE] * (n_max + 1)
    # analytic_g_lower in one pass: the coverage level L of n rises by one
    # each time n - 1 reaches count = predicate_count(t, L + 1), and the
    # answer is the least f from level L on (from the prefix on, past it)
    p = t.prefix_len
    lows = list(accumulate((t.f_value(l) for l in range(p, -1, -1)), min))[::-1]
    out, L, width = [], 0, t.level_size(0)
    count = width
    for n in range(n_max + 1):
        while count < n:
            L += 1
            width *= t.level_size(L)
            count += width
        out.append(lows[min(L, p)])
    return out

"""Signature functions for parameter types, and the exact agreement test.

A parameter type (an equality pattern plus k-1 leaf stems) is encoded as a
sequence of natural-number codes: position 0 codes the equality pattern,
position m >= 1 codes, as a bitmask over the variables, which of them sit
under the m-th predicate in a canonical enumeration.  Agreement of two
types on a prefix of these codes pins their leaf data down to a tree level,
which is what makes the consistency-preservation test meaningful.

The layout has a closed form.  Predicates are ordered by length, then
lexicographically, so the predicate of stem prefix p sits at index
1 + (number of shorter predicates) + (mixed-radix rank of p over the level
sizes).  Each template keeps those counts by depth (Template._counts_to),
and every index formula here reads them: predicate_count looks one up,
coverage_level bisects them, the rest follow.  A signature holds
1 + predicate_count(t, depth) values, but a type's stems extend at most
(k-1) * depth predicates, so every other value is 0 and only O(k * depth)
writes fill it in; ``oracle.naive_f_signature`` keeps the enumeration as
a cross-check.  The same layout gives the first index at which two types'
signatures differ (first_difference) from their stems' prefixes, with no
signature built.

The agreement test, and F and G over it, are decided level by level with
the extension check's cover search, so "holds" is a proof unless a node
bound stopped a check; ``oracle.naive_oplus_test`` walks every pair of
families instead.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
from math import inf
from typing import Optional, Sequence, Union

from .errors import InputError
from .template import Template
from .tree import Stem, require_in_tree
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
    return [s for n in range(1, depth + 1) for s in product(*(range(t.level_size(l)) for l in range(n)))]


def predicate_count(t: Template, depth: int) -> int:
    """Number of enumerated predicates of length <= depth."""
    return t._counts_to(depth)[depth] if depth > 0 else 0


def coverage_level(t: Template, n: int) -> int:
    """Largest tree level L such that all predicates of length <= L have
    signature index < n (index 0 is the equality code)."""
    return bisect_right(t._counts_to(0, n), n - 1, 1) - 1


def _window_start(t: Template, n: int, lc: int) -> int:
    """oplus_test's start at the coverage level lc of n, for stems at the largest vertices."""
    return n - 1 - predicate_count(t, lc + 1) + t.level_size(lc)


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


def check_signature_input(t: Template, ptype: ParamType, depth: int) -> tuple[int, list[Stem]]:
    """Raise InputError unless f_signature can code the type at depth: k-1
    stems in the tree, each of length >= depth, a canonical equality
    pattern and depth >= 1.  Returns the pattern's code and the stems."""
    if len(ptype.stems) != t.arity - 1:
        raise InputError(f"expected {t.arity - 1} stems, got {len(ptype.stems)}")
    stems = [require_in_tree(t, s, "parameter stem") for s in ptype.stems]
    if any(len(s) < depth for s in stems):
        raise InputError(f"stems must have length >= {depth} to answer all predicates")
    code = pattern_index(ptype.equality)
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    return code, stems


def f_signature(t: Template, ptype: ParamType, depth: int) -> SignatureFunction:
    """Code the type: value 0 is the equality-pattern index, value m >= 1
    is the bitmask of variables whose stem extends the m-th predicate.

    The predicate of stem prefix p sits at 1 + (number of predicates
    shorter than p) + (mixed-radix rank of p), so only the (k-1) * depth
    prefixes of the stems are written; every other value is 0."""
    code, stems = check_signature_input(t, ptype, depth)
    counts, sizes = t._counts_to(depth), [t.level_size(l) for l in range(depth)]
    values = [0] * (1 + counts[depth])
    values[0] = code
    for j, s in enumerate(stems):
        rank = 0
        for l, size in enumerate(sizes):
            rank = rank * size + s[l]
            values[1 + counts[l] + rank] |= 1 << j
    return SignatureFunction(tuple(values), depth)


def first_difference(t: Template, a: ParamType, b: ParamType, depth: int) -> int:
    """The first index at which the depth-depth signatures of two types
    that check_signature_input accepts differ, capped at depth, read off
    the stems' prefixes without building either signature.

    Index 0 is the pattern code, and canonical patterns have distinct
    codes.  Level l's values start at 1 + (count of shorter predicates),
    and the one r places on holds which variables' stems have the
    length-(l + 1) prefix of rank r.  Up to the first level where some pair
    of stems differs, the two types hold the same values; there, pairs
    that agree sit at the same ranks in both, so the values differ exactly
    at the ranks of the pairs that differ, and the least, capped, is the
    answer.  A level whose values start at depth or later can only give
    depth, so only the levels that start below it are read."""
    if a.equality != b.equality:
        return 0
    counts, ranks = t._counts_to(depth), [0] * len(a.stems)
    for l in range(bisect_left(counts, depth - 1)):  # 1 + counts[l] < depth
        size = t.level_size(l)  # ranks holds the common prefixes' ranks, from one level up
        differ = [r * size + min(x[l], y[l]) for r, x, y in zip(ranks, a.stems, b.stems) if x[l] != y[l]]
        if differ:
            return min(1 + counts[l] + min(differ), depth)
        ranks = [r * size + x[l] for r, x in zip(ranks, a.stems)]
    return depth


# -- the agreement test ----------------------------------------------------


Family = tuple[ParamType, ...]


@dataclass(frozen=True)
class OplusCounterexample:
    consistent_family: Family
    inconsistent_family: Family
    agreement: int


@dataclass(frozen=True)
class OplusResult:
    """One agreement test.  ``exhaustive`` is False only when a node bound
    stopped a check and no counterexample was found, so that "holds" is
    unproven.  ``families_tried`` is always 0; bench/tracing.py's outcome
    hook still reads it."""

    s: int
    n: int
    exhaustive: bool
    counterexample: Optional[OplusCounterexample]
    families_tried: int = 0


def family_consistent(t: Template, family: Family) -> bool:
    """Whether the s positive instances over these parameter tuples form a
    joint type.  A tuple whose pattern merges two variables can never head
    a positive instance (the edge relation is irreflexive), so such types
    fall outside the admissible set and the family is rejected."""
    if any(len(set(pt.equality)) < len(pt.equality) for pt in family):
        return False
    spec = PositiveTypeSpec(params=tuple(pt.stems for pt in family))
    return decide_positive_type(t, spec).consistent


def oplus_test(t: Template, s: int, n: int) -> OplusResult:
    """Decide whether two families of s parameter types (discrete pattern),
    signature-matched up to index n, can have the first family's positive
    instances jointly consistent and the second's not.

    Let lc be the coverage level of n.  Matched types share their stems
    below lc, and at lc a stem whose vertex lies below its start (the least
    level-lc rank of an index >= n, less the rank of the stem's prefix)
    must keep it, while one at or past it may move anywhere from there on;
    past lc the stems are free.  The levels are independent, so the stems
    may sit at each level's largest vertex everywhere but the failing one,
    which gives the least start.  A counterexample therefore exists exactly
    when some stored level past lc fails the extension property for s
    tuples, or level lc fails check_window_extension(s, start); tail levels
    are complete and never fail.  _agreement_scan runs those checks, and the
    certificate is built from the smallest failing list (see _certificate)."""
    if s < 1 or n < 0:
        raise InputError("need s >= 1 and n >= 0")
    found, proven = _agreement_scan(t, n, s)
    if found is None:
        return OplusResult(s, n, proven == INFINITE, None)
    return OplusResult(s, n, True, _certificate(t, s, n, *found))


def _agreement_scan(t: Template, n: int, cap: Optional[int] = None):
    """oplus_test's check per level from the coverage level of n on, for at
    most cap tuples (with no cap, the level's count of (k-1)-tuples), each
    cover of c tuples lowering cap to c - 1.  Returns the first level with
    the smallest cover, its window replacements and tuples, or None; and
    the least count a stopped check proved, INFINITE when none stopped.
    Each check is a fresh Hypergraph._window_check (the plain check at
    start <= 0); no result is kept from one scan to the next."""
    lc = coverage_level(t, n)
    found, proven = None, INFINITE
    for l in range(lc, t.prefix_len):
        h = t._graphs[l]
        window = _window_start(t, n, lc) if l == lc else 0
        chk, moved = h._window_check(h.size ** (h.arity - 1) if cap is None else cap, window)
        if not chk.exhaustive:
            proven = min(proven, chk.proven)
        if not chk.holds:
            ce = chk.counterexample
            found, cap = (l, moved, ce), len(ce) - 1
    return found, proven


def _certificate(t: Template, s: int, n: int, level: int, tuples_a, tuples_b) -> OplusCounterexample:
    """Two families whose stems sit at the largest vertex of every level
    below the failing one and end there with the given tuples' vertices,
    each padded to s types by repeating its last tuple.  Below the failing
    level every tuple repeats one vertex or all tuples coincide, so only
    the failing level decides either family."""
    top = tuple(size - 1 for size in t._sizes[:level])

    def family(tuples) -> Family:
        tuples = tuples + tuples[-1:] * (s - len(tuples))
        return tuple(ParamType(stems=tuple(top + (v,) for v in tup)) for tup in tuples)

    return OplusCounterexample(family(tuples_a), family(tuples_b), n)


# -- F and G ---------------------------------------------------------------

INFINITE = inf


@dataclass(frozen=True)
class FEstimate:
    s: int
    lower_bound: int  # counterexamples certify every smaller n fails
    upper_bound: int  # F itself when exact, else the analytic bound
    exact: bool
    analytic_bound: int
    certificates: tuple[OplusCounterexample, ...]  # one per refuted n, ascending


def analytic_f_bound(t: Template, s: int) -> int:
    """Signature indices through the stabilization level for s instances
    suffice for agreement to preserve consistency."""
    return predicate_count(t, t.stabilization_level(s)) + 1


def F_estimate(t: Template, s: int, budget=None) -> FEstimate:
    """Least n at which the agreement test finds no counterexample, with a
    certificate for every smaller n.  When a node bound stops the test at
    n, F lies between n and the analytic bound (sound on a valid template)
    and exact is False.  The loop ends by predicate_count(t, prefix) + 1,
    where only complete levels are left from the coverage level on.
    budget is accepted and ignored (bench/ passes an oracle.SearchBudget)."""
    if s < 1:
        raise InputError(f"count must be >= 1, got {s}")
    bound = analytic_f_bound(t, s)
    certs = []
    for n in count():
        res = oplus_test(t, s, n)
        if res.counterexample is None:
            upper = n if res.exhaustive else bound
            return FEstimate(s, n, upper, res.exhaustive, bound, tuple(certs))
        certs.append(res.counterexample)


@dataclass(frozen=True)
class GEstimate:
    n: int
    value: Union[int, float]  # INFINITE when no count fails
    exact: bool
    analytic_lower: Union[int, float]  # INFINITE on a complete template
    certificate: Optional[OplusCounterexample]  # refutes value + 1 when present


def analytic_g_lower(t: Template, n: int) -> Union[int, float]:
    """min f over levels from the coverage level of n on: that many
    instances survive any agreement-preserving replacement.  INFINITE on a
    complete template, as in analytic_g_table: every count survives there."""
    if t.is_complete():
        return INFINITE
    p = t.prefix_len  # tail arities are nondecreasing
    return min(map(t.f_value, range(min(coverage_level(t, n), p), p + 1)))


def G_estimate(t: Template, n: int, budget=None, s_cap=None) -> GEstimate:
    """Largest s whose agreement test at n holds, from one uncapped
    _agreement_scan: one less than the smallest failing count, INFINITE when
    none fails, or, when a node bound stopped a check and none fails, the
    largest count every check proved.  Exact when no check stopped below the
    value.  budget and s_cap are accepted and ignored, as in F_estimate."""
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    lower = analytic_g_lower(t, n)
    found, proven = _agreement_scan(t, n)
    if found is None:
        return GEstimate(n, proven, proven == INFINITE, lower, None)
    c = len(found[2])
    return GEstimate(n, c - 1, proven >= c - 1, lower, _certificate(t, c, n, *found))


def analytic_g_table(t: Template, n_max: int) -> list[Union[int, float]]:
    """Analytic capacity table G(0..n_max), all-infinite for complete
    templates.  Sound: these counts are guaranteed, never optimistic."""
    if n_max < 0:
        raise InputError(f"need n_max >= 0, got {n_max}")
    out: list[Union[int, float]] = []
    # analytic_g_lower once per coverage level L, which holds the n with
    # predicate_count(t, L) < n <= predicate_count(t, L + 1) (and n = 0)
    for count in t._counts_to(1, n_max)[1:]:
        out += [analytic_g_lower(t, count)] * (min(count, n_max) + 1 - len(out))
        if count >= n_max:
            return out

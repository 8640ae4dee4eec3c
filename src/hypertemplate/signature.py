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
sizes).  A type's stems extend at most (k-1) * depth predicates, so every
other value is 0 and a signature costs O(k * depth) to fill in;
``oracle.naive_f_signature`` keeps the enumeration as a cross-check.

The agreement test, and F and G over it, are decided level by level with
the extension check's cover search, so "holds" is a proof unless a node
bound stopped a check; ``oracle.naive_oplus_test`` walks every pair of
families instead, and ``oracle.sampled_oplus_test`` keeps the sampled
search this replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count, product
from math import inf, prod
from operator import mul
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
    are complete and never fail.  The certificate is built from the failing
    level's tuples (see _certificate)."""
    if s < 1 or n < 0:
        raise InputError("need s >= 1 and n >= 0")
    lc = coverage_level(t, n)
    sizes = [t.level_size(l) for l in range(lc + 1)]
    start = n - 1 - predicate_count(t, lc) - (prod(sizes[:lc]) - 1) * sizes[lc]
    exhaustive = True
    for l in range(lc, t.prefix_len):
        h = t._graphs[l]
        window = start if l == lc else 0
        chk = h.check_window_extension(s, window)
        if not chk.holds:
            ce = chk.counterexample
            return OplusResult(s, n, True, _certificate(t, s, n, l, h._window_replacements(ce, window), ce))
        exhaustive = exhaustive and chk.exhaustive
    return OplusResult(s, n, exhaustive, None)


def _certificate(t: Template, s: int, n: int, level: int, tuples_a, tuples_b) -> OplusCounterexample:
    """Two families whose stems sit at the largest vertex of every level
    below the failing one and end there with the given tuples' vertices,
    each padded to s types by repeating its last tuple.  Below the failing
    level every tuple repeats one vertex or all tuples coincide, so only
    the failing level decides either family."""
    top = tuple(t.level_size(l) - 1 for l in range(level))

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
    budget is accepted and ignored, so callers of the sampled search that
    preceded this one keep working."""
    if s < 1:
        raise InputError(f"count must be >= 1, got {s}")
    if t.is_complete():
        return FEstimate(s, 0, 0, True, 0, ())
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


def G_estimate(t: Template, n: int, budget=None, s_cap: int = 8) -> GEstimate:
    """Largest s whose agreement test at n finds no counterexample, capped
    at s_cap; infinite on complete templates.  Exact when s + 1 was refuted
    and no node bound stopped a test on the way.  budget is ignored, as in
    F_estimate."""
    if n < 0:
        raise InputError(f"need n >= 0, got {n}")
    if t.is_complete():
        return GEstimate(n, INFINITE, True, s_cap, None)
    lower = analytic_g_lower(t, n)
    exhaustive = True
    for s in range(1, s_cap + 1):
        res = oplus_test(t, s, n)
        if res.counterexample is not None:
            return GEstimate(n, s - 1, exhaustive, lower, res.counterexample)
        exhaustive = exhaustive and res.exhaustive
    return GEstimate(n, s_cap, False, lower, None)


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

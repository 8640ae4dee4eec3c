"""Templates: level sequences of k-full hypergraphs with extension arities.

An infinite template is represented by a finite stored prefix plus a tail
policy whose levels are complete hypergraphs of growing size.  Complete
levels satisfy the extension property for every t up to their size, and
their declared arities grow without bound, so the finite representation
keeps all the guarantees of the infinite object.  The decision procedures
read tail levels as complete; only Template.level builds one, for oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb
from random import Random
from typing import Sequence

from .errors import InputError
from .hypergraph import Hypergraph, _draw, _Level, complete_hypergraph

# samples random_template draws per level before it degrades the target arity
RETRY_BUDGET = 20


@dataclass(frozen=True)
class TailPolicy:
    """Levels beyond the prefix: complete hypergraphs whose size grows by
    ``growth`` per level."""

    kind: str = "complete_growing"
    growth: int = 1

    def __post_init__(self):
        if self.kind != "complete_growing":
            raise InputError(f"unknown tail kind {self.kind!r}")
        if self.growth < 1:
            raise InputError(f"tail growth must be >= 1, got {self.growth}")


@lru_cache(maxsize=256)
def _complete_cached(arity: int, size: int) -> Hypergraph:
    return complete_hypergraph(arity, size)


class Template:
    """Arity k, a stored prefix of (hypergraph, f) levels, and a tail policy.

    Construction checks only representation invariants (shared arity,
    1 <= f(n) <= H_n); the extension property is verified by validate().
    Stored sizes and hypergraphs are also kept as tuples for unchecked lookups;
    the predicate counts by depth that lay out signature indices (_counts_to)
    and completeness are kept on demand, ignored by equality, hash and pickle.
    """

    __slots__ = ("arity", "levels", "tail", "_sizes", "_graphs", "_stab_cache", "_counts", "_complete")

    def __init__(
        self,
        arity: int,
        levels: Sequence[tuple[Hypergraph, int]],
        tail: TailPolicy = TailPolicy(),
    ):
        if not levels:
            raise InputError("a template needs at least one stored level")
        lv = []
        for n, (h, f) in enumerate(levels):
            if h.arity != arity:
                raise InputError(f"level {n} has arity {h.arity}, template has {arity}")
            if not (1 <= f <= h.size):
                raise InputError(f"level {n}: f must satisfy 1 <= f <= {h.size}, got {f}")
            lv.append((h, int(f)))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "levels", tuple(lv))
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "_sizes", tuple(h.size for h, _f in lv))
        object.__setattr__(self, "_graphs", tuple(h for h, _f in lv))
        object.__setattr__(self, "_stab_cache", {})
        object.__setattr__(self, "_counts", [0])
        object.__setattr__(self, "_complete", None)

    def __setattr__(self, name, value):
        raise AttributeError("Template is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Template)
            and self.arity == other.arity
            and self.levels == other.levels
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.arity, self.levels, self.tail))

    def __repr__(self):
        return f"Template(arity={self.arity}, prefix={len(self.levels)}, tail={self.tail.kind})"

    def __reduce__(self):  # __slots__ + immutability guard need explicit pickling
        return (Template, (self.arity, self.levels, self.tail))

    # -- level access ------------------------------------------------------

    @property
    def prefix_len(self) -> int:
        return len(self.levels)

    def level_size(self, n: int) -> int:
        if n < 0:
            raise InputError(f"level index must be >= 0, got {n}")
        sizes = self._sizes
        if n < len(sizes):
            return sizes[n]
        return sizes[-1] + self.tail.growth * (n - len(sizes) + 1)

    def _tail_sizes(self, depth: int) -> range:
        """Sizes of the tail levels below a depth past the stored prefix."""
        growth = self.tail.growth
        return range(self._sizes[-1] + growth, self.level_size(depth - 1) + 1, growth)

    def f_value(self, n: int) -> int:
        """Declared extension arity at level n; tail levels use f = H_n."""
        if n < 0:
            raise InputError(f"level index must be >= 0, got {n}")
        if n < len(self.levels):
            return self.levels[n][1]
        return self.level_size(n)

    def level(self, n: int) -> tuple[Hypergraph, int]:
        """(hypergraph, f) at level n; a tail level is complete, built (and cached) here alone."""
        if 0 <= n < len(self.levels):
            return self.levels[n]
        return _complete_cached(self.arity, self.level_size(n)), self.f_value(n)

    def level_hypergraph(self, n: int) -> Hypergraph:
        return self.level(n)[0]

    # -- analysis ----------------------------------------------------------

    def stabilization_level(self, count: int) -> int:
        """Least n with f(n') >= count for all n' >= n.

        Exists for every count because tail arities are nondecreasing and
        unbounded.  Tail levels are handled analytically."""
        if count < 1:
            raise InputError(f"count must be >= 1, got {count}")
        n = self._stab_cache.get(count)
        if n is not None:
            return n
        p = len(self.levels)
        # least tail level whose size reaches count (tail f is its size)
        n = p
        if self.f_value(p) < count:
            deficit = count - self.f_value(p)
            n = p + -(-deficit // self.tail.growth)
        while n > 0 and self.f_value(n - 1) >= count:
            n -= 1
        self._stab_cache[count] = n
        return n

    def is_complete(self) -> bool:
        """True iff every level, stored or tail, is a complete hypergraph."""
        if self._complete is None:
            full = all(len(h.uniform_edges) == comb(h.size, self.arity) for h in self._graphs)
            object.__setattr__(self, "_complete", full)
        return self._complete

    def _counts_to(self, depth: int, index: int = 0) -> list[int]:
        """The kept predicate counts, entry d the number of stems of length
        1..d, grown until there is an entry for depth and the last reaches index."""
        counts = self._counts
        while len(counts) <= depth or counts[-1] < index:
            d = len(counts) - 1  # the stems of length d number counts[d] - counts[d - 1]
            counts.append(counts[d] + (counts[d] - counts[d - 1] if d else 1) * self.level_size(d))
        return counts


@dataclass(frozen=True)
class LevelProblem:
    level: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    depth: int
    problems: tuple[LevelProblem, ...]
    exhaustive: bool

    @property
    def valid(self) -> bool:
        return not self.problems


def validate(t: Template, depth: int) -> ValidationReport:
    """Check the extension property at t = f(n) on levels n < depth; the
    constructor already holds f(n) to 1..H_n.  Tail levels are accepted
    analytically (complete hypergraphs satisfy extension for every
    t <= H_n).  First problem per level.  ``exhaustive`` is False when the
    node bound stopped a level's check."""
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    problems = []
    exhaustive = True
    for n in range(min(depth, len(t.levels))):
        h, f = t.levels[n]
        chk = h.check_extension_property(f)
        exhaustive = exhaustive and chk.exhaustive
        if not chk.holds:
            problems.append(
                LevelProblem(n, f"no common witness for tuples {chk.counterexample} at t = {f}")
            )
    return ValidationReport(depth, tuple(problems), exhaustive)


def max_extension_arity(h: Hypergraph, cap: int) -> int:
    """Largest t <= cap with the extension property, at least 1 since a
    tuple's own vertices witness it: one smallest-cover search, exact
    unless the node bound stops it, in which case the largest t it
    proved."""
    if cap < 1:
        raise InputError(f"cap must be >= 1, got {cap}")
    return h.check_extension_property(cap).proven


def complete_template(arity: int, prefix_depth: int = 1) -> Template:
    """The template with H_n = n + 1 and every tuple an edge."""
    if prefix_depth < 1:
        raise InputError(f"prefix_depth must be >= 1, got {prefix_depth}")
    levels = []
    for n in range(prefix_depth):
        h = complete_hypergraph(arity, n + 1)
        levels.append((h, n + 1))
    return Template(arity, levels, TailPolicy("complete_growing", 1))


def random_template(
    arity: int,
    level_sizes: Sequence[int],
    edge_prob: float,
    target_f: Sequence[int],
    seed: int,
) -> Template:
    """Sample each level's uniform edges independently with edge_prob, as
    random_hypergraph does, then verify the extension property at
    target_f(n); resample unless it is proven and, after RETRY_BUDGET
    samples, degrade f to the largest arity one more sample proves
    (max_extension_arity).

    Deterministic for a given seed.  Any smaller f satisfying the axioms
    still yields a template, which makes degradation sound, and f = 1
    always holds, so generation never fails.  Each sample is checked on its
    drawn k-sets (_Level._drawn) and only the kept one becomes a
    Hypergraph, keeping the completion table, reach bound and set-up its
    check built, so a later check of the level starts warm."""
    if len(level_sizes) != len(target_f):
        raise InputError("level_sizes and target_f must have equal length")
    if not level_sizes:
        raise InputError("need at least one level")
    rng = Random(seed)
    levels = []
    for n, (size, tf) in enumerate(zip(level_sizes, target_f)):
        if size < arity:
            raise InputError(f"level {n}: size {size} below arity {arity}")
        if not (1 <= tf <= size):
            raise InputError(f"level {n}: target f {tf} outside 1..{size}")
        for _ in range(RETRY_BUDGET + 1):  # the last sample is kept at the arity it proves
            ksets, drawn = _draw(arity, size, edge_prob, rng)
            level = _Level._drawn(arity, size, ksets, drawn)
            f = level._check_extension(tf, None).proven
            if f == tf:
                break
        levels.append((level._hypergraph(compress(ksets, drawn)), f))
    return Template(arity, levels, TailPolicy("complete_growing", 1))


def corrupt_level(t: Template, n: int, keep_fraction: float = 0.0, seed: int = 0) -> Template:
    """Deliberately break a stored level by thinning its uniform edges while
    keeping the declared f.  Test harness for demonstrating detector power;
    the result is normally not a valid template."""
    if not (0 <= n < len(t.levels)):
        raise InputError(f"level {n} is not a stored level")
    rng = Random(seed)
    h, f = t.levels[n]
    kept = [e for e in sorted(map(sorted, h.uniform_edges)) if rng.random() < keep_fraction]
    broken = Hypergraph(t.arity, h.size, kept)
    levels = list(t.levels)
    levels[n] = (broken, f)
    return Template(t.arity, levels, t.tail)

"""Finite surrogate of the distribution-and-realize saturation argument.

A scenario fixes a template, a finite index set with per-index depths, and
a consistent family of limit parameter tuples together with per-index
approximations.  The agreement level between an approximation and its
limit is the first index at which their signatures differ, capped at the
index depth and read off the stems in closed form; a capacity table G
converts agreement into the number of instances an index can absorb;
the indices of infinite capacity take every instance, or else a greedy
assignment places each once; and realization is then verified per index
with the positive-type decision procedure.

Finite index sets cannot emulate the regularity that gives the original
argument its room, so infeasibility of the assignment is a first-class
outcome with diagnostics, never an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isinf
from random import Random
from typing import Optional, Sequence, Union

from .errors import InputError
from .template import Template
from .tree import Stem
from .typecheck import PositiveTypeSpec, decide_positive_type
from .signature import ParamType, check_signature_input, first_difference, pattern_index

Capacity = Union[int, float]


@dataclass(frozen=True)
class Instance:
    """One positive instance: the limit parameter tuple and its per-index
    approximations (one tuple per index, stems of that index's depth)."""

    limit: ParamType
    per_index: tuple[ParamType, ...]


@dataclass(frozen=True)
class Scenario:
    template: Template
    depths: tuple[int, ...]
    instances: tuple[Instance, ...]


def validate_scenario(sc: Scenario) -> None:
    """Raise InputError unless the scenario is well formed: index depths of
    at least 1, one tuple per index in each instance with stems of that
    index's depth, limit stems of one common length reaching every depth
    and a consistent limit family.  Each per-index type is also checked
    here, once, as f_signature would check it at its index's depth, and
    each limit's pattern, so build_distribution reads agreement levels
    with no check of its own."""
    t = sc.template
    if not sc.depths:
        raise InputError("scenario needs at least one index")
    for ti, d in enumerate(sc.depths):
        if d < 1:
            raise InputError(f"index {ti}: depth must be >= 1, got {d}")
    lim_len = None
    for a, inst in enumerate(sc.instances):
        if len(inst.per_index) != len(sc.depths):
            raise InputError(f"instance {a} must carry one tuple per index")
        if lim_len is None:
            lim_len = inst.limit.stem_length
        elif inst.limit.stem_length != lim_len:
            raise InputError("limit tuples must share a common stem length")
        for ti, pt in enumerate(inst.per_index):
            length = pt.stem_length
            if length == sc.depths[ti]:  # a later stem too long; one too short fails check_signature_input
                length = max(map(len, pt.stems))
            if length != sc.depths[ti]:
                raise InputError(f"instance {a}, index {ti}: stems have length {length}, expected {sc.depths[ti]}")
    if lim_len is not None and lim_len < max(sc.depths):
        raise InputError("limit stems must reach every index depth")
    if sc.instances:
        spec = PositiveTypeSpec(params=tuple(i.limit.stems for i in sc.instances))
        if not decide_positive_type(t, spec).consistent:
            raise InputError("the limit family is not consistent")
    # the limits' stems are in the tree and long enough, by the checks above
    for inst in sc.instances:
        for pt, d in zip(inst.per_index, sc.depths):
            check_signature_input(t, pt, d)
        pattern_index(inst.limit.equality)


def agreement_level(sc: Scenario, alpha: int, ti: int) -> int:
    """Largest signature index n <= the index depth on which the per-index
    tuple's signature agrees with the limit tuple's.  Always >= 0.

    The unit is a signature index, the one the G table is indexed by: the
    first index at which the two signatures differ, capped at the index's
    depth.  The cap is sound because G is nondecreasing (a counterexample
    matched up to index n + 1 is also matched up to n), so the capacity
    read, G(min(n, depth)), is at most G(n).

    Checks both types as f_signature would, then reads the level off their
    stems in closed form (signature.first_difference); build_distribution,
    having checked every type once in validate_scenario, reads it directly."""
    t = sc.template
    inst = sc.instances[alpha]
    depth = sc.depths[ti]
    for pt in (inst.per_index[ti], inst.limit):
        check_signature_input(t, pt, depth)
    return first_difference(t, inst.per_index[ti], inst.limit, depth)


def capacity(sc: Scenario, alpha: int, ti: int, g_table: Sequence[Capacity]) -> Capacity:
    """Table lookup G(n(alpha, t)); infinity permitted."""
    return _lookup(g_table, agreement_level(sc, alpha, ti))


def _lookup(g_table: Sequence[Capacity], n: int) -> Capacity:
    if n >= len(g_table):
        raise InputError(f"G table of length {len(g_table)} cannot answer level {n}")
    return g_table[n]


@dataclass(frozen=True)
class Distribution:
    assigned: tuple[frozenset[int], ...]  # d(alpha): index set per instance
    index_sets: tuple[frozenset[int], ...]  # U(t): instances per index
    bounds: tuple[Capacity, ...]  # s[t]


@dataclass(frozen=True)
class Infeasible:
    alpha: int  # first instance that could not be placed
    bounds: tuple[Capacity, ...]
    loads: tuple[int, ...]
    detail: str


def build_distribution(
    sc: Scenario,
    g_table: Sequence[Capacity],
    seed: int,
) -> Union[Distribution, Infeasible]:
    """Bounded-multiplicity assignment, in one of two cases.

    The per-index bound s[t] is the pointwise minimum capacity over
    instances, floored at 1, so it is infinite only where every capacity
    is.  Each instance goes to all indices of infinite bound, if any;
    else a greedy places each once, in seeded order, on the least-loaded
    eligible index with room, ties to the lowest index, and returns
    Infeasible for the first instance that finds none."""
    validate_scenario(sc)
    t, N = sc.template, len(sc.depths)
    caps = [
        [_lookup(g_table, first_difference(t, pt, inst.limit, d)) for pt, d in zip(inst.per_index, sc.depths)]
        for inst in sc.instances
    ]
    lows = [min(col) for col in zip(*caps)] or [inf] * N  # with no instance, every bound is infinite
    bounds = [lo if isinf(lo) else max(1, lo) for lo in lows]
    free = frozenset(ti for ti in range(N) if isinf(bounds[ti]))
    assigned = [free] * len(sc.instances)
    loads = [0] * N
    order = [] if free else list(range(len(sc.instances)))  # the free indices hold every instance
    Random(seed).shuffle(order)
    for a in order:
        eligible = [
            ti
            for ti in range(N)
            if bounds[ti] <= caps[a][ti] and loads[ti] < bounds[ti]
        ]
        if not eligible:
            return Infeasible(
                a,
                tuple(bounds),
                tuple(loads),
                f"instance {a}: no index has spare capacity",
            )
        ti = min(eligible, key=lambda x: (loads[x], x))
        assigned[a] = frozenset({ti})
        loads[ti] += 1
    index_sets = tuple(
        frozenset(a for a in range(len(sc.instances)) if ti in assigned[a])
        for ti in range(N)
    )
    return Distribution(tuple(assigned), index_sets, tuple(bounds))


@dataclass(frozen=True)
class IndexOutcome:
    index: int
    instances: tuple[int, ...]
    consistent: bool
    witness: Optional[Stem]
    failing_level: Optional[int]


@dataclass(frozen=True)
class RealizationReport:
    outcomes: tuple[IndexOutcome, ...]

    @property
    def failures(self) -> tuple[IndexOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.consistent)

    @property
    def fully_realized(self) -> bool:
        return not self.failures


def verify_realization(sc: Scenario, dist: Distribution) -> RealizationReport:
    """Check, per index, that the assigned per-index instances are jointly
    consistent, and record the canonical witness stem.

    A failure would mean an index was handed more instances than the
    capacity of some member's agreement level allows; with a sound G table
    the expected failure count is zero."""
    t = sc.template
    outcomes = []
    for ti, members in enumerate(dist.index_sets):
        mem = tuple(sorted(members))
        if not mem:
            outcomes.append(IndexOutcome(ti, (), True, None, None))
            continue
        params = tuple(sc.instances[a].per_index[ti].stems for a in mem)
        dec = decide_positive_type(t, PositiveTypeSpec(params=params))
        outcomes.append(
            IndexOutcome(ti, mem, dec.consistent, dec.witness, dec.failing_level)
        )
    return RealizationReport(tuple(outcomes))

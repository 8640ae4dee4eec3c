"""Finite surrogate of the distribution-and-realize saturation argument.

A scenario fixes a template, a finite index set with per-index depths, and
a consistent family of limit parameter tuples together with per-index
approximations.  Agreement levels between an approximation and its limit
are measured through signatures; a capacity table G converts agreement
into the number of instances an index can absorb; a bounded-multiplicity
greedy assignment distributes instances over indices; and realization is
then verified per index with the positive-type decision procedure.

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
from .typecheck import PositiveTypeSpec, decide_positive_type, m_star
from .signature import ParamType, f_signature

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
    t = sc.template
    if not sc.depths:
        raise InputError("scenario needs at least one index")
    lim_len = None
    for a, inst in enumerate(sc.instances):
        if len(inst.per_index) != len(sc.depths):
            raise InputError(f"instance {a} must carry one tuple per index")
        if lim_len is None:
            lim_len = inst.limit.stem_length
        elif inst.limit.stem_length != lim_len:
            raise InputError("limit tuples must share a common stem length")
        for ti, pt in enumerate(inst.per_index):
            if pt.stem_length != sc.depths[ti]:
                raise InputError(
                    f"instance {a}, index {ti}: stems have length {pt.stem_length},"
                    f" expected {sc.depths[ti]}"
                )
    if lim_len is not None and lim_len < max(sc.depths):
        raise InputError("limit stems must reach every index depth")
    if sc.instances:
        spec = PositiveTypeSpec(params=tuple(i.limit.stems for i in sc.instances))
        depth = max(lim_len, m_star(t, len(sc.instances)) + 1)
        if not decide_positive_type(t, spec, depth).consistent:
            raise InputError("the limit family is not consistent")


def agreement_level(sc: Scenario, alpha: int, ti: int) -> int:
    """Largest signature index n <= the index depth on which the per-index
    tuple's signature agrees with the limit tuple's.  Always >= 0."""
    t = sc.template
    inst = sc.instances[alpha]
    depth = sc.depths[ti]
    sig_idx = f_signature(t, inst.per_index[ti], depth).values
    sig_lim = f_signature(t, inst.limit, depth).values
    n = 0
    for a, b in zip(sig_idx, sig_lim):
        if a != b or n >= depth:
            break
        n += 1
    return min(n, depth)


def capacity(sc: Scenario, alpha: int, ti: int, g_table: Sequence[Capacity]) -> Capacity:
    """Table lookup G(n(alpha, t)); infinity permitted."""
    n = agreement_level(sc, alpha, ti)
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
    """Greedy bounded-multiplicity assignment.

    The per-index bound s[t] is the pointwise minimum capacity over
    instances, floored at 1.  Instances are placed in seeded order on the
    least-loaded eligible index with room, ties to the lowest index; every
    instance must land somewhere, else Infeasible."""
    validate_scenario(sc)
    N = len(sc.depths)
    caps = [
        [capacity(sc, a, ti, g_table) for ti in range(N)]
        for a in range(len(sc.instances))
    ]
    bounds: list[Capacity] = []
    for ti in range(N):
        lo = min((caps[a][ti] for a in range(len(sc.instances))), default=inf)
        bounds.append(lo if isinf(lo) else max(1, lo))
    rng = Random(seed)
    order = list(range(len(sc.instances)))
    rng.shuffle(order)
    loads = [0] * N
    assigned: list[frozenset[int]] = [frozenset()] * len(sc.instances)
    for a in order:
        # indices with an infinite bound absorb everything for free
        free = {ti for ti in range(N) if isinf(bounds[ti]) and caps[a][ti] >= bounds[ti]}
        if free:
            assigned[a] = frozenset(free)
            continue
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
        depth = max(sc.depths[ti], m_star(t, len(mem)) + 1)
        dec = decide_positive_type(t, PositiveTypeSpec(params=params), depth)
        outcomes.append(
            IndexOutcome(ti, mem, dec.consistent, dec.witness, dec.failing_level)
        )
    return RealizationReport(tuple(outcomes))

"""Brute-force oracles, kept independent of the procedures they check.

These deliberately avoid the level-wise shortcut: the type oracle walks
every whole witness stem, the extension oracle walks every choice of
tuples, and the signature oracle walks every predicate.  Desk scale only.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .errors import InputError
from .hypergraph import Hypergraph
from .signature import ParamType, SignatureFunction, equality_patterns, predicate_enumeration
from .template import Template
from .tree import Stem, require_in_tree
from .typecheck import PositiveTypeSpec


def brute_force_positive_type(
    t: Template, spec: PositiveTypeSpec, check_depth: int
) -> tuple[bool, Optional[Stem]]:
    """Enumerate every stem of length check_depth (respecting the x-stem
    constraint) and test all parameter edges at all levels directly.
    Returns the lexicographically first witness, which coincides with the
    decision procedure's least-per-level witness when both are correct."""
    rows = []
    for tup in spec.params:
        stems = [tuple(s) for s in tup]
        rows.append([s + (0,) * (check_depth - len(s)) for s in stems])
    x = tuple(spec.x_stem) if spec.x_stem is not None else ()
    if len(x) > check_depth:
        raise InputError("x_stem longer than check_depth")
    ranges = []
    for n in range(check_depth):
        if n < len(x):
            ranges.append((x[n],))
        else:
            ranges.append(tuple(range(t.level_size(n))))
    graphs = [t.level_hypergraph(n) for n in range(check_depth)]
    for cand in product(*ranges):
        ok = True
        for n in range(check_depth):
            h = graphs[n]
            for stems in rows:
                if not h.is_edge((cand[n],) + tuple(s[n] for s in stems)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True, tuple(cand)
    return False, None


def naive_extension_property(h: Hypergraph, t: int) -> bool:
    """Walk every choice (with repetition) of t (k-1)-tuples and search all
    vertices for a common witness.  No masks, no dedup."""
    if t < 1:
        raise InputError("t must be >= 1")
    tuples = list(product(range(h.size), repeat=h.arity - 1))
    for choice in product(tuples, repeat=t):
        if not any(
            all(h.is_edge((s,) + tup) for tup in choice) for s in range(h.size)
        ):
            return False
    return True


def naive_extension_witness(h: Hypergraph, tuples) -> Optional[int]:
    """Scan vertices in order, testing each tuple with is_edge directly."""
    if not tuples:
        raise InputError("need at least one tuple")
    for s in range(h.size):
        if all(h.is_edge((s,) + tuple(tup)) for tup in tuples):
            return s
    return None


def naive_f_signature(t: Template, ptype: ParamType, depth: int) -> SignatureFunction:
    """Walk the canonical predicate enumeration and test every stem
    against every predicate, instead of placing stem prefixes by rank."""
    if len(ptype.stems) != t.arity - 1:
        raise InputError(f"expected {t.arity - 1} stems, got {len(ptype.stems)}")
    stems = [require_in_tree(t, s, "parameter stem") for s in ptype.stems]
    if any(len(s) < depth for s in stems):
        raise InputError(f"stems must have length >= {depth} to answer all predicates")
    pats = equality_patterns(len(ptype.equality))
    if tuple(ptype.equality) not in pats:
        raise InputError(f"{tuple(ptype.equality)} is not a canonical restricted growth string")
    values = [pats.index(tuple(ptype.equality))]
    for psi in predicate_enumeration(t, depth):
        mask = 0
        for j, s in enumerate(stems):
            if s[: len(psi)] == psi:
                mask |= 1 << j
        values.append(mask)
    return SignatureFunction(tuple(values), depth)

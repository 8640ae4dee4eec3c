"""The tree of level-wise vertex choices, its leaf stems and the one
witness scan.

A leaf stem is a finite tuple of vertex indices, one per level; full leaves
are never materialized.  Completion and the decision procedures share one
per-level scan, _scan_levels: it keeps a given stem where that forms the
edges and else takes the least witness, so every leaf-valued result is
deterministic, and its callers stop it where the stems end, since past
them vertex 0 is always a witness.  Public functions check their stems
once, on entry; past that check they look edges up through the template's
stored level tuples and the hypergraphs' unchecked helpers, which trust
their callers.  A level past the stored prefix is read as complete, every
tuple an edge, and never built: only Template.level builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, prod
from operator import lt
from typing import Optional, Sequence

from .errors import InputError, InternalConsistencyError, PreconditionError
from .hypergraph import Hypergraph
from .template import Template

Stem = tuple[int, ...]


def in_tree(t: Template, stem: Sequence[int]) -> bool:
    """True iff every coordinate is within its level's vertex range."""
    sizes = t._sizes
    if stem and min(stem) < 0 or not all(map(lt, stem, sizes)):
        return False
    return len(stem) <= len(sizes) or all(map(lt, stem[len(sizes):], t._tail_sizes(len(stem))))


def require_in_tree(t: Template, stem: Sequence[int], what: str = "stem") -> Stem:
    stem = tuple(stem)
    if not in_tree(t, stem):
        raise InputError(f"{what} {stem} leaves the tree")
    return stem


def einfty_prefix(t: Template, stems: Sequence[Sequence[int]]) -> bool:
    """Finite-depth edge test: the k stems form an edge at every level of
    their common length.  Permutation invariant in the stems."""
    if len(stems) != t.arity:
        raise InputError(f"expected {t.arity} stems, got {len(stems)}")
    stems = [tuple(s) for s in stems]
    length = len(stems[0])
    if any(len(s) != length for s in stems):
        raise InputError("stems must share a common length")
    for s in stems:
        require_in_tree(t, s)
    return all(map(Hypergraph._has, t._graphs[:length], zip(*stems)))


def complete_to_leaf(
    t: Template,
    nu: Sequence[int],
    constraints: Sequence[Sequence[Sequence[int]]],
    target_len: int,
) -> Stem:
    """Extend nu to target_len so that it keeps forming edges with every
    constraint tuple at every level.

    Each constraint is a (k-1)-tuple of stems of length >= target_len.  The
    hypothesis that nu already forms the edges on its own length is checked
    up front; with m >= 1 constraints nu must reach past the level where
    the template's arities stabilize at m.  Extension is deterministic:
    each appended coordinate is the least witness, 0 on the complete tail.
    """
    nu = require_in_tree(t, nu, "nu")
    if target_len < len(nu):
        raise InputError(f"target_len {target_len} shorter than nu ({len(nu)})")
    m = len(constraints)
    rows = []
    for i, tup in enumerate(constraints):
        if len(tup) != t.arity - 1:
            raise InputError(f"constraint {i} must hold {t.arity - 1} stems")
        stems = [require_in_tree(t, s, f"constraint {i} stem") for s in tup]
        if any(len(s) < target_len for s in stems):
            raise InputError(f"constraint {i} stems must have length >= {target_len}")
        rows.append(stems)
    if m >= 1 and len(nu) <= t.stabilization_level(m):
        raise PreconditionError(
            f"lgn(nu) = {len(nu)} must exceed the stabilization level "
            f"{t.stabilization_level(m)} for {m} constraints"
        )
    if not rows:
        return nu + (0,) * (target_len - len(nu))
    graphs = t._graphs[:target_len]
    dec = _scan_levels(graphs, rows, nu)
    n = dec.failing_level
    if n is None:
        return dec.witness + (0,) * (target_len - len(dec.witness))
    if n < len(nu):
        for i, stems in enumerate(rows):
            if not graphs[n]._has((nu[n],) + tuple(s[n] for s in stems)):
                raise PreconditionError(f"hypothesis fails at level {n} for constraint {i}")
    raise InternalConsistencyError(f"no witness at level {n}: the template's declared arities do not hold")


@dataclass(frozen=True)
class TypeDecision:
    """A type decision: the witness stem when consistent, else the first
    level without one.  ``depth`` is the depth decide_positive_type decided
    at (None from the bare level scan); it stays out of repr and equality,
    which compare verdicts only."""

    consistent: bool
    witness: Optional[Stem]
    failing_level: Optional[int] = None
    depth: Optional[int] = field(default=None, repr=False, compare=False)


def _scan_levels(graphs: Sequence[Hypergraph], rows: Sequence, x: Stem = ()) -> TypeDecision:
    """The one per-level witness scan, unchecked: level n keeps x[n] if it
    forms an edge with each row's tuple (rows: at least one, of k-1 in-tree
    stems, padded with 0) and past x takes the least witness.  Past x and
    the stems each tuple repeats vertex 0 (or is (0,) when k = 2), so 0 is
    the witness: callers stop there and pad the witness with 0.  Past the
    given (stored) graphs every level is complete: the rest of x is kept."""
    depth = len(graphs)
    # stems padded canonically with least vertices, then the tuples of each level
    levels = zip(*(zip(*(s + (0,) * (depth - len(s)) for s in stems)) for stems in rows))
    out = []
    for n, (h, tuples) in enumerate(zip(graphs, levels)):
        if n < len(x):
            v = x[n]
            for tup in tuples:
                if not h._has((v,) + tup):
                    return TypeDecision(False, None, failing_level=n)
            out.append(v)
        else:
            w = h._witness(tuples)
            if w is None:
                return TypeDecision(False, None, failing_level=n)
            out.append(w)
    return TypeDecision(True, tuple(out) + x[len(graphs):])


def extend_canonically(t: Template, stem: Sequence[int], target_len: int) -> Stem:
    """Constraint-free canonical completion: pad with the least vertex."""
    stem = require_in_tree(t, stem, "stem")
    if len(stem) >= target_len:
        return stem
    return stem + (0,) * (target_len - len(stem))


def enumerate_edge_partners(t: Template, rho: Sequence[int], depth: int) -> int:
    """Exact count of (k-1)-tuples of stems of the given length that form an
    edge with rho at every level.

    The finite-depth surrogate of "each leaf lies in continuum many edges".
    Levels are independent, so this is a product over the levels n below
    depth: of the H_n^(k-1) tuples at level n, only the (k-1)! orderings of
    each (k-1)-set avoiding rho[n] that forms no uniform edge with it fail
    (none on the complete tail).  oracle.naive_edge_partners enumerates them."""
    rho = require_in_tree(t, rho, "rho")
    if depth < 0 or depth > len(rho):
        raise InputError(f"depth must lie in 0..{len(rho)}")
    width = t.arity - 1
    count = 1
    for h, v in zip(t._graphs[:depth], rho):
        degree = sum(1 for e in h.uniform_edges if v in e)
        count *= h.size**width - factorial(width) * (comb(h.size - 1, width) - degree)
    return count * prod(t.level_size(n) ** width for n in range(t.prefix_len, depth))

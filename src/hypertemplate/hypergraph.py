"""One level's finite k-full hypergraph.

A k-full hypergraph stores only its k-uniform part (edges on k distinct
vertices); every tuple with fewer than k distinct entries counts as an edge
by definition.  All queries derive the full edge relation at lookup time:
a single witness mask scans the edges on its first lookup, while the bulk
path (every (k-1)-tuple at once, for extension checks) derives all missing
masks from one pass over the edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from random import Random
from typing import Iterable, Optional, Sequence

from .errors import InputError

# Exhaustive extension checking is O(size^(t*(k-1)+1)); beyond this exponent
# budget we fall back to seeded sampling and flag the result non-exhaustive.
DEFAULT_EXTENSION_BUDGET = 12


@dataclass(frozen=True)
class ExtensionCheck:
    """Outcome of an extension-property check.

    ``exhaustive`` is False when only a sampled search ran, in which case
    ``holds`` means "no counterexample found", not a proof.
    ``counterexample`` is a list of (k-1)-tuples with no common witness.
    """

    holds: bool
    exhaustive: bool
    counterexample: Optional[tuple[tuple[int, ...], ...]] = None


class Hypergraph:
    """Immutable k-full hypergraph on vertices 0..size-1.

    Only the uniform part E* is stored; edges with repeated vertices are
    implicit.  All operations are pure.
    """

    __slots__ = ("arity", "size", "uniform_edges", "_edge_sets", "_mask_cache")

    def __init__(self, arity: int, size: int, uniform_edges: Iterable[Iterable[int]] = ()):
        if arity < 2:
            raise InputError(f"arity must be >= 2, got {arity}")
        if size < 1:
            raise InputError(f"size must be >= 1, got {size}")
        edges = set()
        for e in uniform_edges:
            fs = frozenset(e)
            if len(fs) != arity:
                raise InputError(f"uniform edge {sorted(fs)} does not have {arity} distinct vertices")
            if any(v < 0 or v >= size for v in fs):
                raise InputError(f"uniform edge {sorted(fs)} has a vertex outside 0..{size - 1}")
            edges.add(fs)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "uniform_edges", frozenset(edges))
        object.__setattr__(self, "_edge_sets", edges)
        object.__setattr__(self, "_mask_cache", {})

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.arity == other.arity
            and self.size == other.size
            and self.uniform_edges == other.uniform_edges
        )

    def __hash__(self):
        return hash((self.arity, self.size, self.uniform_edges))

    def __repr__(self):
        return f"Hypergraph(arity={self.arity}, size={self.size}, |E*|={len(self.uniform_edges)})"

    def __reduce__(self):  # __slots__ + immutability guard need explicit pickling
        edges = tuple(sorted(tuple(sorted(e)) for e in self.uniform_edges))
        return (Hypergraph, (self.arity, self.size, edges))

    # -- edge queries ------------------------------------------------------

    def is_edge(self, vertices: Sequence[int]) -> bool:
        """True iff the k-tuple is an edge: fewer than k distinct entries,
        or its underlying set lies in the uniform part.  Permutation
        invariant by construction."""
        if len(vertices) != self.arity:
            raise InputError(f"expected a {self.arity}-tuple, got length {len(vertices)}")
        distinct = set(vertices)
        if any(v < 0 or v >= self.size for v in distinct):
            raise InputError(f"vertex out of range in {tuple(vertices)}")
        if len(distinct) < self.arity:
            return True
        return frozenset(distinct) in self._edge_sets

    def witness_mask(self, partial: tuple[int, ...]) -> int:
        """Bitmask of all s with is_edge((s,) + partial).

        Cached; the workhorse behind witness search and extension checks."""
        mask = self._mask_cache.get(partial)
        if mask is not None:
            return mask
        if len(partial) != self.arity - 1:
            raise InputError(f"expected a {self.arity - 1}-tuple, got length {len(partial)}")
        if any(v < 0 or v >= self.size for v in partial):
            raise InputError(f"vertex out of range in {partial}")
        mask = 0
        if len(set(partial)) < self.arity - 1:
            # any s keeps the tuple below k distinct entries or not; with a
            # repeat already present every s yields an edge
            mask = (1 << self.size) - 1
        else:
            for v in partial:  # s repeating a listed vertex is always an edge
                mask |= 1 << v
            base = frozenset(partial)
            for e in self._edge_sets:
                if base < e:
                    (s,) = e - base
                    mask |= 1 << s
        self._mask_cache[partial] = mask
        return mask

    # -- extension property ------------------------------------------------

    def extension_witness(self, tuples: Sequence[Sequence[int]]) -> Optional[int]:
        """Least s forming an edge with every given (k-1)-tuple, or None."""
        if not tuples:
            raise InputError("extension_witness needs at least one tuple")
        mask = (1 << self.size) - 1
        for tup in tuples:
            mask &= self.witness_mask(tuple(tup))
            if not mask:
                return None
        return (mask & -mask).bit_length() - 1

    def _distinct_masks(self) -> dict[int, tuple[int, ...]]:
        """Map each distinct witness mask to a representative (k-1)-tuple,
        the first in product order, caching the mask of every tuple.

        Masks missing from the cache come from one pass over the edges, not
        one scan per tuple: an edge e gives bit s to the vertex set e - {s},
        and a tuple of k-1 distinct vertices adds its own vertices (s
        repeating one is always an edge); a tuple with a repeat gets all."""
        cache = self._mask_cache
        width = self.arity - 1
        full = (1 << self.size) - 1
        table: Optional[dict[int, int]] = None
        reps: dict[int, tuple[int, ...]] = {}
        for tup in product(range(self.size), repeat=width):
            m = cache.get(tup)
            if m is None:
                if table is None:
                    table = _completion_table(self._edge_sets)
                bits = 0
                for v in tup:
                    bits |= 1 << v
                m = table.get(bits, 0) | bits if bits.bit_count() == width else full
                cache[tup] = m
            if m not in reps:
                reps[m] = tup
        return reps

    def check_extension_property(
        self,
        t: int,
        budget: int = DEFAULT_EXTENSION_BUDGET,
        trials: int = 2000,
        seed: int = 0,
    ) -> ExtensionCheck:
        """Check that every choice of t (k-1)-tuples has a common witness.

        Exhaustive while t*(k-1) stays within the exponent budget, otherwise
        a seeded sampled search.  Dedup note: a choice with repetitions has
        the same witness set as its underlying set of distinct tuples, and
        witness sets only shrink as tuples are added, so it suffices to
        check sets of exactly min(t, #distinct masks) distinct masks.
        """
        if t < 1:
            raise InputError(f"t must be >= 1, got {t}")
        reps = self._distinct_masks()
        masks = sorted(reps)
        tt = min(t, len(masks))
        exhaustive = t * (self.arity - 1) <= budget
        if exhaustive:
            for chosen in combinations(masks, tt):
                acc = (1 << self.size) - 1
                for m in chosen:
                    acc &= m
                if not acc:
                    ce = tuple(reps[m] for m in chosen)
                    return ExtensionCheck(False, True, ce)
            return ExtensionCheck(True, True)
        rng = Random(seed)
        for _ in range(trials):
            chosen = [rng.choice(masks) for _ in range(tt)]
            acc = (1 << self.size) - 1
            for m in chosen:
                acc &= m
            if not acc:
                ce = tuple(reps[m] for m in chosen)
                return ExtensionCheck(False, False, ce)
        return ExtensionCheck(True, False)

    def has_extension_property(self, t: int, budget: int = DEFAULT_EXTENSION_BUDGET) -> bool:
        return self.check_extension_property(t, budget=budget).holds

    # -- cliques and independent sets --------------------------------------

    def find_k_full_clique(self, size: int) -> Optional[frozenset[int]]:
        """Lexicographically least vertex set of the requested size in which
        every k-sequence is an edge, or None.  Sets smaller than k qualify
        vacuously (all their k-sequences repeat a vertex)."""
        if size < 1:
            raise InputError(f"clique size must be >= 1, got {size}")
        if size > self.size:
            return None
        if size < self.arity:
            return frozenset(range(size))
        for cand in combinations(range(self.size), size):
            if all(frozenset(sub) in self._edge_sets for sub in combinations(cand, self.arity)):
                return frozenset(cand)
        return None

    def find_k_independent(self, size: int) -> Optional[frozenset[int]]:
        """Lexicographically least set of the requested size with no
        k-sequence of distinct vertices an edge, or None."""
        if size < self.arity:
            raise InputError(f"independent set size must be >= arity {self.arity}, got {size}")
        if size > self.size:
            return None
        for cand in combinations(range(self.size), size):
            if not any(frozenset(sub) in self._edge_sets for sub in combinations(cand, self.arity)):
                return frozenset(cand)
        return None


def _completion_table(edge_sets: Iterable[frozenset[int]]) -> dict[int, int]:
    """Map the vertex-set bits of every (k-1)-subset of an edge to the bits of
    the vertices s completing it to an edge, in one pass over the edges."""
    table: dict[int, int] = {}
    for e in edge_sets:
        bits = 0
        for v in e:
            bits |= 1 << v
        for v in e:
            rest = bits ^ (1 << v)
            table[rest] = table.get(rest, 0) | (1 << v)
    return table


def complete_hypergraph(arity: int, size: int) -> Hypergraph:
    """The k-full hypergraph in which every tuple is an edge."""
    if size < arity:
        return Hypergraph(arity, size)
    return Hypergraph(arity, size, combinations(range(size), arity))


def random_hypergraph(arity: int, size: int, edge_prob: float, rng: Random) -> Hypergraph:
    """Sample each k-subset as a uniform edge independently.

    Iterates subsets in lexicographic order so results are reproducible for
    a given generator state."""
    if not (0.0 < edge_prob <= 1.0):
        raise InputError(f"edge_prob must lie in (0, 1], got {edge_prob}")
    edges = [e for e in combinations(range(size), arity) if rng.random() < edge_prob]
    return Hypergraph(arity, size, edges)

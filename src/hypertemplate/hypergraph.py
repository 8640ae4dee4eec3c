"""One level's finite k-full hypergraph.

A k-full hypergraph stores only its k-uniform part (edges on k distinct
vertices); every tuple with fewer than k distinct entries counts as an edge
by definition.  Witness masks come from one completion table, built in
one pass over the edges when the first mask is needed and kept for the
level's lifetime.  The extension property is decided exactly, by a search
for a smallest cover of the vertex set by complements of witness masks,
within a bound on the nodes it visits.  The search's set-up is kept per
level and mode (with or without a span) as well, so repeated checks on a
level pay only for the search.  The same search, run once per vertex over
the tuples whose window replacements can reach it, decides the window
variant on which the agreement test rests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations, product
from operator import and_
from random import Random
from typing import Iterable, Optional, Sequence

from .errors import InputError

# Most nodes one extension check may visit, a node being one complement
# examined at a branching step; CPython 3.11 on a 2-vCPU Xeon examines three
# to ten million a second, so a stop comes within about 0.3 s.
COVER_SEARCH_NODES = 1_000_000


class _NodeBoundReached(Exception):
    """A cover search visited COVER_SEARCH_NODES nodes."""


@dataclass(frozen=True)
class ExtensionCheck:
    """Outcome of an extension-property check.

    ``counterexample`` is a smallest list of (k-1)-tuples with no common
    witness (among lists within the check's span of vertices, if it has
    one), so every such choice of fewer tuples has one.  ``exhaustive`` is
    False when the node bound stopped the search first, in which case
    ``holds`` means "no counterexample found", not a proof.  ``proven`` is
    the largest count up to t for which the property is proven.
    """

    holds: bool
    exhaustive: bool
    counterexample: Optional[tuple[tuple[int, ...], ...]] = None
    proven: int = 0


class Hypergraph:
    """Immutable k-full hypergraph on vertices 0..size-1.

    Only the uniform part E* is stored; edges with repeated vertices are
    implicit.  All operations are pure.
    """

    __slots__ = ("arity", "size", "uniform_edges", "_table", "_mask_cache", "_cover")

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
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_mask_cache", {})
        object.__setattr__(self, "_cover", {})  # cover-search set-up by span is None

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
        self._check(vertices, self.arity)
        return self._has(vertices)

    def _check(self, vertices: Sequence[int], width: int) -> None:
        """Raise InputError unless vertices is a width-tuple of this level's vertices."""
        if len(vertices) != width:
            raise InputError(f"expected a {width}-tuple, got length {len(vertices)}")
        if any(v < 0 or v >= self.size for v in vertices):
            raise InputError(f"vertex out of range in {tuple(vertices)}")

    def _has(self, vertices: Sequence[int]) -> bool:
        """is_edge for a k-tuple the caller has checked."""
        distinct = frozenset(vertices)
        return len(distinct) < self.arity or distinct in self.uniform_edges

    def witness_mask(self, partial: tuple[int, ...]) -> int:
        """Bitmask of all s with is_edge((s,) + partial).

        Read off the completion table and memoized per tuple; the workhorse
        behind witness search."""
        mask = self._mask_cache.get(partial)
        if mask is None:
            self._check(partial, self.arity - 1)
            mask = self._mask_cache[partial] = self._mask(partial)
        return mask

    def _mask(self, partial: tuple[int, ...]) -> int:
        """Witness mask of a checked (k-1)-tuple.  With a repeated vertex
        every s gives an edge; otherwise the s completing its vertex set to
        a uniform edge, per the completion table (built on first use), plus
        its own vertices (s repeating one is always an edge)."""
        bits = 0
        for v in partial:
            bits |= 1 << v
        if bits.bit_count() < self.arity - 1:
            return (1 << self.size) - 1
        table = self._table
        if table is None:
            table = _completion_table(self.uniform_edges)
            object.__setattr__(self, "_table", table)
        return table.get(bits, 0) | bits

    # -- extension property ------------------------------------------------

    def extension_witness(self, tuples: Sequence[Sequence[int]]) -> Optional[int]:
        """Least s forming an edge with every given (k-1)-tuple, or None."""
        if not tuples:
            raise InputError("extension_witness needs at least one tuple")
        tuples = [tuple(tup) for tup in tuples]
        for tup in tuples:
            self._check(tup, self.arity - 1)
        return self._witness(tuples)

    def _witness(self, tuples: Iterable[tuple[int, ...]]) -> Optional[int]:
        """extension_witness for checked (k-1)-tuples, through the witness_mask memo."""
        cache = self._mask_cache
        mask = (1 << self.size) - 1
        for tup in tuples:
            m = cache.get(tup)
            if m is None:
                m = cache[tup] = self._mask(tup)
            mask &= m
            if not mask:
                return None
        return (mask & -mask).bit_length() - 1

    def _reach_proves(self, t: int, span: Optional[int] = None) -> bool:
        """True when no t complements of witness masks cover the vertex set,
        so every t (k-1)-tuples have a common witness; always on a complete
        level.  Reads the reach bound of the kept cover-search set-up for
        the mode, building the set-up's first part on the first call."""
        setup = self._cover.get(span is None)
        if setup is None:
            full = (1 << self.size) - 1
            # a tuple with a repeat has the full mask and its permutations the
            # sorted tuple's, so the (k-1)-sets in order give every mask, each
            # first at the tuple that gives it first in product order
            rows: list[tuple[int, tuple[int, ...]]] = []
            seen: set[int] = set()
            for tup in combinations(range(self.size), self.arity - 1):
                m = self._mask(tup)
                if m != full and (span is not None or m not in seen):
                    seen.add(m)
                    rows.append((m, tup))
            # supports and by_vertex wait for a call that gets past reach
            setup = self._cover[span is None] = (*_by_size(full, rows), None, None)
        reach = setup[0]
        return reach[min(t, len(reach) - 1)] < self.size

    def check_extension_property(self, t: int, span: Optional[int] = None) -> ExtensionCheck:
        """Check that every choice of t (k-1)-tuples has a common witness;
        with span, only choices whose tuples hold at most span distinct
        vertices in all.

        Tuples lack one exactly when the complements of their witness masks
        cover the vertex set, so this searches for a smallest cover by at
        most t complements (_cover_search).  Without span it offers one
        inclusion-maximal complement per distinct mask (a cover may trade
        any other for one containing it); with span, one complement per
        (k-1)-set, taken only while the chosen sets stay within span
        vertices.  Masks come from the completion table and leave the
        witness_mask memo alone.  The set-up is kept on the level per mode:
        the complements by size and the bound on what j of them can cover
        from the first call (through _reach_proves, which tests that bound
        first), the maximality filter or supports and the per-vertex lists
        from the first call that gets past that bound.  The search, its
        node count and its result stay per call."""
        if t < 1:
            raise InputError(f"t must be >= 1, got {t}")
        if self._reach_proves(t, span):
            return ExtensionCheck(True, True, proven=t)
        setup = self._cover[span is None]
        if setup[-1] is None:  # the first search on this level and mode
            # reach still counts every complement, so it bounds the kept ones too
            setup = self._cover[span is None] = (setup[0], *_index(self.size, *setup[1:3], span))
        return self._cover_search(t, setup, span, [0])

    def check_window_extension(self, t: int, start: int) -> ExtensionCheck:
        """Check that every choice of t (k-1)-tuples has a common witness
        when window replacements of them share one.  A tuple's window
        replacements keep its vertices below start and move each other one
        to any vertex from start on (the tuple itself among them), and its
        window mask is the OR of their witness masks.

        A counterexample is a smallest list of at most t tuples with no
        common witness whose window masks share a vertex;
        _window_replacements gives the replacements.  With start <= 0 every
        choice qualifies, so this is check_extension_property; with start
        >= size no choice does.  Otherwise, for each vertex w, the cover
        search runs over the tuples whose window mask holds w (once per
        distinct set of such masks), all under one node bound."""
        if t < 1:
            raise InputError(f"t must be >= 1, got {t}")
        if start <= 0:
            return self.check_extension_property(t)
        if start >= self.size or self._reach_proves(t):
            return ExtensionCheck(True, True, proven=t)
        full = (1 << self.size) - 1
        rows = [
            (self._mask(tup), self._window_mask(tup, start), tup)
            for tup in combinations(range(self.size), self.arity - 1)
        ]
        nodes = [0]  # shared by every vertex's search
        searched: set[frozenset[int]] = set()
        for w in range(self.size):
            seen: dict[int, tuple[int, ...]] = {}
            for m, window, tup in rows:
                if window >> w & 1 and m != full:
                    seen.setdefault(m, tup)
            key = frozenset(seen)
            if key in searched:
                continue
            searched.add(key)
            reach, comps, tuples = _by_size(full, list(seen.items()))
            if reach[min(t, len(reach) - 1)] < self.size:
                continue
            chk = self._cover_search(t, (reach, *_index(self.size, comps, tuples, None)), None, nodes)
            if not chk.holds:
                return chk
            if not chk.exhaustive:  # the vertices not yet searched prove nothing
                return ExtensionCheck(True, False)
        return ExtensionCheck(True, True, proven=t)

    def _window(self, tup: tuple[int, ...], start: int) -> Iterable[tuple[int, ...]]:
        """The window replacements of tup, in product order."""
        lo = max(start, 0)
        return product(*((v,) if v < start else range(lo, self.size) for v in tup))

    def _window_mask(self, tup: tuple[int, ...], start: int) -> int:
        """OR of the witness masks of tup's window replacements.  It is
        tup's own mask when all its vertices lie below start, and full when
        two do not (one replacement repeats a vertex)."""
        full = (1 << self.size) - 1
        mask = 0
        for r in self._window(tup, start):
            mask |= self._mask(r)
            if mask == full:
                break
        return mask

    def _window_replacements(self, tuples: Sequence[tuple[int, ...]], start: int) -> tuple[tuple[int, ...], ...]:
        """One window replacement per tuple, all sharing the least vertex
        their window masks share: for each, the first in product order whose
        mask holds it.  The window masks must share a vertex."""
        common = reduce(and_, (self._window_mask(tup, start) for tup in tuples))
        w = (common & -common).bit_length() - 1
        return tuple(next(r for r in self._window(tup, start) if self._mask(r) >> w & 1) for tup in tuples)

    def _cover_search(self, t: int, setup: tuple, span: Optional[int], nodes: list[int]) -> ExtensionCheck:
        """Search the set-up (reach, sets, tuples, supports, by_vertex) for a
        smallest cover of the vertex set by at most t sets: branch on the
        least uncovered vertex, leave out sets an earlier sibling's subtree
        tried, and raise the cover size one step at a time.  nodes[0] counts
        the sets examined, offered or filtered out, across every search that
        shares the list; past COVER_SEARCH_NODES the search stops with
        exhaustive=False."""
        reach, sets, tuples, supports, by_vertex = setup
        if not all(by_vertex):  # a vertex no set holds: every choice has a witness
            return ExtensionCheck(True, True, proven=t)
        full = (1 << self.size) - 1
        width = self.arity - 1
        chosen: list[int] = []
        used = nodes[0]

        def cover(uncovered: int, spare: int, banned: int, support: int) -> bool:
            # a set holding the least uncovered vertex, then <= spare more
            nonlocal used
            branch = by_vertex[(uncovered & -uncovered).bit_length() - 1]
            used += len(branch)
            if used > COVER_SEARCH_NODES:
                raise _NodeBoundReached
            if span is not None and span - support.bit_count() < width:  # else every set fits
                branch = [i for i in branch if (support | supports[i]).bit_count() <= span]
            for i in branch:
                if banned >> i & 1:
                    continue
                rest = uncovered & ~sets[i]
                if not rest or rest.bit_count() <= reach[spare] and cover(
                    rest, spare - 1, banned, support | supports[i]
                ):
                    chosen.append(i)
                    return True
                banned |= 1 << i
            return False

        proven = 0
        try:
            for limit in range(1, min(t, len(sets)) + 1):
                if reach[limit] >= self.size and cover(full, limit - 1, 0, 0):
                    ce = tuple(sorted(tuples[i] for i in chosen))
                    return ExtensionCheck(False, True, ce, proven)
                proven = limit
        except _NodeBoundReached:
            return ExtensionCheck(True, False, proven=proven)
        finally:
            nodes[0] = used
            del cover  # the closure holds itself: free its lists now, not at the next GC
        return ExtensionCheck(True, True, proven=t)


def _by_size(full: int, rows: list[tuple[int, tuple[int, ...]]]) -> tuple[list[int], list[int], list]:
    """The first part of a cover-search set-up from (mask, tuple) rows: the
    complements, largest first (ties keep row order), their tuples, and
    reach, where no j complements cover more than reach[j] vertices."""
    rows.sort(key=lambda row: row[0].bit_count())
    comps = [full ^ m for m, _ in rows]
    reach = list(accumulate(map(int.bit_count, comps), initial=0))
    return reach, comps, [tup for _, tup in rows]


def _index(size: int, comps: list[int], tuples: list, span: Optional[int]) -> tuple:
    """The rest of a cover-search set-up: without span the inclusion-maximal
    complements (supersets come first) with zero supports, with span every
    complement with its tuple's vertices as support; then, per vertex, the
    indices of the sets that hold it."""
    if span is None:
        sets, kept = [], []
        for c, tup in zip(comps, tuples):
            if all(c & s != c for s in sets):
                sets.append(c)
                kept.append(tup)
        supports = [0] * len(sets)
    else:
        sets, kept, supports = comps, tuples, [sum(1 << v for v in tup) for tup in tuples]
    return sets, kept, supports, [[i for i, c in enumerate(sets) if c >> v & 1] for v in range(size)]


def _completion_table(edges: Iterable[frozenset[int]]) -> dict[int, int]:
    """Map the vertex-set bits of every (k-1)-subset of an edge to the bits of
    the vertices s completing it to an edge, in one pass over the edges."""
    table: dict[int, int] = {}
    for e in edges:
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

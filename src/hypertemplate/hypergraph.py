"""One level's finite k-full hypergraph.

A k-full hypergraph stores only its k-uniform part (edges on k distinct
vertices); every tuple with fewer than k distinct entries counts as an edge
by definition.  Witness masks come from one completion table, built when
the first mask is needed and kept for the level's lifetime: one pass over
E*, or, when more than half the k-sets are edges, over the non-edges found
in one walk over the k-sets.  The extension property is decided exactly,
by a search for a smallest cover of the vertex set by complements of
witness masks, within a bound on the nodes it visits.  Per mode (with or
without a span) a level keeps two values: the reach bound, from the first
check, which alone answers many checks, and the search's set-up (_setup),
from the first check the bound does not answer, so repeated checks pay
only for the search.  These checks live in _Level, which random_template
also runs on a drawn level before only the accepted draw becomes a
Hypergraph.  The same search, over one set-up per vertex, with window
masks in closed form, decides the window variant the agreement test rests
on; a window check keeps nothing of its own, so each one searches afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, combinations, compress, filterfalse
from math import comb
from operator import and_, not_
from random import Random
from typing import Collection, Iterable, Iterator, Optional, Sequence

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
    False when the node bound stopped a search: ``holds`` then means "none
    found", not a proof, and there is no counterexample.  ``proven`` is the
    largest count up to t proven to hold.
    """

    holds: bool
    exhaustive: bool
    counterexample: Optional[tuple[tuple[int, ...], ...]] = None
    proven: int = 0


class _Level:
    """A level's extension checks, read off its completion table; a
    Hypergraph builds its table on first use, a drawn level (_drawn) has it
    from the draw.  Per mode, span None or not, the first check keeps the
    reach bound and the rows it comes from (_build_reach); the first search
    turns those rows into the set-up it keeps (_build_cover)."""

    __slots__ = ("arity", "size", "_table", "_reach", "_rows", "_cover")

    def __init__(self, arity: int, size: int, table: Optional[tuple[dict[int, int], int]]):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_reach", {})  # reach bound by span is None
        object.__setattr__(self, "_rows", {})  # the rows it came from, until that mode's first search
        object.__setattr__(self, "_cover", {})  # cover-search set-up by span is None

    @classmethod
    def _drawn(cls, arity: int, size: int, ksets: list[tuple[int, ...]], drawn: list[bool]) -> _Level:
        """The checks of the level whose uniform edges are the drawn k-sets
        (_draw), its completion table built from the side with fewer k-sets."""
        if 2 * sum(drawn) > len(ksets):
            return cls(arity, size, _completion_table(compress(ksets, map(not_, drawn)), (1 << size) - 1))
        return cls(arity, size, _completion_table(compress(ksets, drawn), 0))

    def _hypergraph(self, uniform_edges: Iterable[Iterable[int]]) -> Hypergraph:
        """The Hypergraph with these uniform edges, the ones this level's
        table was built from, keeping the table, reach bounds and set-ups."""
        h = Hypergraph(self.arity, self.size, uniform_edges)
        for name in ("_table", "_reach", "_rows", "_cover"):
            object.__setattr__(h, name, getattr(self, name))
        return h

    def _check_extension(self, t: int, span: Optional[int]) -> ExtensionCheck:
        """check_extension_property for t >= 1, as random_template also runs
        it on its draws: the reach bound, then, only when it does not
        answer, the search on the mode's kept set-up."""
        if self._reach_proves(t, span):
            return ExtensionCheck(True, True, proven=t)
        return self._cover_search(t, [self._cover.get(span is None) or self._build_cover(span)], span)

    def _reach_proves(self, t: int, span: Optional[int] = None) -> bool:
        """True when no t complements of witness masks cover the vertex set,
        so every t (k-1)-tuples have a common witness; always on a complete
        level.  Reads the mode's reach bound, which its first call builds
        (_build_reach) and the level keeps; no search set-up is built."""
        reach = self._reach.get(span is None) or self._build_reach(span)
        return reach[min(t, len(reach) - 1)] < self.size

    def _build_reach(self, span: Optional[int]) -> list[int]:
        """Keep the mode's rows, every (k-1)-set's mask (_set_masks) with
        its tuple (without span one per mask) sorted by _reach, and beside
        them the reach bound, which this returns."""
        full = (1 << self.size) - 1
        # a tuple with a repeat has the full mask and its permutations the
        # sorted tuple's, so the (k-1)-sets in order give every mask, each
        # first at the tuple that gives it first in product order
        rows: list[tuple[int, tuple[int, ...]]] = []
        seen: set[int] = set()
        for m, tup in self._set_masks():
            if m != full and (span is not None or m not in seen):
                seen.add(m)
                rows.append((m, tup))
        self._rows[span is None] = rows
        reach = self._reach[span is None] = _reach(self.size, rows)
        return reach

    def _set_masks(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Every (k-1)-set in order, with its mask off the completion table."""
        table, flip = self._table or self._completion()
        get = table.get
        sets = combinations([1 << v for v in range(self.size)], self.arity - 1)
        masks = [(get(bits, 0) ^ flip) | bits for bits in map(sum, sets)]
        return zip(masks, combinations(range(self.size), self.arity - 1))

    def _build_cover(self, span: Optional[int]) -> tuple:
        """Build and keep the mode's cover-search set-up from the rows its
        reach bound came from, then let the rows go."""
        mode = span is None
        setup = self._cover[mode] = (self._reach[mode], *_setup(self.size, self._rows[mode], span))
        del self._rows[mode]
        return setup

    def _cover_search(self, t: int, setups: Iterable[tuple], span: Optional[int]) -> ExtensionCheck:
        """Search the set-ups, each (reach, sets, tuples, supports,
        by_vertex), for a smallest cover of the vertex set by at most t sets
        of one set-up, one size at a time: size 2 in every set-up, then 3,
        and so on (no one set covers: each misses its tuple's vertices).
        Within a set-up it branches on the least uncovered vertex and leaves
        out sets an earlier sibling's subtree tried.  A set-up is taken from
        setups when the size-2 pass reaches it.  The sets examined, offered
        or filtered out, count against one node bound, past which
        (COVER_SEARCH_NODES) the search stops with exhaustive=False.  A
        smaller cap runs a prefix of the same search, so an exhaustive
        result at cap T gives the one at every cap t <= T, and a cover of c
        sets the one at every cap from c up."""
        full = (1 << self.size) - 1
        width = self.arity - 1
        chosen: list[int] = []
        used = 0

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

        proven, live, pending = 1, [], iter(setups)
        try:
            for limit in range(2, t + 1):
                earlier, live = live, []
                for setup in chain(earlier, pending):
                    reach, sets, tuples, supports, by_vertex = setup
                    if limit > len(sets) or not all(by_vertex):  # it covers at no size from here on
                        continue
                    live.append(setup)
                    if reach[limit] >= self.size and cover(full, limit - 1, 0, 0):
                        return ExtensionCheck(False, True, tuple(sorted(tuples[i] for i in chosen)), proven)
                if not live:
                    break
                proven = limit
        except _NodeBoundReached:
            return ExtensionCheck(True, False, proven=proven)
        finally:
            del cover  # the closure holds itself: free its lists now, not at the next GC
        return ExtensionCheck(True, True, proven=t)


class Hypergraph(_Level):
    """Immutable k-full hypergraph on vertices 0..size-1.

    Only the uniform part E* is stored; edges with repeated vertices are
    implicit.  All operations are pure; the extension checks' kept state
    and helpers come from _Level.
    """

    __slots__ = ("uniform_edges", "_mask_cache")

    def __init__(self, arity: int, size: int, uniform_edges: Iterable[Iterable[int]] = ()):
        """The level with these uniform edges, each read once.  All edges
        are checked at once (_fit); only when that check fails are they
        walked in input order, so the error names the first bad edge."""
        if arity < 2:
            raise InputError(f"arity must be >= 2, got {arity}")
        if size < 1:
            raise InputError(f"size must be >= 1, got {size}")
        edges = list(map(frozenset, uniform_edges))
        if not _fit(edges, arity, size):
            for fs in edges:  # name the first bad edge in input order
                if len(fs) != arity:
                    raise InputError(f"uniform edge {sorted(fs)} does not have {arity} distinct vertices")
                if min(fs) < 0 or max(fs) >= size:
                    raise InputError(f"uniform edge {sorted(fs)} has a vertex outside 0..{size - 1}")
        super().__init__(arity, size, None)
        object.__setattr__(self, "uniform_edges", frozenset(edges))
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

    def witness_mask(self, partial: Sequence[int]) -> int:
        """Bitmask of all s with is_edge((s,) + partial), for any sequence.

        Read off the completion table and memoized per tuple; the workhorse
        behind witness search."""
        partial = tuple(partial)  # the memo's key
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
        table, flip = self._table or self._completion()
        return (table.get(bits, 0) ^ flip) | bits

    def _completion(self) -> tuple[dict[int, int], int]:
        """Build the completion table and its flip (_completion_table) once
        and keep them: from E* when at most half the k-sets are edges, else
        from the non-edges, found in one walk over the k-sets."""
        edges = self.uniform_edges
        if 2 * len(edges) > comb(self.size, self.arity):
            ksets = map(frozenset, combinations(range(self.size), self.arity))
            table = _completion_table(filterfalse(edges.__contains__, ksets), (1 << self.size) - 1)
        else:
            table = _completion_table(edges, 0)
        object.__setattr__(self, "_table", table)
        return table

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

    def check_extension_property(self, t: int, span: Optional[int] = None) -> ExtensionCheck:
        """Check that every choice of t (k-1)-tuples has a common witness;
        with span, only choices whose tuples hold at most span distinct
        vertices in all.

        Tuples lack one exactly when the complements of their witness masks
        cover the vertex set, so this searches for a smallest cover by at
        most t complements (_cover_search).  Without span it offers the
        inclusion-maximal complements, one per mask (a cover may trade any
        other for one containing it); with span, one per (k-1)-set, taken
        only while the chosen sets stay within span vertices.  Masks come
        from the completion table and leave the witness_mask memo alone.
        Per mode the level keeps the reach bound from the first call
        (_reach_proves), which answers alone when no t complements can
        cover, and the set-up (_setup) from the first call it does not
        answer; the search, its node count and its result stay per call."""
        if t < 1:
            raise InputError(f"t must be >= 1, got {t}")
        return self._check_extension(t, span)

    def check_window_extension(self, t: int, start: int) -> ExtensionCheck:
        """Check that every choice of t (k-1)-tuples has a common witness
        when window replacements of them share one.  A tuple's window
        replacements keep its vertices below start and move each other one
        to any vertex from start on, and its window mask is the OR of their
        witness masks.  A counterexample is a smallest list of at most t
        tuples with no common witness whose window masks share a vertex.

        With start <= 0 every choice qualifies, so this is
        check_extension_property; with start >= size none does.  Otherwise
        a sorted (k-1)-set's window mask is, by how many of its vertices lie
        at or past start: none, its own mask; two or more, full (a
        replacement repeats a vertex); one, its last, the OR of the masks of
        the sets sharing its other vertices and ending at or past start.
        One cover search runs over one set-up per distinct set of tuples
        whose window masks hold a vertex, so its first cover is smallest; a
        set of fewer than two masks, or of masks sharing a vertex, cannot
        cover and gets no set-up."""
        return self._window_check(t, start)[0]

    def _window_check(self, t: int, start: int) -> tuple[ExtensionCheck, Optional[tuple[tuple[int, ...], ...]]]:
        """check_window_extension, with one window replacement per
        counterexample tuple (None when it holds): the first in product order
        whose mask holds w, the least vertex their window masks share.  That
        is the set itself with no vertex at or past start; with two or more,
        the set with those moved to start; with one, the set ending at the
        least vertex from start on whose mask holds w.  With start <= 0 every
        window is full, so w is 0 and every replacement is all zeros."""
        if t < 1:
            raise InputError(f"t must be >= 1, got {t}")
        if start <= 0:
            chk = self._check_extension(t, None)
            return chk, chk.counterexample and ((0,) * (self.arity - 1),) * len(chk.counterexample)
        if start >= self.size or self._reach_proves(t):
            return ExtensionCheck(True, True, proven=t), None
        full = (1 << self.size) - 1
        sets = list(self._set_masks())
        heads: dict[tuple[int, ...], int] = {}  # head below start: OR of the masks of its sets ending at or past it
        for m, tup in sets:
            if tup[-1] >= start and (len(tup) == 1 or tup[-2] < start):
                heads[tup[:-1]] = heads.get(tup[:-1], 0) | m
        rows = [(m, m if tup[-1] < start else heads.get(tup[:-1], full), tup) for m, tup in sets if m != full]

        def setups() -> Iterable[tuple]:
            searched: set[frozenset[int]] = set()
            for w in range(self.size):
                seen: dict[int, tuple[int, ...]] = {}
                for m, window, tup in rows:
                    if window >> w & 1:
                        seen.setdefault(m, tup)
                if (key := frozenset(seen)) not in searched:
                    searched.add(key)
                    if len(seen) < 2 or reduce(and_, seen):  # one mask, or a vertex in all: the search drops it unsearched
                        continue
                    held = list(seen.items())
                    yield (_reach(self.size, held), *_setup(self.size, held, None))

        chk = self._cover_search(t, setups(), None)
        if chk.holds:
            return chk, None
        common = reduce(and_, (window for _, window, tup in rows if tup in chk.counterexample))
        w = (common & -common).bit_length() - 1
        return chk, tuple(
            tuple(min(v, start) for v in tup) if tup[-1] < start or tup[:-1] not in heads
            else next(r for m, r in sets if r[:-1] == tup[:-1] and r[-1] >= start and m >> w & 1)
            for tup in chk.counterexample
        )


def _reach(size: int, rows: list[tuple[int, tuple[int, ...]]]) -> list[int]:
    """Sort (mask, tuple) rows by mask size, in place (ties keep row order),
    and return the reach bound of their complements: no j of them cover more
    than reach[j] vertices, the sum of the j largest sizes."""
    rows.sort(key=lambda row: row[0].bit_count())
    return list(accumulate((size - m.bit_count() for m, _ in rows), initial=0))


def _setup(size: int, rows: list[tuple[int, tuple[int, ...]]], span: Optional[int]) -> tuple:
    """A cover-search set-up, less its reach bound, from (mask, tuple) rows
    sorted by _reach: the complements, largest first, without span only the
    inclusion-maximal ones (the reach bound counts the others too); their
    tuples; with span, their tuples' vertices as supports (0 without); and
    per vertex the indices of the complements holding it."""
    full = (1 << size) - 1
    comps, tuples, supports = [], [], []
    by_vertex, holders = [[] for _ in range(size)], [0] * size  # holders: by_vertex as bits
    for m, tup in rows:
        c = rest = full ^ m
        vertices, common = [], -1  # common: the complements holding all of c
        while rest:  # c's vertices, one set bit at a time
            low = rest & -rest
            v = low.bit_length() - 1
            vertices.append(v)
            common &= holders[v]
            rest ^= low
        if span is None and common:
            continue  # a larger complement holds c, and a cover may trade c for it
        i = len(comps)
        for v in vertices:
            by_vertex[v].append(i)
            holders[v] |= 1 << i
        comps.append(c)
        tuples.append(tup)
        supports.append(0 if span is None else sum(1 << v for v in tup))
    return comps, tuples, supports, by_vertex


def _completion_table(sets: Iterable[Iterable[int]], flip: int) -> tuple[dict[int, int], int]:
    """The completion table of the k-sets on one side of E*, and its flip: a
    (k-1)-set's witness mask is (table.get(bits, 0) ^ flip) | bits.

    The table maps the vertex-set bits of every (k-1)-subset of a given
    k-set to the bits of the vertices completing it to a given one.  Given
    the edges, flip is 0; given the non-edges, it is the full mask."""
    table: dict[int, int] = {}
    for e in sets:
        bits = 0
        for v in e:
            bits |= 1 << v
        for v in e:
            rest = bits ^ (1 << v)
            table[rest] = table.get(rest, 0) | (1 << v)
    return table, flip


def _fit(edges: Collection[frozenset[int]], arity: int, size: int) -> bool:
    """Whether every edge is an arity-set of vertices in 0..size-1, checked
    for all at once: the set of their sizes, then the least and greatest
    vertex of their union."""
    vertices = frozenset().union(*edges)
    return set(map(len, edges)) <= {arity} and (not vertices or min(vertices) >= 0 and max(vertices) < size)


def complete_hypergraph(arity: int, size: int) -> Hypergraph:
    """The k-full hypergraph in which every tuple is an edge."""
    return Hypergraph(arity, size, combinations(range(size), arity))


def random_hypergraph(arity: int, size: int, edge_prob: float, rng: Random) -> Hypergraph:
    """Sample each k-subset as a uniform edge independently (_draw)."""
    ksets, drawn = _draw(arity, size, edge_prob, rng)
    return Hypergraph(arity, size, compress(ksets, drawn))


def _draw(arity: int, size: int, edge_prob: float, rng: Random) -> tuple[list[tuple[int, ...]], list[bool]]:
    """The k-subsets of the vertices in lexicographic order, and for each
    whether it is drawn as an edge: one rng.random() each, below edge_prob,
    so one generator state gives one draw."""
    if not (0.0 < edge_prob <= 1.0):
        raise InputError(f"edge_prob must lie in (0, 1], got {edge_prob}")
    ksets = list(combinations(range(size), arity))
    random = rng.random
    return ksets, [random() < edge_prob for _ in ksets]

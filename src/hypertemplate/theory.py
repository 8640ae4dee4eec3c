"""Finite models of the level-m template theory.

Elements carry their length-m leaf stem directly, so the refinement and
partition axioms for the unary predicates hold by construction; the only
thing left to police is the edge relation.  An edge is forbidden exactly
when the leaves of its endpoints fail to form an edge at some stored level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import and_, itemgetter
from random import Random
from typing import Optional, Sequence

from .errors import InputError
from .hypergraph import Hypergraph, _fit
from .template import Template
from .tree import Stem, in_tree


@dataclass
class FiniteModel:
    """A finite structure for the level-m theory: elements are indices,
    each with a leaf stem of length ``level``; edges are k-element subsets
    of element indices."""

    arity: int
    level: int
    leaves: list[Stem]
    edges: set[frozenset[int]]

    def copy(self) -> "FiniteModel":
        return FiniteModel(self.arity, self.level, list(self.leaves), set(self.edges))

    def __len__(self) -> int:
        return len(self.leaves)


def holds_Q(model: FiniteModel, element: int, eta: Sequence[int]) -> bool:
    """True iff eta is an initial segment of the element's leaf stem.

    This prefix encoding makes the root predicate total, refinement
    automatic, and sibling predicates disjoint."""
    eta = tuple(eta)
    if len(eta) > model.level:
        raise InputError(f"predicate stem longer than model level {model.level}")
    leaf = model.leaves[element]
    return leaf[: len(eta)] == eta


@dataclass(frozen=True)
class Violation:
    kind: str  # "leaf" | "edge_shape" | "forbidden_edge"
    detail: str
    level: Optional[int] = None


def _misshapen(edges: set[frozenset[int]], k: int, count: int) -> list[frozenset[int]]:
    """The edges that are not k-subsets of 0..count-1, walked one by one
    only when the check of all at once (as in Hypergraph.__init__) fails."""
    if _fit(edges, k, count):
        return []
    return [e for e in edges if len(e) != k or min(e) < 0 or max(e) >= count]


def check_model(t: Template, model: FiniteModel) -> tuple[Violation, ...]:
    """All violations: malformed leaves, then non-k-subsets and edges whose
    endpoint leaves fail some level, in the order of their sorted vertex
    lists.  Empty means the model is valid.  An edge touching a malformed
    leaf is not tested: that leaf's violation is reported instead.  Edges
    are tested as stored; only the violations are sorted."""
    out = []
    if model.arity != t.arity:
        out.append(Violation("edge_shape", f"model arity {model.arity} != template arity {t.arity}"))
        return tuple(out)
    malformed = set()
    for i, leaf in enumerate(model.leaves):
        if len(leaf) != model.level:
            out.append(Violation("leaf", f"element {i} leaf has length {len(leaf)}, expected {model.level}"))
            malformed.add(i)
        elif not in_tree(t, leaf):
            out.append(Violation("leaf", f"element {i} leaf {leaf} leaves the tree"))
            malformed.add(i)
    bad = _misshapen(model.edges, t.arity, len(model.leaves))
    found = [  # (sorted vertex list, violation)
        (idx, Violation("edge_shape", f"edge {idx} is not a {t.arity}-subset of elements")) for idx in map(sorted, bad)
    ]
    graphs = t._graphs[: model.level]
    for e in model.edges.difference(bad):
        if not malformed.isdisjoint(e):
            continue
        for n, ok in enumerate(map(Hypergraph._has, graphs, zip(*map(model.leaves.__getitem__, e)))):
            if not ok:
                idx = sorted(e)
                detail = f"edge {idx} blocked: leaves evaluate to a non-edge at level {n}"
                found.append((idx, Violation("forbidden_edge", detail, level=n)))
                break
    found.sort(key=itemgetter(0))
    out += [v for _, v in found]
    return tuple(out)


def _check_embedding(m0: FiniteModel, m1: FiniteModel, emb: Sequence[int], name: str) -> None:
    if len(emb) != len(m0.leaves):
        raise InputError(f"{name}: embedding must map every element of M0")
    if len(set(emb)) != len(emb):
        raise InputError(f"{name}: embedding is not injective")
    for i, j in enumerate(emb):
        if not (0 <= j < len(m1.leaves)):
            raise InputError(f"{name}: image {j} outside the target model")
        if m0.leaves[i] != m1.leaves[j]:
            raise InputError(f"{name}: element {i} changes leaf under the embedding")
    # substructure: induced edges agree on the image
    img = list(emb)
    for sub in combinations(range(len(m0.leaves)), m0.arity):
        src = frozenset(sub)
        dst = frozenset(img[i] for i in sub)
        if (src in m0.edges) != (dst in m1.edges):
            raise InputError(f"{name}: edge on {sorted(src)} not preserved")


def amalgamate(
    t: Template,
    m0: FiniteModel,
    m1: FiniteModel,
    m2: FiniteModel,
    into1: Sequence[int] = (),
    into2: Sequence[int] = (),
) -> FiniteModel:
    """Union structure over a shared substructure.

    into1/into2 embed M0 into M1 and M2; elements of M2 outside the image
    are treated as fresh.  Unary data and edges are unions.  With M0 empty
    this is the joint embedding construction.  The union of valid models is
    valid; callers confirm with check_model."""
    if not (m0.arity == m1.arity == m2.arity) or not (m0.level == m1.level == m2.level):
        raise InputError("models must share arity and level")
    _check_embedding(m0, m1, into1, "into1")
    _check_embedding(m0, m2, into2, "into2")
    remap2: dict[int, int] = {}
    for i, j in enumerate(into2):
        remap2[j] = into1[i]
    leaves = list(m1.leaves)
    for j in range(len(m2.leaves)):
        if j not in remap2:
            remap2[j] = len(leaves)
            leaves.append(m2.leaves[j])
    edges = set(m1.edges)
    for e in m2.edges:
        edges.add(frozenset(remap2[j] for j in e))
    return FiniteModel(m0.arity, m0.level, leaves, edges)


def all_level_stems(t: Template, m: int) -> list[Stem]:
    """All length-m leaf stems, lexicographically ordered."""
    return [tuple(s) for s in product(*(range(t.level_size(n)) for n in range(m)))]


def build_random_model(
    t: Template, m: int, count_per_leaf: int, edge_prob: float, seed: int
) -> FiniteModel:
    """count_per_leaf elements on every length-m leaf stem; each allowed
    k-subset becomes an edge independently with edge_prob.  Forbidden
    subsets are never included, so the result always checks clean."""
    if m < 0:
        raise InputError(f"level must be >= 0, got {m}")
    if m > t.prefix_len:
        raise InputError(f"level {m} beyond stored prefix {t.prefix_len}")
    if count_per_leaf < 0:
        raise InputError("count_per_leaf must be >= 0")
    if not (0.0 <= edge_prob <= 1.0):
        raise InputError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    rng = Random(seed)
    stems = all_level_stems(t, m)
    leaves = [s for s in stems for _ in range(count_per_leaf)]
    graphs = t._graphs[:m]
    allowed: dict[tuple[int, ...], bool] = {}  # per tuple of stem indices
    edges: set[frozenset[int]] = set()
    owner = [j for j in range(len(stems)) for _ in range(count_per_leaf)]  # stem index per element
    # both walk positions in one order, so key holds the stem indices of sub
    for sub, key in zip(combinations(range(len(leaves)), t.arity), combinations(owner, t.arity)):
        ok = allowed.get(key)
        if ok is None:
            ok = allowed[key] = all(map(Hypergraph._has, graphs, zip(*map(stems.__getitem__, key))))
        if ok and rng.random() < edge_prob:
            edges.add(frozenset(sub))
    return FiniteModel(t.arity, m, leaves, edges)


@dataclass
class ClosureResult:
    model: FiniteModel
    added: int
    reached_fixpoint: bool


def close_existentially(
    t: Template,
    m: int,
    model: FiniteModel,
    param_bound: int,
    budget: int,
) -> ClosureResult:
    """Bounded existential closure: repeatedly find a complete qf formula
    with at most param_bound parameters that is consistent with the level-m
    theory but unrealized, and add a witness carrying exactly the demanded
    edges.  Stops at a fixpoint over all such formulas or when the element
    budget is hit (reported, not an error).

    The model is checked once, on entry.  The formulas declare their
    parameters distinct and demand increasing tuples, so one is consistent
    iff each demanded tuple forms an edge with the witness leaf at every
    level below m, as decide_qf_formula decides, so the witness leaves are
    walked as a product of each level's common witnesses.  Enumeration
    order is canonical (parameter index tuples, then demanded edge sets,
    then witness leaves), so closure is deterministic."""
    if m < 0:
        raise InputError(f"level must be >= 0, got {m}")
    if param_bound < 1:
        raise InputError("param_bound must be >= 1")
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    k = t.arity
    if model.arity != k:
        raise InputError(f"model arity {model.arity} != template arity {k}")
    if model.level != m:
        raise InputError(f"model level {model.level} != closure level {m}")
    for i, leaf in enumerate(model.leaves):
        if len(leaf) != m or not in_tree(t, leaf):
            raise InputError(f"element {i} leaf {leaf} is not a level-{m} leaf of the tree")
    cur = FiniteModel(k, m, list(map(tuple, model.leaves)), set(model.edges))
    leaves, edges = cur.leaves, cur.edges
    bad = _misshapen(edges, k, len(leaves))
    if bad:
        raise InputError(f"edge {min(map(sorted, bad))} is not a {k}-subset of elements")
    graphs = t._graphs[:m]
    full = [(1 << t.level_size(l)) - 1 for l in range(m)]  # tail levels are complete: every vertex witnesses
    added = 0
    while True:
        frozen_count = len(leaves)
        for n in range(1, param_bound + 1):
            tuple_space = list(combinations(range(n), k - 1))
            demands = [frozenset(c) for size in range(len(tuple_space) + 1) for c in combinations(tuple_space, size)]
            for params in combinations(range(frozen_count), n):
                heads = {tup: tuple(params[i] for i in tup) for tup in tuple_space}
                masks = {  # each tuple's witness mask at each stored level
                    tup: [*map(Hypergraph._mask, graphs, zip(*(leaves[i] for i in idx)))]
                    for tup, idx in heads.items()
                }
                # the leaf and demanded-edge set of each element outside params
                realized = set()
                for b, leaf in enumerate(leaves):
                    if b not in params:
                        tups = (tup for tup, idx in heads.items() if frozenset((b, *idx)) in edges)
                        realized.add((leaf, frozenset(tups)))
                # a witness added here forms edges with params only, so no
                # element's carried set changes and no pair comes up twice
                for positive in demands:
                    allowed = full[:]  # by level, the vertices in every demanded tuple's witness mask
                    for tup in positive:
                        allowed[: len(graphs)] = map(and_, allowed, masks[tup])
                    for x in product(*([v for v in range(a.bit_length()) if a >> v & 1] for a in allowed)):
                        if (x, positive) in realized:
                            continue
                        if added >= budget:
                            return ClosureResult(cur, added, False)
                        b = len(leaves)
                        leaves.append(x)
                        edges.update(frozenset((b, *heads[tup])) for tup in positive)
                        added += 1
        if len(leaves) == frozen_count:
            return ClosureResult(cur, added, True)

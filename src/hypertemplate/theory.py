"""Finite models of the level-m template theory.

Elements carry their length-m leaf stem directly, so the refinement and
partition axioms for the unary predicates hold by construction; the only
thing left to police is the edge relation.  An edge is forbidden exactly
when the leaves of its endpoints fail to form an edge at some level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from random import Random
from typing import Optional, Sequence

from .errors import InputError
from .hypergraph import Hypergraph
from .template import Template
from .tree import Stem, in_tree
from .typecheck import QfFormulaSpec, decide_qf_formula


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


def check_model(t: Template, model: FiniteModel) -> tuple[Violation, ...]:
    """All violations: malformed leaves, non-k-subsets, and edges whose
    endpoint leaves fail some level.  Empty means the model is valid.  An
    edge touching a malformed leaf is not tested: that leaf's violation is
    reported instead."""
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
    graphs = None
    for e in sorted(model.edges, key=sorted):
        if len(e) != t.arity or any(i < 0 or i >= len(model.leaves) for i in e):
            out.append(Violation("edge_shape", f"edge {sorted(e)} is not a {t.arity}-subset of elements"))
            continue
        if not malformed.isdisjoint(e):
            continue
        if graphs is None:
            graphs = t._level_graphs(model.level)
        idx = sorted(e)
        for n, (h, verts) in enumerate(zip(graphs, zip(*(model.leaves[i] for i in idx)))):
            if not h._has(verts):
                out.append(
                    Violation(
                        "forbidden_edge",
                        f"edge {idx} blocked: leaves evaluate to a non-edge at level {n}",
                        level=n,
                    )
                )
                break
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
    if m > t.prefix_len:
        raise InputError(f"level {m} beyond stored prefix {t.prefix_len}")
    if count_per_leaf < 0:
        raise InputError("count_per_leaf must be >= 0")
    if not (0.0 <= edge_prob <= 1.0):
        raise InputError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    rng = Random(seed)
    stems = all_level_stems(t, m)
    leaves = [s for s in stems for _ in range(count_per_leaf)]
    graphs = t._level_graphs(m)
    allowed: dict[tuple[int, ...], bool] = {}  # per tuple of stem indices
    edges: set[frozenset[int]] = set()
    for sub in combinations(range(len(leaves)), t.arity):
        key = tuple(i // count_per_leaf for i in sub)
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

    Enumeration order is canonical (parameter index tuples, then demanded
    edge sets, then witness leaves), so closure is deterministic."""
    if param_bound < 1:
        raise InputError("param_bound must be >= 1")
    cur = model.copy()
    stems = all_level_stems(t, m)
    added = 0
    k = t.arity
    while True:
        progressed = False
        frozen_count = len(cur.leaves)
        for n in range(1, param_bound + 1):
            for params in combinations(range(frozen_count), n):
                tuple_space = list(combinations(range(n), k - 1))
                c_choices = [frozenset()] if not tuple_space else [
                    frozenset(c)
                    for size in range(len(tuple_space) + 1)
                    for c in combinations(tuple_space, size)
                ]
                for positive in c_choices:
                    for x_leaf in stems:
                        spec = QfFormulaSpec(
                            x_leaf=x_leaf,
                            param_leaves=tuple(cur.leaves[i] for i in params),
                            positive=positive,
                        )
                        if not decide_qf_formula(t, m, spec):
                            continue
                        if _realized(cur, params, positive, x_leaf, k):
                            continue
                        if added >= budget:
                            return ClosureResult(cur, added, False)
                        b = len(cur.leaves)
                        cur.leaves.append(x_leaf)
                        for tup in positive:
                            cur.edges.add(frozenset((b,) + tuple(params[i] for i in tup)))
                        added += 1
                        progressed = True
        if not progressed:
            return ClosureResult(cur, added, True)


def _realized(
    model: FiniteModel,
    params: tuple[int, ...],
    positive: frozenset[tuple[int, ...]],
    x_leaf: Stem,
    k: int,
) -> bool:
    tuple_space = list(combinations(range(len(params)), k - 1))
    for b in range(len(model.leaves)):
        if b in params or model.leaves[b] != x_leaf:
            continue
        ok = True
        for tup in tuple_space:
            e = frozenset((b,) + tuple(params[i] for i in tup))
            if (e in model.edges) != (tup in positive):
                ok = False
                break
        if ok:
            return True
    return False

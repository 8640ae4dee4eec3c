import itertools
from random import Random

import pytest

from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph, complete_hypergraph
from hypertemplate.template import TailPolicy, Template, complete_template, random_template
from hypertemplate.theory import (
    FiniteModel,
    Violation,
    all_level_stems,
    amalgamate,
    build_random_model,
    check_model,
    close_existentially,
    holds_Q,
)


def two_edge_template():
    h0 = Hypergraph(3, 3, [(0, 1, 2)])
    h1 = Hypergraph(3, 6, [(3, 4, 5)])
    return Template(3, [(h0, 1), (h1, 1)], TailPolicy("complete_growing", 1))


def size2_template(arity=2, prefix=2):
    levels = [(complete_hypergraph(arity, 2), 2) for _ in range(prefix)]
    return Template(arity, levels, TailPolicy("complete_growing", 1))


def random_extension(t, base, extra, edge_prob, rng):
    """Extend base with extra fresh elements; new edges touch a new element."""
    out = base.copy()
    m = out.level
    stems = all_level_stems(t, m)
    first_new = len(out.leaves)
    for _ in range(extra):
        out.leaves.append(rng.choice(stems))
    for sub in itertools.combinations(range(len(out.leaves)), t.arity):
        if max(sub) < first_new:
            continue
        leaf = [out.leaves[i] for i in sub]
        if all(
            t.level_hypergraph(n).is_edge(tuple(s[n] for s in leaf)) for n in range(m)
        ):
            if rng.random() < edge_prob:
                out.edges.add(frozenset(sub))
    return out


class TestHoldsQ:
    def test_empty_stem_total(self):
        m = FiniteModel(3, 2, [(0, 1), (0, 0)], set())
        assert all(holds_Q(m, e, ()) for e in range(2))

    def test_prefix_semantics(self):
        m = FiniteModel(3, 2, [(2, 5)], set())
        assert holds_Q(m, 0, (2,))
        assert not holds_Q(m, 0, (3,))

    def test_sibling_disjointness(self):
        m = FiniteModel(3, 2, [(1, 0)], set())
        hits = [i for i in range(3) if holds_Q(m, 0, (i,))]
        assert hits == [1]

    def test_refinement(self):
        m = FiniteModel(3, 3, [(0, 2, 1)], set())
        assert holds_Q(m, 0, (0, 2, 1)) and holds_Q(m, 0, (0, 2)) and holds_Q(m, 0, (0,))

    def test_too_long_rejected(self):
        m = FiniteModel(3, 1, [(0,)], set())
        with pytest.raises(InputError):
            holds_Q(m, 0, (0, 0))


class TestCheckModel:
    def test_named_edge_allowed(self):
        t = two_edge_template()
        m = FiniteModel(3, 2, [(0, 3), (1, 4), (2, 5)], {frozenset({0, 1, 2})})
        assert check_model(t, m) == ()

    def test_forbidden_edge_reports_level(self):
        t = two_edge_template()
        m = FiniteModel(3, 2, [(0, 3), (1, 4), (2, 0)], {frozenset({0, 1, 2})})
        vs = check_model(t, m)
        assert len(vs) == 1 and vs[0].kind == "forbidden_edge" and vs[0].level == 1

    def test_empty_model_clean(self):
        assert check_model(two_edge_template(), FiniteModel(3, 2, [], set())) == ()

    def test_bad_leaf_reported(self):
        t = two_edge_template()
        m = FiniteModel(3, 2, [(0, 9)], set())
        vs = check_model(t, m)
        assert vs and vs[0].kind == "leaf"

    def test_edge_shape_reported(self):
        t = two_edge_template()
        m = FiniteModel(3, 2, [(0, 3), (1, 4)], {frozenset({0, 1})})
        vs = check_model(t, m)
        assert vs and vs[0].kind == "edge_shape"

    def test_edges_outside_the_elements_reported_in_order(self):
        t = two_edge_template()
        edges = {frozenset(e) for e in [(0, 1, 3), (-1, 0, 1), (0, 1, 2), (1, 2, 5)]}
        m = FiniteModel(3, 2, [(0, 3), (1, 4), (2, 5)], edges)
        assert [v.detail for v in check_model(t, m)] == [
            "edge [-1, 0, 1] is not a 3-subset of elements",
            "edge [0, 1, 3] is not a 3-subset of elements",
            "edge [1, 2, 5] is not a 3-subset of elements",
        ]
        # shape and forbidden-edge violations interleave in sorted-row order
        edges = {frozenset(e) for e in [(2, 3, 9), (1, 2, 3), (0, 1, 5), (0, 1, 3), (0, 1), (-1, 0, 1), (0, 1, 2)]}
        m = FiniteModel(3, 2, [(0, 3), (1, 4), (2, 5), (0, 0)], edges)
        assert [v.detail for v in check_model(t, m)] == [
            "edge [-1, 0, 1] is not a 3-subset of elements",
            "edge [0, 1] is not a 3-subset of elements",
            "edge [0, 1, 3] blocked: leaves evaluate to a non-edge at level 1",
            "edge [0, 1, 5] is not a 3-subset of elements",
            "edge [1, 2, 3] blocked: leaves evaluate to a non-edge at level 1",
            "edge [2, 3, 9] is not a 3-subset of elements",
        ]

    @pytest.mark.parametrize(
        "leaf, detail",
        [
            ((0, 7), "element 1 leaf (0, 7) leaves the tree"),
            ((0,), "element 1 leaf has length 1, expected 2"),
        ],
    )
    def test_malformed_leaf_in_edge_reported(self, leaf, detail):
        # the edge on the malformed leaf is not evaluated; the leaf is the report
        m = FiniteModel(2, 2, [(0, 0), leaf], {frozenset({0, 1})})
        assert check_model(complete_template(2, 2), m) == (Violation("leaf", detail),)

    def test_edges_off_malformed_leaves_still_checked(self):
        t = two_edge_template()
        m = FiniteModel(3, 2, [(0, 3), (1, 4), (2, 0), (0, 9)], {frozenset({0, 1, 2}), frozenset({0, 1, 3})})
        assert [v.kind for v in check_model(t, m)] == ["leaf", "forbidden_edge"]


class TestAmalgamate:
    def test_jep_disjoint_union(self):
        t = size2_template()
        m0 = FiniteModel(2, 2, [], set())
        m1 = FiniteModel(2, 2, [(0, 0), (0, 1)], {frozenset({0, 1})})
        m2 = FiniteModel(2, 2, [(1, 0)], set())
        u = amalgamate(t, m0, m1, m2, (), ())
        assert len(u) == 3 and check_model(t, u) == ()
        assert u.leaves[2] == (1, 0)

    def test_idempotent_on_identity(self):
        t = size2_template()
        m = FiniteModel(2, 2, [(0, 0), (1, 1)], {frozenset({0, 1})})
        ident = (0, 1)
        u = amalgamate(t, m, m, m, ident, ident)
        assert u.leaves == m.leaves and u.edges == m.edges

    def test_random_triples_stay_valid(self):
        rng = Random(21)
        for seed in range(20):
            t = random_template(3, [3, 4], 0.8, [1, 1], seed=seed)
            base = build_random_model(t, 2, 1, 0.5, seed=seed)
            emb = tuple(range(len(base)))
            m1 = random_extension(t, base, rng.randint(0, 2), 0.5, rng)
            m2 = random_extension(t, base, rng.randint(0, 2), 0.5, rng)
            u = amalgamate(t, base, m1, m2, emb, emb)
            assert check_model(t, u) == ()

    def test_broken_embedding_rejected(self):
        t = size2_template()
        m0 = FiniteModel(2, 2, [(0, 0)], set())
        m1 = FiniteModel(2, 2, [(0, 1)], set())
        with pytest.raises(InputError):
            amalgamate(t, m0, m1, m1, (0,), (0,))

    # M0 embeds into M1 by (0, 2); element 1 of M1 also carries leaf (0, 1),
    # but shares an edge with element 0 that M0 lacks
    M0 = FiniteModel(2, 2, [(0, 0), (0, 1)], set())
    M1 = FiniteModel(2, 2, [(0, 0), (0, 1), (0, 1)], {frozenset({0, 1})})
    EMBEDDING_FAULTS = {
        "too short": ((0,), "into1: embedding must map every element of M0"),
        "not injective": ((0, 0), "into1: embedding is not injective"),
        "past the target": ((0, 3), "into1: image 3 outside the target model"),
        "loses an edge": ((0, 1), "into1: edge on [0, 1] not preserved"),
    }

    @pytest.mark.parametrize("fault", sorted(EMBEDDING_FAULTS))
    def test_embedding_fault_message(self, fault):
        into1, message = self.EMBEDDING_FAULTS[fault]
        t = size2_template()
        assert len(amalgamate(t, self.M0, self.M1, self.M1, (0, 2), (0, 2))) == 4
        with pytest.raises(InputError) as err:
            amalgamate(t, self.M0, self.M1, self.M1, into1, (0, 2))
        assert str(err.value) == message

    @pytest.mark.parametrize("other", [FiniteModel(3, 2, [], set()), FiniteModel(2, 1, [], set())])
    def test_models_of_another_arity_or_level_rejected(self, other):
        m = FiniteModel(2, 2, [], set())
        for models in ((other, m, m), (m, other, m), (m, m, other)):
            with pytest.raises(InputError) as err:
                amalgamate(size2_template(), *models)
            assert str(err.value) == "models must share arity and level"


class TestBuildRandomModel:
    def test_edge_prob_zero_edgeless(self):
        t = random_template(3, [3, 3], 0.7, [1, 1], seed=2)
        m = build_random_model(t, 2, 1, 0.0, seed=0)
        assert m.edges == set() and check_model(t, m) == ()

    def test_edge_prob_one_all_allowed(self):
        t = size2_template()
        m = build_random_model(t, 1, 2, 1.0, seed=0)
        # 2 leaves x 2 elements on a complete level: the complete graph on 4
        assert len(m) == 4
        assert len(m.edges) == 6 and check_model(t, m) == ()

    def test_always_checks_clean(self):
        for seed in range(10):
            t = random_template(3, [3, 3], 0.6, [1, 1], seed=seed)
            m = build_random_model(t, 2, 1, 0.7, seed=seed)
            assert check_model(t, m) == ()

    def test_deterministic(self):
        t = size2_template()
        a = build_random_model(t, 2, 2, 0.5, seed=5)
        b = build_random_model(t, 2, 2, 0.5, seed=5)
        assert a.leaves == b.leaves and a.edges == b.edges

    def test_level_beyond_prefix_rejected(self):
        with pytest.raises(InputError):
            build_random_model(size2_template(), 5, 1, 0.5, seed=0)


class TestCloseExistentially:
    def test_closed_model_is_a_fixpoint(self):
        # parity graph on 2 leaves x 4 elements: every element sees, on each
        # leaf, both a neighbor and a non-neighbor, so nothing to add
        t = size2_template(prefix=1)
        leaves = [(0,)] * 4 + [(1,)] * 4
        edges = {
            frozenset({i, j})
            for i in range(8)
            for j in range(i + 1, 8)
            if (i + j) % 2 == 1
        }
        m = FiniteModel(2, 1, leaves, edges)
        assert check_model(t, m) == ()
        res = close_existentially(t, 1, m, param_bound=1, budget=50)
        assert res.added == 0 and res.reached_fixpoint

    def test_closure_preserves_validity(self):
        t = size2_template(prefix=1)
        m = FiniteModel(2, 1, [(0,), (1,)], set())
        res = close_existentially(t, 1, m, param_bound=1, budget=30)
        assert check_model(t, res.model) == ()

    def test_first_pass_realizes_original_formulas(self):
        # each original element ends up with a neighbor and a non-neighbor
        # on every leaf, even if later passes run out of budget
        t = size2_template(prefix=1)
        m = FiniteModel(2, 1, [(0,), (1,)], set())
        res = close_existentially(t, 1, m, param_bound=1, budget=50)
        cur = res.model
        for a in range(2):
            for leaf in all_level_stems(t, 1):
                linked = [
                    b
                    for b in range(len(cur))
                    if b != a and cur.leaves[b] == leaf
                ]
                assert any(frozenset({a, b}) in cur.edges for b in linked)
                assert any(frozenset({a, b}) not in cur.edges for b in linked)

    def test_terminating_closure_k3(self):
        # with one parameter and k = 3 there are no demandable edges, so
        # closure just populates every leaf and stops
        t = Template(
            3,
            [(complete_hypergraph(3, 3), 1)],
            TailPolicy("complete_growing", 1),
        )
        m = FiniteModel(3, 1, [(0,)], set())
        res = close_existentially(t, 1, m, param_bound=1, budget=50)
        assert res.reached_fixpoint
        present = set(res.model.leaves)
        assert present == set(all_level_stems(t, 1))

    def test_list_leaves_close_like_tuples(self):
        t = size2_template(prefix=1)
        edges = {frozenset({0, 1})}
        as_lists = close_existentially(t, 1, FiniteModel(2, 1, [[0], [1]], edges), 1, 50)
        as_tuples = close_existentially(t, 1, FiniteModel(2, 1, [(0,), (1,)], edges), 1, 50)
        assert as_lists == as_tuples

    def test_negative_level_rejected_as_build_random_model_does(self):
        t = size2_template(prefix=1)
        for call in (lambda: close_existentially(t, -1, FiniteModel(2, -1, [], set()), 1, 5),
                     lambda: build_random_model(t, -1, 1, 0.5, seed=0)):
            with pytest.raises(InputError, match="^level must be >= 0, got -1$"):
                call()

    def test_budget_cut_reported(self):
        t = size2_template(prefix=1)
        m = FiniteModel(2, 1, [(0,), (1,)], set())
        res = close_existentially(t, 1, m, param_bound=1, budget=1)
        assert res.added == 1 and not res.reached_fixpoint

    @pytest.mark.parametrize("leaves, arity, level, edges", [
        ([(0,), (1, 0)], 2, 1, []),  # a leaf longer than the level
        ([(0,), (2,)], 2, 1, []),  # a vertex outside the level
        ([(-1,)], 2, 1, []),
        ([(0,)], 3, 1, []),  # arity differs from the template's
        ([(0,)], 2, 2, []),  # level differs from the closure level
        ([(0,), (1,)], 2, 1, [{0, 2}]),  # an edge off the elements
        ([(0,), (1,)], 2, 1, [{-1, 0}]),
        ([(0,), (1,), (1,)], 2, 1, [{0, 1, 2}]),  # an edge of the wrong size
        ([(0,), (1,), (1,)], 2, 1, [{0, 5}, {1, 2}, {0, 1, 2}, {-1, 1}, {2, 7}]),  # the least bad edge is named
    ])
    def test_malformed_model_rejected_before_closing(self, leaves, arity, level, edges):
        t = size2_template(prefix=1)
        m = FiniteModel(arity, level, leaves, set(map(frozenset, edges)))
        bad = [sorted(e) for e in edges if len(e) != arity or min(e) < 0 or max(e) >= len(leaves)]
        for budget in (0, 50):
            with pytest.raises(InputError) as info:
                close_existentially(t, 1, m, param_bound=1, budget=budget)
            if str(info.value).startswith("edge "):
                assert str(info.value) == f"edge {min(bad)} is not a {arity}-subset of elements"

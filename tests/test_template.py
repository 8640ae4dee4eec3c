from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertemplate import hypergraph, template
from hypertemplate.cli import run
from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph, complete_hypergraph, random_hypergraph
from hypertemplate.template import (
    TailPolicy,
    Template,
    complete_template,
    corrupt_level,
    max_extension_arity,
    random_template,
    validate,
)
from hypertemplate.serialization import dump_template


def is_complete_level(h):
    return len(h.uniform_edges) == comb(h.size, h.arity)


class TestLevelAccess:
    def test_complete_template_level(self):
        t = complete_template(3, 4)
        h, f = t.level(2)
        assert h.size == 3 and f == 3 and is_complete_level(h)

    def test_tail_formula(self):
        levels = [(complete_hypergraph(3, 3), 1), (complete_hypergraph(3, 4), 2)]
        t = Template(3, levels, TailPolicy("complete_growing", 1))
        h, f = t.level(5)
        assert h.size == 4 + 4 and f == 8 and is_complete_level(h)

    def test_level_zero_is_first_stored(self):
        h0 = Hypergraph(3, 4, [(0, 1, 2)])
        t = Template(3, [(h0, 1)])
        assert t.level(0) == (h0, 1)

    def test_purity(self):
        t = complete_template(2, 2)
        assert t.level(7) == t.level(7)

    @pytest.mark.parametrize("n", [-1, -2, -5])
    def test_negative_level_rejected(self, n):
        # a negative index must not count stored levels from the end
        t = complete_template(3, 4)
        with pytest.raises(InputError):
            t.level(n)
        with pytest.raises(InputError):
            t.level_hypergraph(n)

    def test_tail_f_nondecreasing_unbounded(self):
        t = complete_template(3, 2)
        fs = [t.f_value(n) for n in range(2, 30)]
        assert fs == sorted(fs) and fs[-1] > 20


class TestConstruction:
    def test_f_out_of_bounds_rejected(self):
        h = complete_hypergraph(3, 3)
        with pytest.raises(InputError):
            Template(3, [(h, 4)])
        with pytest.raises(InputError):
            Template(3, [(h, 0)])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InputError):
            Template(3, [(complete_hypergraph(2, 3), 1)])

    def test_needs_a_level(self):
        with pytest.raises(InputError):
            Template(3, [])

    def test_bad_tail_kind(self, tmp_path, capsys):
        for kind in ("linear", "repeat_last_complete"):
            with pytest.raises(InputError, match="unknown tail kind"):
                TailPolicy(kind, 1)
        path = tmp_path / "alias.tpl"
        text = dump_template(complete_template(3, 2))
        path.write_text(text.replace("tail complete_growing 1", "tail repeat_last_complete 1"))
        assert run(["validate-template", str(path)]) == 2
        assert capsys.readouterr().err == "input error: unknown tail kind 'repeat_last_complete'\n"

    def test_pickle_roundtrip(self):
        import pickle

        t = complete_template(3, 3)
        assert pickle.loads(pickle.dumps(t)) == t


class TestValidate:
    def test_complete_valid_depth_6(self):
        rep = validate(complete_template(3, 4), 6)
        assert rep.valid and rep.exhaustive

    def test_extension_failure_reported(self):
        h = Hypergraph(3, 4)  # empty uniform part cannot support t = 2
        t = Template(3, [(h, 2)])
        rep = validate(t, 1)
        assert not rep.valid
        assert rep.problems[0].level == 0
        assert "no common witness" in rep.problems[0].message

    def test_repetition_only_level_f1_is_valid(self):
        # t = 1 always has a witness via repetition edges
        t = Template(3, [(Hypergraph(3, 3), 1)])
        assert validate(t, 1).valid
        # so the largest arity a random level proves is never 0, which is
        # why random_template cannot fail, edgeless levels included
        for k, size in ((2, 3), (3, 4), (4, 5)):
            levels = [Hypergraph(k, size)]  # edgeless
            levels += [random_hypergraph(k, size, p, Random(seed))
                       for seed in range(10) for p in (0.1, 0.4, 0.8)]
            for h in levels:
                assert max_extension_arity(h, size) >= 1

    def test_corrupted_template_fails(self):
        t = random_template(3, [4, 4], 0.9, [2, 2], seed=0)
        assert validate(t, 2).valid
        bad = corrupt_level(t, 1)
        assert not validate(bad, 2).valid


class TestMaxExtensionArity:
    def test_complete_reaches_cap(self):
        h = complete_hypergraph(3, 5)
        assert max_extension_arity(h, 5) == 5

    def test_boundary_consistency(self):
        h = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        r = max_extension_arity(h, 4)
        assert h.check_extension_property(r).holds
        if r < 4:
            assert not h.check_extension_property(r + 1).holds


def reference_random_template(arity, sizes, edge_prob, target, seed):
    """random_template as a loop over whole sampled levels: a level is kept
    when its check proves the target, and after RETRY_BUDGET samples one
    more is kept at the largest arity it proves."""
    rng = Random(seed)
    levels = []
    for size, tf in zip(sizes, target):
        for _ in range(template.RETRY_BUDGET):
            h = random_hypergraph(arity, size, edge_prob, rng)
            if h.check_extension_property(tf).proven == tf:
                f = tf
                break
        else:
            h = random_hypergraph(arity, size, edge_prob, rng)
            f = max_extension_arity(h, tf)
        levels.append((h, f))
    return Template(arity, levels)


class TestRandomTemplate:
    @given(
        st.integers(2, 4),
        st.lists(st.tuples(st.integers(0, 4), st.integers(1, 9)), min_size=1, max_size=3),
        st.sampled_from([1e-9, 0.3, 0.6, 0.85, 0.95, 1.0]),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_a_loop_over_whole_levels(self, arity, shapes, p, seed):
        # equal later levels show that every level drew the same numbers;
        # p = 1e-9 runs out of retries, p = 1.0 tables the non-edges
        sizes = [arity + extra for extra, _ in shapes]
        target = [min(f, size) for (_, f), size in zip(shapes, sizes)]
        t = random_template(arity, sizes, p, target, seed)
        assert t == reference_random_template(arity, sizes, p, target, seed)
        for h, f in t.levels:
            assert h._table is not None and True in h._reach  # kept from the sampler's check
            cold = Hypergraph(arity, h.size, h.uniform_edges)
            for tt in range(1, f + 2):
                assert h.check_extension_property(tt) == cold.check_extension_property(tt)

    @pytest.mark.parametrize("edge_prob", [0, -0.1, 1.5, float("nan")])
    def test_edge_prob_outside_unit_interval_rejected(self, edge_prob, capsys):
        message = r"^edge_prob must lie in \(0, 1\], got "
        with pytest.raises(InputError, match=message):
            random_template(3, [4], edge_prob, [1], seed=0)
        # level 0's shape is read first, then its first sample draws
        shape_errors = [
            (([4], [1, 1]), "level_sizes and target_f must have equal length"),
            (([], []), "need at least one level"),
            (([2], [1]), "level 0: size 2 below arity 3"),
            (([4], [5]), "level 0: target f 5 outside 1..4"),
        ]
        for (sizes, target), text in shape_errors:
            with pytest.raises(InputError, match=f"^{text}$"):
                random_template(3, sizes, edge_prob, target, seed=0)
        with pytest.raises(InputError, match=message):
            random_template(3, [4, 2], edge_prob, [1, 1], seed=0)
        argv = ["gen-template", "--arity", "3", "--sizes", "4", "--target-f", "1", f"--edge-prob={edge_prob}"]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: edge_prob must lie in (0, 1], got {float(edge_prob)}\n"

    def test_edge_prob_one_gives_complete_levels(self):
        t = random_template(3, [4, 5], 1.0, [3, 4], seed=0)
        assert all(is_complete_level(h) for h, _ in t.levels)
        assert [f for _, f in t.levels] == [3, 4]

    def test_seed_reproducible(self):
        a = random_template(3, [5, 5], 0.8, [2, 2], seed=3)
        b = random_template(3, [5, 5], 0.8, [2, 2], seed=3)
        assert a == b

    def test_generated_templates_validate(self):
        for seed in range(8):
            t = random_template(3, [4, 4, 4], 0.85, [1, 2, 2], seed=seed)
            assert validate(t, 3).valid

    def test_spec_shape_k3_size8(self):
        t = random_template(3, [8, 8], 0.9, [2, 2], seed=1)
        assert validate(t, 2).valid

    def test_size_below_arity_rejected(self):
        with pytest.raises(InputError):
            random_template(3, [2], 0.5, [1], seed=0)

    def test_degrades_f_when_retries_run_out(self, monkeypatch):
        # a near-empty level cannot support t = 3, but t = 1 always holds
        # via repetition edges, so generation degrades instead of failing
        monkeypatch.setattr(template, "RETRY_BUDGET", 2)
        t = random_template(2, [6], 1e-9, [3], seed=0)
        assert t.f_value(0) < 3 and validate(t, 1).valid

    def test_declared_arities_proven(self):
        # a sampled check once accepted f = 7 here for 16 of these seeds
        # (1, 2, 5, 7, 8, 10, 11, 16, 17, 27, 31, 32, 42, 51, 54, 58)
        for seed in range(60):
            t = random_template(3, [14], 0.95, [7], seed=seed)
            for h, f in t.levels:
                chk = h.check_extension_property(f)
                assert chk.holds and chk.exhaustive, seed

    def test_node_bound_stop_not_accepted(self, monkeypatch):
        # with no search node allowed, neither candidate is proven at t = 4
        args = (3, [10], 0.9, [4])
        monkeypatch.setattr(template, "RETRY_BUDGET", 2)
        assert random_template(*args, seed=0).f_value(0) == 4
        with monkeypatch.context() as m:
            m.setattr(hypergraph, "COVER_SEARCH_NODES", 0)
            t = random_template(*args, seed=0)
        h, f = t.levels[0]
        assert 1 <= f < 4
        chk = h.check_extension_property(f)
        assert chk.holds and chk.exhaustive


class TestStabilizationLevel:
    def test_prefix_walk(self):
        levels = []
        for f, size in zip((1, 1, 2, 2, 3, 3), (4, 4, 4, 4, 4, 4)):
            levels.append((complete_hypergraph(3, size), f))
        t = Template(3, levels, TailPolicy("complete_growing", 1))
        assert t.stabilization_level(3) == 4

    def test_complete_template_formula(self):
        t = complete_template(3, 2)
        for count in range(1, 8):
            assert t.stabilization_level(count) == count - 1

    def test_count_one_is_zero(self):
        t = random_template(3, [4, 4], 0.8, [1, 1], seed=2)
        assert t.stabilization_level(1) == 0

    def test_definition_holds(self):
        t = Template(
            3,
            [(complete_hypergraph(3, 5), 3), (complete_hypergraph(3, 4), 1)],
            TailPolicy("complete_growing", 2),
        )
        for count in range(1, 12):
            n = t.stabilization_level(count)
            assert all(t.f_value(m) >= count for m in range(n, n + 20))
            if n > 0:
                assert t.f_value(n - 1) < count

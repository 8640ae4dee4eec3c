import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import hypertemplate

from hypertemplate import serialization as ser
from hypertemplate.cli import build_parser, run
from hypertemplate.errors import InternalConsistencyError
from hypertemplate.hypergraph import Hypergraph, complete_hypergraph, random_hypergraph
from hypertemplate.template import TailPolicy, Template, complete_template, corrupt_level, random_template
from hypertemplate.theory import FiniteModel, build_random_model
from hypertemplate.typecheck import PositiveTypeSpec
from hypertemplate.signature import ParamType
from hypertemplate.satsim import Instance, Scenario


@pytest.fixture
def complete_file(tmp_path):
    p = tmp_path / "complete.tpl"
    p.write_text(ser.dump_template(complete_template(3, 3)))
    return str(p)


@pytest.fixture
def random_file(tmp_path):
    p = tmp_path / "random.tpl"
    p.write_text(ser.dump_template(random_template(3, [4, 4], 0.85, [1, 2], seed=3)))
    return str(p)


@pytest.fixture
def sparse_file(tmp_path):
    # random_file is a complete template, so a shortcut for complete
    # templates would let its tests pass without deciding anything
    t = random_template(3, [4, 4], 0.7, [1, 2], seed=3)
    assert not t.is_complete()
    p = tmp_path / "sparse.tpl"
    p.write_text(ser.dump_template(t))
    return str(p)


def write_typespec(tmp_path, spec, arity, name="spec.ts"):
    p = tmp_path / name
    p.write_text(ser.dump_typespec(spec, arity))
    return str(p)


class TestExitCodes:
    def test_validate_complete_ok(self, complete_file, capsys):
        assert run(["validate-template", complete_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hgt-report 1\n")
        assert "seed 0" in out and "result valid" in out

    def test_decide_type_consistent(self, complete_file, tmp_path, capsys):
        spec = PositiveTypeSpec(params=(((0, 0), (0, 1)),))
        ts = write_typespec(tmp_path, spec, 3)
        assert run(["decide-type", complete_file, ts]) == 0
        assert "witness 0 0" in capsys.readouterr().out

    def test_decide_type_inconsistent_exit_1(self, tmp_path, capsys):
        from hypertemplate.hypergraph import Hypergraph
        from hypertemplate.template import TailPolicy, Template

        t = Template(3, [(Hypergraph(3, 4), 1)], TailPolicy("complete_growing", 1))
        tp = tmp_path / "rep.tpl"
        tp.write_text(ser.dump_template(t))
        spec = PositiveTypeSpec(params=(((0,), (1,)),), x_stem=(2,))
        ts = write_typespec(tmp_path, spec, 3)
        assert run(["decide-type", str(tp), ts]) == 1
        assert "failing-level 0" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["validate-template", str(tmp_path / "absent.tpl")]) == 2

    def test_unwritable_out_exit_2(self, random_file, sparse_file, tmp_path, capsys):
        out = tmp_path / "absent" / "rep.txt"
        for path in (random_file, sparse_file):
            assert run(["qe-transfer", path, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"input error: cannot write {out}: ")

    def test_malformed_file_exit_2(self, tmp_path):
        p = tmp_path / "bad.tpl"
        p.write_text("garbage\n")
        assert run(["validate-template", str(p)]) == 2

    @pytest.mark.parametrize("verb", ["decide-type", "signature", "oracle"])
    def test_arity_mismatch_exit_2(self, verb, complete_file, tmp_path, capsys):
        spec = PositiveTypeSpec(params=(((0,),),))
        ts = write_typespec(tmp_path, spec, 2)
        assert run([verb, complete_file, ts]) == 2
        assert capsys.readouterr().err == "input error: typespec arity 2 != template arity 3\n"

    def test_validate_node_bound_stop_exit_3(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "t.tpl"
        p.write_text(ser.dump_template(random_template(3, [10], 0.9, [4], seed=0)))
        assert run(["validate-template", str(p), "--depth", "1"]) == 0
        assert "exhaustive true" in capsys.readouterr().out
        monkeypatch.setattr(hypertemplate.hypergraph, "COVER_SEARCH_NODES", 0)
        assert run(["validate-template", str(p), "--depth", "1"]) == 3
        out = capsys.readouterr().out
        assert "exhaustive false" in out and "result valid" in out

    @pytest.fixture
    def broken_file(self, tmp_path):
        # level m* = 1 keeps no edge: vertices 0 and 1 share no witness
        p = tmp_path / "broken.tpl"
        p.write_text(ser.dump_template(corrupt_level(complete_template(2, 4), 1)))
        return str(p)

    def test_qe_transfer_failure_exit_1(self, broken_file, capsys):
        assert run(["qe-transfer", broken_file, "--m", "2"]) == 1
        out = capsys.readouterr().out
        assert out.endswith(
            "m-star 1\nexhaustive true\ncounterexamples 1\n"
            "counterexample edges 0 1 extension 0 1\nresult fails\n"
        )

    def test_qe_transfer_node_bound_stop_exit_3(self, broken_file, capsys, monkeypatch):
        monkeypatch.setattr(hypertemplate.hypergraph, "COVER_SEARCH_NODES", 0)
        assert run(["qe-transfer", broken_file, "--m", "2"]) == 3
        out = capsys.readouterr().out
        assert "exhaustive false\ncounterexamples 0\nresult holds\n" in out

    @pytest.mark.parametrize("exc,line", [
        (InternalConsistencyError("declared arity\nfails"),
         "internal error: InternalConsistencyError: declared arity fails\n"),
        (RuntimeError("unforeseen"), "internal error: RuntimeError: unforeseen\n"),
    ])
    def test_internal_error_exit_4(self, exc, line, random_file, sparse_file, capsys, monkeypatch):
        def verb_body(*args, **kwargs):
            raise exc

        monkeypatch.setattr(hypertemplate.cli, "transfer_check", verb_body)
        for path in (random_file, sparse_file):
            assert run(["qe-transfer", path]) == 4
            assert capsys.readouterr() == ("", line)

    def test_check_model_bad_leaf_in_edge_exit_1(self, tmp_path, capsys):
        # a leaf outside the tree is a violation of the model, not an input error
        tp, mp = tmp_path / "t.tpl", tmp_path / "m.mdl"
        tp.write_text(ser.dump_template(complete_template(2, 2)))
        mp.write_text(ser.dump_model(FiniteModel(2, 2, [(0, 0), (0, 7)], {frozenset({0, 1})})))
        assert run(["check-model", str(tp), str(mp)]) == 1
        out = capsys.readouterr().out
        assert "violation leaf: element 1 leaf (0, 7) leaves the tree\n" in out
        assert out.endswith("result invalid\n")

    def test_validate_invalid_template_exit_1(self, tmp_path, capsys):
        p = tmp_path / "t.tpl"
        p.write_text(ser.dump_template(Template(3, [(Hypergraph(3, 4), 2)])))
        assert run(["validate-template", str(p)]) == 1
        assert capsys.readouterr() == (
            "hgt-report 1\nverb validate-template\nseed 0\ndepth 4\nexhaustive true\n"
            "problem level 0 extension: no common witness for tuples ((0, 3), (1, 2)) at t = 2\n"
            "result invalid\n",
            "",
        )

    def test_oplus_counterexample_exit_1(self, tmp_path, capsys):
        p = tmp_path / "t.tpl"
        p.write_text(ser.dump_template(Template(3, [(Hypergraph(3, 4), 1)] * 2)))
        assert run(["oplus", str(p), "--s", "2", "--n", "0"]) == 1
        assert capsys.readouterr() == (
            "hgt-report 1\nverb oplus\nseed 0\ns 2\nn 0\nexhaustive true\nresult counterexample\n",
            "",
        )

    def test_simulate_saturation_infeasible_exit_1(self, tmp_path, capsys):
        # criterion 6's pigeonhole: one index of capacity 1, two instances
        t = Template(2, [(Hypergraph(2, 2), 1)], TailPolicy("complete_growing", 1))
        insts = tuple(
            Instance(limit=ParamType(stems=((0, 0),)), per_index=(ParamType(stems=((a, 1),)),))
            for a in range(2)
        )
        p = tmp_path / "sc.scn"
        p.write_text(ser.dump_scenario(Scenario(template=t, depths=(2,), instances=insts)))
        assert run(["simulate-saturation", str(p)]) == 1
        assert capsys.readouterr() == (
            "hgt-report 1\nverb simulate-saturation\nseed 0\ninstances 2\nindices 1\n"
            "blocked-instance 1\nbounds 1\nresult infeasible\n",
            "",
        )

    def test_decide_type_depth_0_exit_2(self, tmp_path, capsys):
        # --depth 0 is a depth like any other, below the least sound one
        tp = tmp_path / "t.tpl"
        tp.write_text(ser.dump_template(Template(3, [(Hypergraph(3, 4), 1)])))
        ts = write_typespec(tmp_path, PositiveTypeSpec(params=(((0,), (1,)),)), 3)
        for verb in ("decide-type", "oracle"):
            assert run([verb, str(tp), ts, "--depth", "0"]) == 2
            assert capsys.readouterr() == ("", "input error: check_depth 0 below required bound 1\n")
            assert run([verb, str(tp), ts, "--depth", "1"]) == 0
            assert "depth 1\n" in capsys.readouterr().out

    def test_build_model_negative_level_exit_2(self, random_file, tmp_path, capsys):
        out = tmp_path / "m.mdl"
        assert run(["build-model", random_file, "--level", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "input error: level must be >= 0, got -1\n")
        assert not out.exists()

    def test_gen_template_bad_sizes_exit_2(self, capsys):
        assert run(["gen-template", "--arity", "3", "--sizes", "4,x", "--target-f", "1,1"]) == 2
        assert capsys.readouterr() == ("", "input error: expected comma-separated integers, got '4,x'\n")

    def test_qe_transfer_takes_no_trials_or_workers(self, random_file, capsys):
        for flag in ("--trials", "--workers"):
            with pytest.raises(SystemExit) as exc:
                run(["qe-transfer", random_file, flag, "2"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


TEMPLATE_TEXT = ser.dump_template(complete_template(3, 2))
MODEL_TEXT = ser.dump_model(FiniteModel(3, 2, [(0, 0), (0, 1)], set()))
TYPESPEC_TEXT = ser.dump_typespec(PositiveTypeSpec(params=(((0, 1), (0, 0)),)), 3)
SCENARIO_TEXT = ser.dump_scenario(Scenario(template=complete_template(3, 2), depths=(2,), instances=()))
# level 0 of this template forbids the one edge of LEFT_MODEL_TEXT
EDGELESS_TEXT = ser.dump_template(Template(3, [(Hypergraph(3, 4), 1)]))
EMPTY_MODEL_TEXT = ser.dump_model(FiniteModel(3, 1, [], set()))
LEFT_MODEL_TEXT = ser.dump_model(FiniteModel(3, 1, [(0,), (1,), (2,)], {frozenset({0, 1, 2})}))

# (verb, then each file or None): each must end in exit 2
MALFORMED = {
    "tail growth not an integer": (
        "validate-template",
        _edit(TEMPLATE_TEXT, "tail complete_growing 1", "tail complete_growing x"),
        None,
    ),
    "two values on the arity line": (
        "validate-template", _edit(TEMPLATE_TEXT, "arity 3", "arity 2 3"), None,
    ),
    "no value on the prefix line": (
        "validate-template", _edit(TEMPLATE_TEXT, "prefix 2", "prefix"), None,
    ),
    "element line without integers": (
        "check-model", TEMPLATE_TEXT, _edit(MODEL_TEXT, "el 0 0 0", "el"),
    ),
    "two values on the model level line": (
        "check-model", TEMPLATE_TEXT, _edit(MODEL_TEXT, "level 2", "level 2 3"),
    ),
    "scenario without index depths": (
        "simulate-saturation", _edit(SCENARIO_TEXT, "depths 2", "depths"), None,
    ),
    "two values on the typespec params line": (
        "decide-type", TEMPLATE_TEXT, _edit(TYPESPEC_TEXT, "params 1", "params 1 1"),
    ),
    "estimate-fg without --F or --G": ("estimate-fg", TEMPLATE_TEXT, None),
    "signature on a typespec without a parameter tuple": (
        "signature", TEMPLATE_TEXT, ser.dump_typespec(PositiveTypeSpec(params=()), 3),
    ),
    "amalgamate whose union fails check_model": (
        "amalgamate", EDGELESS_TEXT, EMPTY_MODEL_TEXT, LEFT_MODEL_TEXT, EMPTY_MODEL_TEXT,
    ),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_with_one_line(self, case, tmp_path, capsys):
        verb, *texts = MALFORMED[case]
        argv = [verb]
        for i, text in enumerate(texts):
            if text is not None:
                p = tmp_path / f"input{i}.txt"
                p.write_text(text)
                argv.append(str(p))
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ") and err.count("\n") == 1


# close-model is run on TEMPLATE_TEXT at --level 2; each model must end in exit 2
MALFORMED_CLOSURE = {
    "leaf outside the tree": (
        FiniteModel(3, 2, [(0, 1), (9, 9)], set()),
        "input error: element 1 leaf (9, 9) is not a level-2 leaf of the tree\n",
    ),
    "model arity differs from the template's": (
        FiniteModel(2, 2, [(0, 0), (0, 1)], set()),
        "input error: model arity 2 != template arity 3\n",
    ),
    "edge on an element the model lacks": (
        FiniteModel(3, 2, [(0, 0), (0, 1)], {frozenset({0, 1, 7})}),
        "input error: edge [0, 1, 7] is not a 3-subset of elements\n",
    ),
    "empty model at another level": (
        FiniteModel(3, 1, [], set()),
        "input error: model level 1 != closure level 2\n",
    ),
}


class TestCloseModelInput:
    @pytest.mark.parametrize("budget", ["0", "1", "50"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CLOSURE))
    def test_exit_2_at_every_budget(self, case, budget, tmp_path, capsys):
        model, err = MALFORMED_CLOSURE[case]
        tp, mp, out = tmp_path / "t.tpl", tmp_path / "m.mdl", tmp_path / "closed.mdl"
        tp.write_text(TEMPLATE_TEXT)
        mp.write_text(ser.dump_model(model))
        argv = ["close-model", str(tp), str(mp), "--level", "2", "--budget", budget, "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", err)
        assert not out.exists()


# (flag, value): the sampled search's options, gone with it
REMOVED_SEARCH_FLAGS = [
    ("--stem-depth", "0"),
    ("--stem-depth", "-1"),
    ("--families", "-3"),
    ("--families", "0"),
]


# (flag, value, message): F_estimate/G_estimate check s and n before any
# shortcut, so complete and non-complete templates reject them alike
BAD_COUNTS = [
    ("--F", "0", "count must be >= 1, got 0"),
    ("--F", "-2", "count must be >= 1, got -2"),
    ("--G", "-1", "need n >= 0, got -1"),
]


class TestEstimateCountInput:
    @pytest.mark.parametrize("flag, value, message", BAD_COUNTS)
    @pytest.mark.parametrize("template", [
        complete_template(3, 2),
        Template(2, [(Hypergraph(2, 2), 1)], TailPolicy("complete_growing", 1)),  # not complete
    ])
    def test_exit_2_without_report(self, template, flag, value, message, tmp_path, capsys):
        tp, out = tmp_path / "t.tpl", tmp_path / "report.txt"
        tp.write_text(ser.dump_template(template))
        assert run(["estimate-fg", str(tp), flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")
        assert not out.exists()


class TestRemovedSearchFlags:
    @pytest.mark.parametrize("flag, value", REMOVED_SEARCH_FLAGS)
    @pytest.mark.parametrize("verb", [["oplus", "--s", "2", "--n", "3"], ["estimate-fg", "--F", "2", "--G", "1"]])
    def test_argparse_exit_2(self, verb, flag, value, random_file, tmp_path, capsys):
        out = tmp_path / "report.txt"
        argv = [verb[0], random_file, *verb[1:], flag, value, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


class TestAgreementReports:
    @pytest.fixture
    def seed17_file(self, tmp_path, capsys):
        p = tmp_path / "t.hgt"
        argv = ["gen-template", "--arity", "2", "--sizes", "3,4", "--edge-prob", "0.55",
                "--target-f", "1,1", "--seed", "17", "--out", str(p)]
        assert run(argv) == 0
        capsys.readouterr()
        return str(p)

    def test_refutation_the_sampled_search_missed(self, seed17_file, capsys):
        # the sampled search printed F-upper 13 here; n = 12, 13 and 14 are
        # refuted (a brute force over every family agrees) and 15 holds
        assert run(["oplus", seed17_file, "--s", "2", "--n", "13"]) == 1
        assert capsys.readouterr().out.endswith("exhaustive true\nresult counterexample\n")
        assert run(["estimate-fg", seed17_file, "--F", "2"]) == 0
        out = capsys.readouterr().out
        assert "F-lower 15\nF-upper 15\nF-exact true\n" in out and out.endswith("result exact\n")

    def test_node_bound_stop_exit_3(self, tmp_path, capsys):
        # check_extension_property(6) stops at the node bound on level 1
        dense = random_hypergraph(3, 40, 0.7, Random(1))
        t = Template(3, [(complete_hypergraph(3, 3), 3), (dense, 1)])
        p = tmp_path / "t.hgt"
        p.write_text(ser.dump_template(t))
        assert run(["oplus", str(p), "--s", "6", "--n", "0"]) == 3
        assert capsys.readouterr().out == (
            "hgt-report 1\nverb oplus\nseed 0\ns 6\nn 0\nexhaustive false\nresult holds\n"
        )


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["hypertemplate", "hypertemplate.cli"])
    def test_python_m_prints_usage(self, module):
        src = str(Path(hypertemplate.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: hypertemplate")


class TestPipelines:
    def test_gen_validate_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "gen.tpl")
        assert run(["gen-template", "--arity", "3", "--complete", "--prefix", "3",
                    "--out", out]) == 0
        assert run(["validate-template", out]) == 0

    def test_gen_random_template(self, tmp_path):
        out = str(tmp_path / "rnd.tpl")
        code = run([
            "gen-template", "--arity", "3", "--sizes", "4,4", "--target-f", "1,2",
            "--edge-prob", "0.85", "--seed", "5", "--out", out,
        ])
        assert code == 0
        assert run(["validate-template", out]) == 0

    def test_build_and_check_model(self, random_file, tmp_path):
        out = str(tmp_path / "m.mdl")
        assert run(["build-model", random_file, "--level", "2",
                    "--count-per-leaf", "1", "--out", out]) == 0
        assert run(["check-model", random_file, out]) == 0

    def test_amalgamate(self, random_file, tmp_path):
        t = ser.load_template(Path(random_file).read_text())
        base = build_random_model(t, 2, 1, 0.5, seed=1)
        paths = {}
        for name, extra in (("base", 0), ("left", 1), ("right", 2)):
            m = base.copy()
            for _ in range(extra):
                m.leaves.append(base.leaves[0])
            p = tmp_path / f"{name}.mdl"
            p.write_text(ser.dump_model(m))
            paths[name] = str(p)
        out = str(tmp_path / "union.mdl")
        code = run(["amalgamate", random_file, paths["base"], paths["left"],
                    paths["right"], "--out", out])
        assert code == 0
        assert run(["check-model", random_file, out]) == 0

    def test_qe_transfer(self, random_file, sparse_file, capsys):
        for path in (random_file, sparse_file):
            assert run(["qe-transfer", path, "--m", "2"]) == 0
            out = capsys.readouterr().out
            assert "exhaustive true\ncounterexamples 0\nresult holds" in out

    def test_signature(self, complete_file, tmp_path, capsys):
        spec = PositiveTypeSpec(params=(((0, 1), (0, 0)),))
        ts = write_typespec(tmp_path, spec, 3)
        assert run(["signature", complete_file, ts, "--depth", "2"]) == 0
        assert "values" in capsys.readouterr().out

    def test_estimate_fg_complete_exact(self, complete_file, capsys):
        assert run(["estimate-fg", complete_file, "--F", "2", "--G", "3"]) == 0
        out = capsys.readouterr().out
        assert "F-upper 0" in out and "G-value inf" in out and "result exact" in out

    def test_oplus_complete_analytic(self, complete_file, capsys):
        assert run(["oplus", complete_file, "--s", "2", "--n", "0"]) == 0
        assert "result holds" in capsys.readouterr().out

    def test_oracle_agrees(self, random_file, tmp_path, capsys):
        spec = PositiveTypeSpec(params=(((0, 1), (1, 0)),))
        ts = write_typespec(tmp_path, spec, 3)
        code = run(["oracle", random_file, ts])
        assert code in (0, 1)
        assert "result agree" in capsys.readouterr().out

    def test_oracle_disagreement_exit_4(self, sparse_file, tmp_path, capsys, monkeypatch):
        # a disagreement is a violated guarantee, not an inconsistent type
        spec = PositiveTypeSpec(params=(((0, 1), (1, 0)),))
        ts = write_typespec(tmp_path, spec, 3)
        real = hypertemplate.cli.brute_force_positive_type
        flipped = lambda t, spec, depth: (not real(t, spec, depth)[0], None)
        monkeypatch.setattr(hypertemplate.cli, "brute_force_positive_type", flipped)
        assert run(["oracle", sparse_file, ts]) == 4
        out, err = capsys.readouterr()
        assert "result disagree" in out
        assert err == "internal error: InternalConsistencyError: decide-type and the brute-force oracle disagree\n"

    def test_close_model(self, tmp_path, capsys):
        from hypertemplate.hypergraph import complete_hypergraph
        from hypertemplate.template import TailPolicy, Template

        t = Template(3, [(complete_hypergraph(3, 3), 1)],
                     TailPolicy("complete_growing", 1))
        tp = tmp_path / "t.tpl"
        tp.write_text(ser.dump_template(t))
        from hypertemplate.theory import FiniteModel

        mp = tmp_path / "m.mdl"
        mp.write_text(ser.dump_model(FiniteModel(3, 1, [(0,)], set())))
        out = str(tmp_path / "closed.mdl")
        assert run(["close-model", str(tp), str(mp), "--level", "1", "--out", out]) == 0
        closed = ser.load_model(Path(out).read_text())
        assert len(closed.leaves) >= 3

    def test_simulate_saturation(self, tmp_path, capsys):
        t = complete_template(2, 3)
        inst = Instance(
            limit=ParamType(stems=((0, 1),)),
            per_index=(ParamType(stems=((0, 1),)),),
        )
        sc = Scenario(template=t, depths=(2,), instances=(inst,))
        p = tmp_path / "sc.scn"
        p.write_text(ser.dump_scenario(sc))
        assert run(["simulate-saturation", str(p)]) == 0
        assert "result realized" in capsys.readouterr().out


class TestDeterminism:
    def test_byte_identical_runs(self, random_file, sparse_file, tmp_path):
        a, b = str(tmp_path / "a.out"), str(tmp_path / "b.out")
        for path in (random_file, sparse_file):
            for out in (a, b):
                assert run(["qe-transfer", path, "--m", "2", "--seed", "9", "--out", out]) == 0
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_gen_template_deterministic(self, tmp_path):
        outs = []
        for name in ("x.tpl", "y.tpl"):
            out = str(tmp_path / name)
            assert run(["gen-template", "--arity", "2", "--sizes", "3,3",
                        "--target-f", "1,1", "--edge-prob", "0.6",
                        "--seed", "11", "--out", out]) == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestParserReuse:
    """``run`` shares one parser per process; no call may leak into the next."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_same_argv_twice_identical(self, random_file, capsys):
        argv = ["validate-template", random_file, "--depth", "3", "--seed", "4"]
        results = []
        for _ in range(2):
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]
        assert results[0][0] == 0 and "result valid" in results[0][1]

    @pytest.mark.parametrize(
        "bad",
        [
            ["no-such-verb"],
            ["build-model", "x.tpl"],  # --level is required
        ],
    )
    def test_argparse_error_then_valid_call(self, bad, random_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        out = str(tmp_path / "m.mdl")
        assert run(["build-model", random_file, "--level", "1", "--out", out]) == 0
        assert Path(out).read_text().startswith("hgt-model")

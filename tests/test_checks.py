"""Checks at scale through the CLI, one table, one child-process runner.

Each row writes its input files into a fresh directory and runs
``python -m hypertemplate ARGV`` there under a 20 s timeout and a
1,024,000,000-byte address-space limit (``ulimit -v 1000000``), so a check
that needs a table of 10^9 entries, builds a tail level or searches where a
bound should answer ends in a failure here, not in a slow pass.  A row
pins the exit code, the lines stdout ends with and the whole of stderr; an
input error (exit 2) also writes nothing to stdout.

The rows cover the paper's combinatorial property (F and G over the window
check) on edgeless levels of 120 to 20,000 vertices, complete tail levels
past a large prefix, saturation scenarios whose index depth would size a
huge G table, and input that must end in exit 2.  Below the table: the
source lints, the committed benchmark files and the README's round trip.
"""

import ast
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hypertemplate

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypertemplate"
TIMEOUT = 20  # seconds a row may take
ADDRESS_SPACE = 1_024_000_000  # bytes


def child_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(hypertemplate.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(argv, cwd):
    """(exit code, stdout, stderr) of python -m hypertemplate argv in cwd,
    under the timeout and the address-space limit."""
    proc = subprocess.run(
        [sys.executable, "-m", "hypertemplate", *argv], cwd=cwd, capture_output=True, text=True,
        env=child_env(), timeout=TIMEOUT, preexec_fn=_limit_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr


def lines(*text):
    return "".join(line + "\n" for line in text)


def template(arity, *sizes):
    """Edgeless stored levels of these sizes at f = 1, then the complete tail."""
    levels = [line for i, n in enumerate(sizes) for line in (f"level {i} size {n} f 1", "edges 0")]
    return lines("hgt-template 1", f"arity {arity}", f"prefix {len(sizes)}", *levels, "tail complete_growing 1")


def scenario(template_text, depth, instances=1):
    """One index of this depth, and one k = 2 instance whose stems sit at
    vertex 0, or none."""
    instance = []
    if instances:  # with none, depth may be 10^9
        stem = "s" + " 0" * depth
        instance = ["instance", "limit", "eq 0", stem, "at 0", "eq 0", stem]
    head = lines("hgt-scenario 1", "template-lines %d" % template_text.count("\n"))
    return head + template_text + lines(f"depths {depth}", f"instances {instances}", *instance)


def model(arity, level, leaves=(), edges=()):
    return lines("hgt-model 1", f"arity {arity}", f"level {level}", f"elements {len(leaves)}",
                 *(f"el {i} {' '.join(map(str, leaf))}" for i, leaf in enumerate(leaves)), f"edges {len(edges)}",
                 *(f"e {' '.join(map(str, edge))}" for edge in edges))


def f_exact(f):
    """The closing lines of an exact F report with one certificate."""
    return (f"F-lower {f}", f"F-upper {f}", "F-exact true", f"F-analytic-bound {f + 1}", f"F-certificates {f}",
            "result exact")


def report(verb, *pairs):
    return lines("hgt-report 1", f"verb {verb}", "seed 0", *(f"{k} {v}" for k, v in pairs))


def input_error(message):
    return lines(f"input error: {message}")


E120, E1000, E3000 = template(2, 120, 120), template(2, 1000, 1000), template(2, 3000, 3000)
REALIZED = ("failures 0", "result realized")
PAST_1000 = input_error("count must be <= 1000, got 1001")
TYPE_3000 = lines("hgt-typespec 1", "arity 2", "xstem 1 2 2999", "params 1", "tuple", "s 1 2 3")
TYPE_16 = lines("hgt-typespec 1", "arity 16", "xstem -", "params 1", "tuple", *["s 0"] * 15)

# id: (input files, argv, exit code, lines stdout ends with, stderr)
ROWS = {
    # the reach bound alone proves both levels, so validation builds no
    # cover-search set-up (per-vertex lists of about n^2 entries)
    "reach-bound-20000-vertex-levels": (
        {"large.hgt": template(2, 20000, 20000)}, "validate-template large.hgt --depth 2", 0, ("result valid",), "",
    ),
    # G(2) runs the window check at start 1, which must end at its first
    # size-2 cover; oplus at s 2, n 3 runs it at start 2 and finds a
    # counterexample, so it also builds that counterexample's replacements
    "G-1000-vertex-levels": ({"large.hgt": E1000}, "estimate-fg large.hgt --F 1 --G 2", 0, ("result exact",), ""),
    "oplus-1000-vertex-levels": (
        {"large.hgt": E1000}, "oplus large.hgt --s 2 --n 3", 1, ("result counterexample",), "",
    ),
    # F(2) is n + n^2 on two edgeless n-vertex levels, refuted at every
    # smaller n: F runs each level's plain check once and bisects level 1's
    # window start; a walk over the starts, about 2,000 scans, times out
    "F-1000-vertex-levels": (
        {"large.hgt": E1000}, "estimate-fg large.hgt --F 2", 0, f_exact(1001000), "",
    ),
    "F-120-vertex-levels": (
        {"edgeless.hgt": E120}, "estimate-fg edgeless.hgt --F 2", 0, f_exact(14520), "",
    ),
    # agreement counts run to 1,000; past it one input error line, not a
    # certificate padded to s types or an analytic bound of thousands of digits
    "oplus-count-1000": ({"edgeless.hgt": E120}, "oplus edgeless.hgt --s 1000 --n 5", 1, (), ""),
    "estimate-fg-count-1000": ({"edgeless.hgt": E120}, "estimate-fg edgeless.hgt --F 1000", 0, (), ""),
    "oplus-count-1001": ({"edgeless.hgt": E120}, "oplus edgeless.hgt --s 1001 --n 5", 2, (), PAST_1000),
    "estimate-fg-count-1001": ({"edgeless.hgt": E120}, "estimate-fg edgeless.hgt --F 1001", 2, (), PAST_1000),
    # simulate-saturation reads its G table only up to the index depth; one
    # sized by the predicate count asks for about 10^9 entries at depth 3
    "depth-3-scenario-1000-vertex-levels": (
        {"deep.hgs": scenario(E1000, 3)}, "simulate-saturation deep.hgs", 0, REALIZED, "",
    ),
    "depth-4-scenario-120-vertex-levels": (
        {"deep.hgs": scenario(E120, 4)}, "simulate-saturation deep.hgs", 0, REALIZED, "",
    ),
    # level 2 onwards is complete: decided from the stored levels alone,
    # where a complete 3,001-vertex level holds about 4.5 million edges
    "depth-3-scenario-3000-vertex-levels": (
        {"deep.hgs": scenario(E3000, 3)}, "simulate-saturation deep.hgs", 0, REALIZED, "",
    ),
    "type-reaching-a-tail-level": (
        {"large.hgt": E3000, "type.hts": TYPE_3000}, "decide-type large.hgt type.hts", 0,
        ("witness 1 2 2999", "result consistent"), "",
    ),
    # with no instance nothing is looked up, whatever the index depth
    "no-instance-scenario-depth-1e9": (
        {"huge.hgs": scenario(E3000, 10**9, instances=0)}, "simulate-saturation huge.hgs", 0,
        ("index 0 members - consistent true witness -", *REALIZED), "",
    ),
    # closing builds none of the 2.7 * 10^10 length-3 stems
    "empty-level-3-model-closed": (
        {"large.hgt": E3000, "empty.mdl": model(2, 3)}, "close-model large.hgt empty.mdl --level 3", 0,
        ("edges 0",), report("close-model", ("added", 0), ("fixpoint", "true")),
    ),
    # n parameters need n elements: no demand set is listed for an empty model
    "empty-model-param-bound-8": (
        {"t.hgt": template(3, 3), "empty.mdl": model(3, 1)}, "close-model t.hgt empty.mdl --level 1 --param-bound 8",
        0, ("edges 0",), report("close-model", ("added", 0), ("fixpoint", "true")),
    ),
    # the pattern code in closed form, with no list of Bell(15) patterns
    "signature-arity-16": (
        {"t.hgt": template(16, 16), "type.hts": TYPE_16}, "signature t.hgt type.hts --depth 1", 0,
        ("values 0 32767" + " 0" * 15, "result ok"), "",
    ),
    # the embedding checks walk edges, not the C(1000, 3) subsets of the base
    "amalgamate-1000-element-base": (
        {"t.hgt": template(3, 1), "base.mdl": model(3, 1, [(0,)] * 1000)},
        "amalgamate t.hgt base.mdl base.mdl base.mdl", 0, ("edges 0",), "",
    ),
    # input errors: one line, exit 2
    "scenario-index-depth-0": (
        {"depth0.hgs": scenario(template(2, 1), 0, instances=0)}, "simulate-saturation depth0.hgs", 2, (),
        input_error("index 0: depth must be >= 1, got 0"),
    ),
    "model-level-minus-1": (
        {"one.tpl": template(2, 1), "minus1.mdl": model(2, -1)}, "check-model one.tpl minus1.mdl", 2, (),
        input_error("model level must be >= 0, got -1"),
    ),
    "level-edge-count-minus-1": (
        {"minus1.hgt": template(2, 1).replace("edges 0", "edges -1")}, "validate-template minus1.hgt", 2, (),
        input_error("template edge count must be >= 0, got -1"),
    ),
    # an edge of the right model on an element it lacks, as close-model words it
    "amalgamate-edge-past-elements": (
        {"t.hgt": template(3, 1), "e.mdl": model(3, 1), "r.mdl": model(3, 1, [(0,)] * 3, [(0, 1, 5)])},
        "amalgamate t.hgt e.mdl e.mdl r.mdl", 2, (), input_error("edge [0, 1, 5] is not a 3-subset of elements"),
    ),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_row(row, tmp_path):
    files, argv, code, tail, err = ROWS[row]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    got, out, got_err = run_cli(argv.split(), tmp_path)
    assert (got, got_err) == (code, err), out
    assert out.endswith(lines(*tail)) and (code != 2 or out == "")


def _modules():
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_uses_what_it_imports():
    bad = []
    for path, tree in _modules().items():
        if path.name == "__init__.py":  # the package re-exports its API
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        bad += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert bad == []


def test_every_private_function_is_referenced():
    # a private function or method that nothing in src/ names is dead code
    # a refactor left behind
    trees = _modules()
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    bad = [f"{path.name}:{node.lineno}: {node.name}"
           for path, tree in trees.items() for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and node.name.startswith("_") and not node.name.endswith("__") and node.name not in used]
    assert bad == []


def test_committed_benchmark_files_name_their_run():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text())
        assert isinstance(data, dict) and {"python", "nproc", "parent"} <= data.keys(), path.name


def test_readme_round_trip(tmp_path):
    # the fenced sh block after "Example round trip:", continuations joined,
    # run in order in one fresh directory: an example that names a removed
    # option or exits non-zero fails
    text = (ROOT / "README.md").read_text()
    block = text.split("\nExample round trip:\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(c) for c in block.replace("\\\n", "").splitlines()]
    assert commands and all(c[0] == "hypertemplate" for c in commands)
    for c in commands:
        code, out, err = run_cli(c[1:], tmp_path)
        assert code == 0, (c, out, err)

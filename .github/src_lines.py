"""Print the line counts of src/hypertemplate/*.py: raw lines and code lines
per module and in total and, given a base commit, that commit's totals and
the deltas.

A code line is a line that is not blank, not a comment and not part of a
module, class or function docstring (found with ast).  Run from the
repository root:

    python3 .github/src_lines.py [BASE_COMMIT]
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/hypertemplate"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text):
    """The number of code lines in one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def counts(sources):
    """(raw lines, code lines) per module name, from name -> source text."""
    return {name: (len(text.splitlines()), code_lines(text)) for name, text in sorted(sources.items())}


def totals(per_module):
    return tuple(map(sum, zip(*per_module.values())))


def base_sources(rev):
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", rev, PACKAGE + "/"], capture_output=True, text=True, check=True
    ).stdout.split()
    show = lambda path: subprocess.run(["git", "show", f"{rev}:{path}"], capture_output=True, text=True, check=True)
    return {Path(path).name: show(path).stdout for path in names if path.endswith(".py")}


def main(argv):
    here = counts({p.name: p.read_text() for p in Path(PACKAGE).glob("*.py")})
    lines, code = totals(here)
    print(f"Net src/ lines: {lines}, code lines: {code}")
    if argv:
        base_lines, base_code = totals(counts(base_sources(argv[0])))
        print(f"Base {argv[0][:12]} src/ lines: {base_lines}, delta {lines - base_lines};"
              f" code lines: {base_code}, delta {code - base_code}")
    print(f"{'lines':>6} {'code':>6}  module")
    for name, (n, c) in here.items():
        print(f"{n:>6} {c:>6}  {name}")
    print(f"{lines:>6} {code:>6}  total")


if __name__ == "__main__":
    main(sys.argv[1:])

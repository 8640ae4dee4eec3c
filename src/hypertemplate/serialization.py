"""Line-oriented text formats with a one-line version header.

Writers emit canonical form (edges sorted lexicographically, stable field
order), so identical objects serialize to identical bytes; readers accept
exactly what writers produce.  All integers are decimal.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .hypergraph import Hypergraph
from .satsim import Instance, Scenario
from .signature import ParamType
from .template import TailPolicy, Template
from .theory import FiniteModel
from .tree import Stem
from .typecheck import PositiveTypeSpec, QfFormulaSpec

TEMPLATE_HEADER = "hgt-template 1"
MODEL_HEADER = "hgt-model 1"
TYPESPEC_HEADER = "hgt-typespec 1"
QFSPEC_HEADER = "hgt-qfspec 1"
SCENARIO_HEADER = "hgt-scenario 1"


class _Lines:
    def __init__(self, text: str, what: str):
        self.lines = [l.rstrip("\n") for l in text.splitlines() if l.strip()]
        self.pos = 0
        self.what = what

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise InputError(f"{self.what}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, keyword: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise InputError(f"{self.what}: expected {keyword!r}, got {line!r}")
        return parts[1:]

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise InputError(f"{self.what}: trailing content {self.lines[self.pos]!r}")


def _ints(parts: Sequence[str], what: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InputError(f"{what}: expected integers, got {parts}")


def _int(parts: Sequence[str], what: str) -> int:
    if len(parts) != 1:
        raise InputError(f"{what}: expected one integer, got {parts}")
    return _ints(parts, what)[0]


def _indexed(parts: Sequence[str], index: int, count: int, what: str) -> tuple[int, ...]:
    """The values of a line that starts with its own index, then count
    integers."""
    vals = _ints(parts, what)
    if len(vals) != count + 1 or vals[0] != index:
        raise InputError(f"{what}: malformed line {index}")
    return tuple(vals[1:])


# -- templates -------------------------------------------------------------


def dump_template(t: Template) -> str:
    out = [TEMPLATE_HEADER, f"arity {t.arity}", f"prefix {len(t.levels)}"]
    for n, (h, f) in enumerate(t.levels):
        out.append(f"level {n} size {h.size} f {f}")
        edges = sorted(tuple(sorted(e)) for e in h.uniform_edges)
        out.append(f"edges {len(edges)}")
        for e in edges:
            out.append("e " + " ".join(map(str, e)))
    out.append(f"tail {t.tail.kind} {t.tail.growth}")
    return "\n".join(out) + "\n"


def load_template(text: str) -> Template:
    ln = _Lines(text, "template")
    if ln.next() != TEMPLATE_HEADER:
        raise InputError(f"template: bad header, expected {TEMPLATE_HEADER!r}")
    arity = _int(ln.expect("arity"), "template arity")
    prefix = _int(ln.expect("prefix"), "template prefix")
    levels = []
    for n in range(prefix):
        parts = ln.expect("level")
        if len(parts) != 5 or parts[0] != str(n) or parts[1] != "size" or parts[3] != "f":
            raise InputError(f"template: malformed level line for level {n}")
        size, f = _ints([parts[2], parts[4]], "template level line")
        count = _int(ln.expect("edges"), "template edge count")
        edges = []
        for _ in range(count):
            edges.append(_ints(ln.expect("e"), "template edge"))
        levels.append((Hypergraph(arity, size, edges), f))
    tail_parts = ln.expect("tail")
    if len(tail_parts) != 2:
        raise InputError("template: malformed tail line")
    tail = TailPolicy(tail_parts[0], _int(tail_parts[1:], "template tail growth"))
    ln.done()
    return Template(arity, levels, tail)


# -- models ----------------------------------------------------------------


def dump_model(m: FiniteModel) -> str:
    out = [MODEL_HEADER, f"arity {m.arity}", f"level {m.level}", f"elements {len(m.leaves)}"]
    for i, leaf in enumerate(m.leaves):
        out.append(f"el {i} " + " ".join(map(str, leaf)))
    edges = sorted(tuple(sorted(e)) for e in m.edges)
    out.append(f"edges {len(edges)}")
    for e in edges:
        out.append("e " + " ".join(map(str, e)))
    return "\n".join(out) + "\n"


def load_model(text: str) -> FiniteModel:
    ln = _Lines(text, "model")
    if ln.next() != MODEL_HEADER:
        raise InputError(f"model: bad header, expected {MODEL_HEADER!r}")
    arity = _int(ln.expect("arity"), "model arity")
    level = _int(ln.expect("level"), "model level")
    count = _int(ln.expect("elements"), "model element count")
    leaves: list[Stem] = []
    for i in range(count):
        leaves.append(_indexed(ln.expect("el"), i, level, "model element"))
    ecount = _int(ln.expect("edges"), "model edge count")
    edges = set()
    for _ in range(ecount):
        edges.add(frozenset(_ints(ln.expect("e"), "model edge")))
    ln.done()
    return FiniteModel(arity, level, leaves, edges)


# -- positive type specs ---------------------------------------------------


def dump_typespec(spec: PositiveTypeSpec, arity: int) -> str:
    out = [TYPESPEC_HEADER, f"arity {arity}"]
    if spec.x_stem is None:
        out.append("xstem -")
    else:
        out.append(("xstem " + " ".join(map(str, spec.x_stem))).rstrip())
    out.append(f"params {len(spec.params)}")
    for tup in spec.params:
        out.append("tuple")
        for s in tup:
            out.append(("s " + " ".join(map(str, s))).rstrip())
    return "\n".join(out) + "\n"


def load_typespec(text: str) -> tuple[PositiveTypeSpec, int]:
    ln = _Lines(text, "typespec")
    if ln.next() != TYPESPEC_HEADER:
        raise InputError(f"typespec: bad header, expected {TYPESPEC_HEADER!r}")
    arity = _int(ln.expect("arity"), "typespec arity")
    xparts = ln.expect("xstem")
    x_stem = None if xparts == ["-"] else tuple(_ints(xparts, "typespec xstem"))
    count = _int(ln.expect("params"), "typespec param count")
    params = []
    for _ in range(count):
        ln.expect("tuple")
        stems = []
        for _ in range(arity - 1):
            stems.append(tuple(_ints(ln.expect("s"), "typespec stem")))
        params.append(tuple(stems))
    ln.done()
    return PositiveTypeSpec(params=tuple(params), x_stem=x_stem), arity


# -- qf formula specs ------------------------------------------------------


def dump_qfspec(spec: QfFormulaSpec, arity: int) -> str:
    out = [QFSPEC_HEADER, f"arity {arity}", f"m {len(spec.x_leaf)}"]
    out.append(("xleaf " + " ".join(map(str, spec.x_leaf))).rstrip())
    out.append(f"params {len(spec.param_leaves)}")
    for i, s in enumerate(spec.param_leaves):
        out.append((f"p {i} " + " ".join(map(str, s))).rstrip())
    out.append("eq " + " ".join(map(str, spec.equality)))
    pos = sorted(spec.positive)
    out.append(f"C {len(pos)}")
    for tup in pos:
        out.append("c " + " ".join(map(str, tup)))
    return "\n".join(out) + "\n"


def load_qfspec(text: str) -> tuple[QfFormulaSpec, int]:
    ln = _Lines(text, "qfspec")
    if ln.next() != QFSPEC_HEADER:
        raise InputError(f"qfspec: bad header, expected {QFSPEC_HEADER!r}")
    arity = _int(ln.expect("arity"), "qfspec arity")
    m = _int(ln.expect("m"), "qfspec m")
    x_leaf = tuple(_ints(ln.expect("xleaf"), "qfspec xleaf"))
    count = _int(ln.expect("params"), "qfspec param count")
    leaves = []
    for i in range(count):
        leaves.append(_indexed(ln.expect("p"), i, m, "qfspec param"))
    eq = tuple(_ints(ln.expect("eq"), "qfspec equality"))
    ccount = _int(ln.expect("C"), "qfspec positive count")
    positive = set()
    for _ in range(ccount):
        positive.add(tuple(_ints(ln.expect("c"), "qfspec positive edge")))
    ln.done()
    spec = QfFormulaSpec(
        x_leaf=x_leaf,
        param_leaves=tuple(leaves),
        positive=frozenset(positive),
        equality=eq,
    )
    return spec, arity


# -- scenarios -------------------------------------------------------------


def dump_scenario(sc: Scenario) -> str:
    out = [SCENARIO_HEADER]
    tpl = dump_template(sc.template)
    out.append(f"template-lines {len(tpl.splitlines())}")
    out.append(tpl.rstrip("\n"))
    out.append("depths " + " ".join(map(str, sc.depths)))
    out.append(f"instances {len(sc.instances)}")
    for inst in sc.instances:
        out.append("instance")
        out.append("limit")
        out.append("eq " + " ".join(map(str, inst.limit.equality)))
        for s in inst.limit.stems:
            out.append(("s " + " ".join(map(str, s))).rstrip())
        for ti, pt in enumerate(inst.per_index):
            out.append(f"at {ti}")
            out.append("eq " + " ".join(map(str, pt.equality)))
            for s in pt.stems:
                out.append(("s " + " ".join(map(str, s))).rstrip())
    return "\n".join(out) + "\n"


def load_scenario(text: str) -> Scenario:
    ln = _Lines(text, "scenario")
    if ln.next() != SCENARIO_HEADER:
        raise InputError(f"scenario: bad header, expected {SCENARIO_HEADER!r}")
    tcount = _int(ln.expect("template-lines"), "scenario template length")
    tpl_lines = [ln.next() for _ in range(tcount)]
    template = load_template("\n".join(tpl_lines))
    depths = tuple(_ints(ln.expect("depths"), "scenario depths"))
    if not depths:
        raise InputError("scenario: needs at least one index depth")
    icount = _int(ln.expect("instances"), "scenario instance count")
    k1 = template.arity - 1

    def read_ptype(expected_len: int) -> ParamType:
        eq = tuple(_ints(ln.expect("eq"), "scenario equality"))
        stems = []
        for _ in range(k1):
            s = tuple(_ints(ln.expect("s"), "scenario stem"))
            if len(s) != expected_len:
                raise InputError(f"scenario: stem length {len(s)}, expected {expected_len}")
            stems.append(s)
        return ParamType(stems=tuple(stems), equality=eq)

    instances = []
    for _ in range(icount):
        ln.expect("instance")
        ln.expect("limit")
        # limit stems share one length; take it from the first stem line
        eq_line = ln.expect("eq")
        first = _ints(ln.expect("s"), "scenario stem")
        lim_len = len(first)
        stems = [tuple(first)]
        for _ in range(k1 - 1):
            s = tuple(_ints(ln.expect("s"), "scenario stem"))
            if len(s) != lim_len:
                raise InputError("scenario: limit stems must share a length")
            stems.append(s)
        limit = ParamType(stems=tuple(stems), equality=tuple(_ints(eq_line, "scenario equality")))
        per_index = []
        for ti, d in enumerate(depths):
            at = _ints(ln.expect("at"), "scenario index")
            if at != [ti]:
                raise InputError(f"scenario: expected 'at {ti}'")
            per_index.append(read_ptype(d))
        instances.append(Instance(limit=limit, per_index=tuple(per_index)))
    ln.done()
    return Scenario(template=template, depths=depths, instances=tuple(instances))

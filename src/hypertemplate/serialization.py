"""Line-oriented text formats with a one-line version header.

Writers emit canonical form (edges sorted lexicographically, stable field
order), so identical objects serialize to identical bytes; an edge block is
sorted once, as rows of sorted vertices, and written through one %
template when its rows share a width.  Readers take each line once: a
count line's item lines are read whole when each is the item keyword and
as many integers as the first (one join, one split, one map(int)), and
otherwise in one loop over that many lines, so the first malformed one
names the error, and only after them does a count past the last line end
in "unexpected end of file".  Readers load every dump back to an equal
object but accept more than writers produce: blank lines, any line break
``str.splitlines`` knows (``\\r\\n`` too), any whitespace around the words
of a line other than the header, and any integer ``int`` reads (``+2``,
``02``, ``0_2``, non-ASCII digits).  The dump of such input differs from
it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError
from .hypergraph import Hypergraph
from .satsim import Instance, Scenario
from .signature import ParamType
from .template import TailPolicy, Template
from .theory import FiniteModel
from .tree import Stem
from .typecheck import PositiveTypeSpec

TEMPLATE_HEADER = "hgt-template 1"
MODEL_HEADER = "hgt-model 1"
TYPESPEC_HEADER = "hgt-typespec 1"
SCENARIO_HEADER = "hgt-scenario 1"


def _ints(parts: Sequence[str], what: str) -> list[int]:
    try:
        return list(map(int, parts))
    except ValueError:
        raise InputError(f"{what}: expected integers, got {parts}")


def _regular(chunk: list[str], count: int, item: str) -> Optional[list[list[int]]]:
    """The rows of count lines that are each item and the same number of
    integers as the first, from one join, one split and one map(int); None
    for any other chunk.  The lines are joined with a ";" word between
    them, which must fall where the first line's width puts each line end;
    as no ";" reads as an item or an integer, that holds only when every
    line has that width."""
    if not chunk or len(chunk) < count:
        return None
    width = len(chunk[0].split())
    words = " ; ".join(chunk).split()
    period = width + 1
    if (
        len(words) != count * period - 1
        or words[::period] != [item] * count
        or words[width::period] != [";"] * (count - 1)
    ):
        return None
    del words[width::period]  # the ";" words, then the items
    del words[::width]
    try:
        vals = list(map(int, words))
    except ValueError:
        return None
    n = width - 1
    return [vals[j * n : j * n + n] for j in range(count)]


class _Lines:
    """The non-blank lines of a text, read in order after its header."""

    def __init__(self, text: str, what: str, header: str):
        self.lines = list(filter(str.strip, text.splitlines()))
        self.pos = 0
        self.what = what
        if self.next() != header:
            raise InputError(f"{what}: bad header, expected {header!r}")

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise InputError(f"{self.what}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, keyword: str) -> list[str]:
        """The words after keyword on the next line."""
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise InputError(f"{self.what}: expected {keyword!r}, got {line!r}")
        return parts[1:]

    def ints(self, keyword: str, what: str) -> list[int]:
        return _ints(self.expect(keyword), what)

    def int(self, keyword: str, what: str) -> int:
        parts = self.expect(keyword)
        if len(parts) != 1:
            raise InputError(f"{what}: expected one integer, got {parts}")
        return _ints(parts, what)[0]

    def count(self, keyword: str, what: str) -> int:
        """A count line's one integer, rejected when negative."""
        n = self.int(keyword, what)
        if n < 0:
            raise InputError(f"{what} must be >= 0, got {n}")
        return n

    def items(self, count: int, item: str, what: str) -> Iterator[list[int]]:
        """The integers after item on each of the next count lines.  A
        regular block (_regular) is read at once; any other line by line,
        so the first malformed line names the error, before a missing one."""
        chunk = self.lines[self.pos : self.pos + count]
        self.pos += len(chunk)
        rows = _regular(chunk, count, item)
        if rows is not None:
            yield from rows
            return
        try:
            for line in chunk:
                parts = line.split()  # never empty: blank lines were dropped
                if parts[0] != item:
                    raise InputError(f"{self.what}: expected {item!r}, got {line!r}")
                yield list(map(int, parts[1:]))
        except ValueError:
            raise InputError(f"{what}: expected integers, got {parts[1:]}")
        if len(chunk) < count:
            raise InputError(f"{self.what}: unexpected end of file")

    def block(self, keyword: str, what: str, item: str, item_what: str) -> list[list[int]]:
        """A count line, then that many item lines of integers."""
        return list(self.items(self.count(keyword, what), item, item_what))

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise InputError(f"{self.what}: trailing content {self.lines[self.pos]!r}")


def _line(keyword: str, values: Iterable[int]) -> str:
    """keyword and the values; with no values, keyword and one space."""
    return f"{keyword} " + " ".join(map(str, values))


def _block(out: list[str], keyword: str, item: str, rows: list) -> None:
    """A count line, then a _line per row: rows of one width through a
    single % template, ragged ones one by one."""
    out.append(f"{keyword} {len(rows)}")
    widths = set(map(len, rows))
    if len(widths) == 1:
        line = f"{item} " + " ".join(["%s"] * widths.pop())
        out.append("\n".join([line] * len(rows)) % tuple(chain.from_iterable(rows)))
    else:
        out += [_line(item, r) for r in rows]


# -- templates -------------------------------------------------------------


def dump_template(t: Template) -> str:
    out = [TEMPLATE_HEADER, f"arity {t.arity}", f"prefix {len(t.levels)}"]
    for n, (h, f) in enumerate(t.levels):
        out.append(f"level {n} size {h.size} f {f}")
        _block(out, "edges", "e", sorted(map(sorted, h.uniform_edges)))
    out.append(f"tail {t.tail.kind} {t.tail.growth}")
    return "\n".join(out) + "\n"


def load_template(text: str) -> Template:
    ln = _Lines(text, "template", TEMPLATE_HEADER)
    arity = ln.int("arity", "template arity")
    prefix = ln.int("prefix", "template prefix")
    levels = []
    for n in range(prefix):
        parts = ln.expect("level")
        try:
            if len(parts) != 5 or parts[1::2] != ["size", "f"] or int(parts[0]) != n:
                raise ValueError
        except ValueError:
            raise InputError(f"template: malformed level line for level {n}")
        size, f = _ints([parts[2], parts[4]], "template level line")
        edges = ln.block("edges", "template edge count", "e", "template edge")
        levels.append((Hypergraph(arity, size, edges), f))
    tail_parts = ln.expect("tail")
    if len(tail_parts) != 2:
        raise InputError("template: malformed tail line")
    tail = TailPolicy(tail_parts[0], _ints(tail_parts[1:], "template tail growth")[0])
    ln.done()
    return Template(arity, levels, tail)


# -- models ----------------------------------------------------------------


def dump_model(m: FiniteModel) -> str:
    out = [MODEL_HEADER, f"arity {m.arity}", f"level {m.level}", f"elements {len(m.leaves)}"]
    out += [f"el {i} " + " ".join(map(str, leaf)) for i, leaf in enumerate(m.leaves)]
    _block(out, "edges", "e", sorted(map(sorted, m.edges)))
    return "\n".join(out) + "\n"


def load_model(text: str) -> FiniteModel:
    ln = _Lines(text, "model", MODEL_HEADER)
    arity = ln.int("arity", "model arity")
    level = ln.int("level", "model level")
    if level < 0:
        raise InputError(f"model level must be >= 0, got {level}")
    count = ln.count("elements", "model element count")
    leaves = []
    for i, vals in enumerate(ln.items(count, "el", "model element")):
        if len(vals) != level + 1 or vals[:1] != [i]:  # an el line needs its index
            raise InputError(f"model element: malformed line {i}")
        leaves.append(tuple(vals[1:]))
    edges = set(map(frozenset, ln.block("edges", "model edge count", "e", "model edge")))
    ln.done()
    return FiniteModel(arity, level, leaves, edges)


# -- positive type specs ---------------------------------------------------


def dump_typespec(spec: PositiveTypeSpec, arity: int) -> str:
    out = [TYPESPEC_HEADER, f"arity {arity}"]
    out.append("xstem -" if spec.x_stem is None else _line("xstem", spec.x_stem).rstrip())
    out.append(f"params {len(spec.params)}")
    for tup in spec.params:
        out.append("tuple")
        out.extend(_line("s", s).rstrip() for s in tup)
    return "\n".join(out) + "\n"


def load_typespec(text: str) -> tuple[PositiveTypeSpec, int]:
    ln = _Lines(text, "typespec", TYPESPEC_HEADER)
    arity = ln.int("arity", "typespec arity")
    xparts = ln.expect("xstem")
    x_stem = None if xparts == ["-"] else tuple(_ints(xparts, "typespec xstem"))
    count = ln.count("params", "typespec param count")
    params = []
    for _ in range(count):
        ln.expect("tuple")
        params.append(tuple(tuple(ln.ints("s", "typespec stem")) for _ in range(arity - 1)))
    ln.done()
    return PositiveTypeSpec(params=tuple(params), x_stem=x_stem), arity


# -- scenarios -------------------------------------------------------------


def _dump_ptype(out: list[str], pt: ParamType) -> None:
    out.append(_line("eq", pt.equality))
    out.extend(_line("s", s).rstrip() for s in pt.stems)


def _load_ptype(ln: _Lines, k1: int, depth: Optional[int]) -> ParamType:
    """An eq line, then k1 s lines.  A per-index type's stems have its
    index's depth.  A limit type (depth None) takes the common length of its
    stems from the first one, and reads its eq values after its stems."""
    words = ln.expect("eq")
    eq = None if depth is None else _ints(words, "scenario equality")
    stems: list[Stem] = []
    for _ in range(k1):
        s = tuple(ln.ints("s", "scenario stem"))
        if depth is not None and len(s) != depth:
            raise InputError(f"scenario: stem length {len(s)}, expected {depth}")
        if stems and len(s) != len(stems[0]):
            raise InputError("scenario: limit stems must share a length")
        stems.append(s)
    if eq is None:
        eq = _ints(words, "scenario equality")
    return ParamType(stems=tuple(stems), equality=tuple(eq))


def dump_scenario(sc: Scenario) -> str:
    out = [SCENARIO_HEADER]
    tpl = dump_template(sc.template)
    out.append(f"template-lines {len(tpl.splitlines())}")
    out.append(tpl.rstrip("\n"))
    out.append(_line("depths", sc.depths))
    out.append(f"instances {len(sc.instances)}")
    for inst in sc.instances:
        out += ["instance", "limit"]
        _dump_ptype(out, inst.limit)
        for ti, pt in enumerate(inst.per_index):
            out.append(f"at {ti}")
            _dump_ptype(out, pt)
    return "\n".join(out) + "\n"


def load_scenario(text: str) -> Scenario:
    ln = _Lines(text, "scenario", SCENARIO_HEADER)
    tcount = ln.count("template-lines", "scenario template length")
    template = load_template("\n".join([ln.next() for _ in range(tcount)]))
    depths = tuple(ln.ints("depths", "scenario depths"))
    if not depths:
        raise InputError("scenario: needs at least one index depth")
    icount = ln.count("instances", "scenario instance count")
    k1 = template.arity - 1
    instances = []
    for _ in range(icount):
        ln.expect("instance")
        ln.expect("limit")
        limit = _load_ptype(ln, k1, None)
        per_index = []
        for ti, d in enumerate(depths):
            if ln.ints("at", "scenario index") != [ti]:
                raise InputError(f"scenario: expected 'at {ti}'")
            per_index.append(_load_ptype(ln, k1, d))
        instances.append(Instance(limit=limit, per_index=tuple(per_index)))
    ln.done()
    return Scenario(template=template, depths=depths, instances=tuple(instances))

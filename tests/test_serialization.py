import hashlib
import re
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.template import TailPolicy, Template, complete_template, random_template
from hypertemplate.theory import FiniteModel, build_random_model
from hypertemplate.typecheck import PositiveTypeSpec
from hypertemplate.signature import ParamType
from hypertemplate.satsim import Instance, Scenario
from hypertemplate import serialization as ser


class TestTemplateFormat:
    def test_roundtrip(self):
        t = random_template(3, [4, 4], 0.7, [1, 2], seed=1)
        assert ser.load_template(ser.dump_template(t)) == t

    def test_byte_stable(self):
        # two equal templates built from differently ordered edge lists
        edges = [(0, 1, 2), (1, 2, 3)]
        a = Template(3, [(Hypergraph(3, 4, edges), 1)])
        b = Template(3, [(Hypergraph(3, 4, edges[::-1]), 1)])
        assert ser.dump_template(a) == ser.dump_template(b)

    def test_header_checked(self):
        with pytest.raises(InputError):
            ser.load_template("nonsense 9\n")

    def test_truncated_rejected(self):
        text = ser.dump_template(complete_template(2, 2))
        head = "\n".join(text.splitlines()[:-2])
        with pytest.raises(InputError):
            ser.load_template(head)

    def test_trailing_garbage_rejected(self):
        text = ser.dump_template(complete_template(2, 2)) + "extra\n"
        with pytest.raises(InputError):
            ser.load_template(text)

    @pytest.mark.parametrize("number", ["01", "+1"])
    def test_level_number_read_as_integer(self, number):
        t = random_template(2, [3, 3], 0.8, [1, 1], seed=4)
        text = ser.dump_template(t).replace("\nlevel 1 ", f"\nlevel {number} ")
        assert f"level {number} size" in text
        assert ser.load_template(text) == t

    @pytest.mark.parametrize("number", ["x", "2", "1.0"])
    def test_bad_level_number_rejected(self, number):
        text = ser.dump_template(random_template(2, [3, 3], 0.8, [1, 1], seed=4))
        text = text.replace("\nlevel 1 ", f"\nlevel {number} ")
        with pytest.raises(InputError, match="^template: malformed level line for level 1$"):
            ser.load_template(text)


class TestModelFormat:
    def test_roundtrip(self):
        t = random_template(3, [3, 3], 0.8, [1, 1], seed=2)
        m = build_random_model(t, 2, 1, 0.6, seed=3)
        out = ser.load_model(ser.dump_model(m))
        assert out.leaves == m.leaves and out.edges == m.edges
        assert out.arity == m.arity and out.level == m.level

    def test_empty_model(self):
        m = FiniteModel(3, 2, [], set())
        out = ser.load_model(ser.dump_model(m))
        assert out.leaves == [] and out.edges == set()


# -- errors inside a block --------------------------------------------------
#
# A count line's item lines are read in one loop: the first malformed line
# names the error, and only then does a count past the last line end in
# "unexpected end of file".

_BLOCK_TEMPLATE = ser.dump_template(
    Template(3, [(Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (1, 2, 4), (2, 3, 4)]), 1)])
)
_BLOCK_MODEL = ser.dump_model(
    FiniteModel(3, 1, [(0,), (1,), (0,), (1,)], {frozenset(e) for e in combinations(range(4), 3)})
)
BLOCKS = {
    # name: (load, dump, count keyword, item keyword, error prefix of a line, of its integers)
    "template edges": (ser.load_template, _BLOCK_TEMPLATE, "edges", "e", "template", "template edge"),
    "model elements": (ser.load_model, _BLOCK_MODEL, "elements", "el", "model", "model element"),
    "model edges": (ser.load_model, _BLOCK_MODEL, "edges", "e", "model", "model edge"),
}


def _block(name):
    """The block's loader, its dump's lines, the index of its count line and
    its keywords and error prefixes."""
    load, text, keyword, item, what, item_what = BLOCKS[name]
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.split()[0] == keyword)
    assert int(lines[at].split()[1]) == 4
    return load, lines, at, item, what, item_what


def _set_word(lines, i, j, word):
    parts = lines[i].split()
    parts[j] = word
    lines[i] = " ".join(parts)


each_block = pytest.mark.parametrize("name", sorted(BLOCKS))


class TestBlockErrors:
    @each_block
    def test_wrong_keyword_mid_block(self, name):
        load, lines, at, item, what, _ = _block(name)
        _set_word(lines, at + 2, 0, "f")
        with pytest.raises(InputError, match=f"^{what}: expected {item!r}, got {lines[at + 2]!r}$"):
            load("\n".join(lines))

    @each_block
    def test_non_integer_mid_block(self, name):
        load, lines, at, _, _, item_what = _block(name)
        _set_word(lines, at + 2, -1, "x")
        words = lines[at + 2].split()[1:]
        with pytest.raises(InputError, match=re.escape(f"{item_what}: expected integers, got {words}")):
            load("\n".join(lines))

    @each_block
    @pytest.mark.parametrize("first", ["keyword", "integer"])
    def test_earlier_malformed_line_wins(self, name, first):
        load, lines, at, item, what, item_what = _block(name)
        keyword_line, integer_line = (at + 2, at + 3) if first == "keyword" else (at + 3, at + 2)
        _set_word(lines, keyword_line, 0, "f")
        _set_word(lines, integer_line, -1, "x")
        if first == "keyword":
            message = re.escape(f"{what}: expected {item!r}, got {lines[keyword_line]!r}")
        else:
            message = re.escape(f"{item_what}: expected integers, got {lines[integer_line].split()[1:]}")
        with pytest.raises(InputError, match=f"^{message}$"):
            load("\n".join(lines))

    @each_block
    def test_count_past_the_last_line(self, name):
        load, lines, at, *_ = _block(name)
        lines = lines[: at + 5]  # the count line and its four items, nothing after
        lines[at] = lines[at].split()[0] + " 6"
        with pytest.raises(InputError, match="^(template|model): unexpected end of file$"):
            load("\n".join(lines))

    @each_block
    def test_malformed_line_wins_over_end_of_file(self, name):
        load, lines, at, _, _, item_what = _block(name)
        lines = lines[: at + 5]
        lines[at] = lines[at].split()[0] + " 6"
        _set_word(lines, at + 4, -1, "x")
        with pytest.raises(InputError, match=f"^{item_what}: expected integers"):
            load("\n".join(lines))

    def test_element_line_without_integers_at_level_zero(self):
        # an el line must hold its index even where the level asks for no stem
        text = "hgt-model 1\narity 2\nlevel 0\nelements 1\nel\nedges 0\n"
        with pytest.raises(InputError, match="^model element: malformed line 0$"):
            ser.load_model(text)

    def test_negative_level_rejected_before_the_elements(self):
        text = "hgt-model 1\narity 2\nlevel -1\nelements 1\nel\nedges 0\n"
        with pytest.raises(InputError, match="^model level must be >= 0, got -1$"):
            ser.load_model(text)


def _reference_block(lines, count, item, what, item_what):
    """A count line's rows as the loop over each line reads them: the first
    malformed line names the error, then a count past the last line."""
    rows = []
    for line in lines[:count]:
        parts = line.split()
        if parts[0] != item:
            raise InputError(f"{what}: expected {item!r}, got {line!r}")
        try:
            rows.append(list(map(int, parts[1:])))
        except ValueError:
            raise InputError(f"{item_what}: expected integers, got {parts[1:]}")
    if len(lines) < count:
        raise InputError(f"{what}: unexpected end of file")
    return rows


_WORDS = st.sampled_from(["e", "el", "x", ";", "+3", "-2", "0_4", "07", "\u0663"]) | st.integers(-5, 50).map(str)


@st.composite
def _item_lines(draw):
    """Lines of "e" and one width of integers, some replaced by arbitrary
    words, each with its own leading whitespace and separators, or the same
    words broken into as many lines at other places (ragged widths, "e"
    inside a line, a line starting with an integer); and a count up to two
    past the last line."""
    width = draw(st.integers(0, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)):
            words = ["e"] + [str(draw(st.integers(0, 30))) for _ in range(width)]
        else:
            words = draw(st.lists(_WORDS, min_size=1, max_size=5))
        lead = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(lead + draw(st.sampled_from([" ", "  ", "\t"])).join(words))
    words = " ".join(lines).split()
    if len(lines) > 1 and draw(st.booleans()):  # the same words, broken into as many lines elsewhere
        cuts = sorted(draw(st.sets(st.integers(1, len(words) - 1), min_size=len(lines) - 1, max_size=len(lines) - 1)))
        lines = [" ".join(words[a:b]) for a, b in zip([0, *cuts], [*cuts, len(words)])]
    return lines, draw(st.integers(0, len(lines) + 2))


@given(_item_lines())
@settings(max_examples=300, deadline=None)
@example((["e 1 2 e 3", "4"], 2))  # every other word is "e", but the lines are ragged
@example((["e 1 2", "e 3 4", "e"], 3))
@example((["e", "e", "e"], 3))
@example((["e 1 ; e 2", "e 3"], 2))
def test_block_reads_as_the_line_loop(case):
    lines, count = case
    text = "\n".join(["hgt-model 1", f"edges {count}", *lines])
    try:
        expected = _reference_block(lines, count, "e", "model", "model edge")
    except InputError as e:
        with pytest.raises(InputError, match=f"^{re.escape(str(e))}$"):
            ser._Lines(text, "model", "hgt-model 1").block("edges", "model edge count", "e", "model edge")
    else:
        got = ser._Lines(text, "model", "hgt-model 1").block("edges", "model edge count", "e", "model edge")
        assert got == expected


class TestTypespecFormat:
    def test_roundtrip_with_x_stem(self):
        spec = PositiveTypeSpec(params=(((0, 1), (0, 0)),), x_stem=(0,))
        out, arity = ser.load_typespec(ser.dump_typespec(spec, 3))
        assert out == spec and arity == 3

    def test_roundtrip_without_x_stem(self):
        spec = PositiveTypeSpec(params=(((0,), (1,)), ((1,), (1,))))
        out, _ = ser.load_typespec(ser.dump_typespec(spec, 3))
        assert out == spec

    def test_k2_single_stem_tuples(self):
        spec = PositiveTypeSpec(params=(((0, 1),),))
        out, arity = ser.load_typespec(ser.dump_typespec(spec, 2))
        assert out == spec and arity == 2


class TestScenarioFormat:
    def test_roundtrip(self):
        t = complete_template(2, 3)
        inst = Instance(
            limit=ParamType(stems=((0, 1),)),
            per_index=(ParamType(stems=((0,),)), ParamType(stems=((0, 1),))),
        )
        sc = Scenario(template=t, depths=(1, 2), instances=(inst,))
        out = ser.load_scenario(ser.dump_scenario(sc))
        assert out == sc

    def test_roundtrip_k3(self):
        t = complete_template(3, 3)
        inst = Instance(
            limit=ParamType(stems=((0, 0), (0, 1))),
            per_index=(ParamType(stems=((0, 0), (0, 1))),),
        )
        sc = Scenario(template=t, depths=(2,), instances=(inst, inst))
        assert ser.load_scenario(ser.dump_scenario(sc)) == sc


# -- pins and fuzzing --------------------------------------------------------
#
# Seeded small objects in all four formats (empty leaves, stems and
# patterns included), their dumps, and single-line mutations of those
# dumps.  The two digests were recorded before the hgt-qfspec format was
# deleted, with only its entry left out; they fix every dump byte, every
# loaded object and every rejection message.  The mutation digest was
# re-recorded when load_model began to reject a negative level: four
# mutations that set a model's level to -1 now raise that error first.

DUMP_DIGEST = "1f8c7a004d7e905f271ddd1a270e064400be236e3f960e5493cf917d5e43c078"
MUTATION_DIGEST = "ecba16b9f40380257bbb6670cd29ee5c6595c0659ccccdb5c3dd24ec27bbfadf"


def _rgs(rng, n):
    eq = []
    for _ in range(n):
        eq.append(rng.randint(0, max(eq, default=-1) + 1))
    return tuple(eq)


def _stem(rng, length):
    return tuple(rng.randrange(4) for _ in range(length))


def _template(rng):
    k = rng.randint(2, 4)
    levels = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 6)
        tuples = list(combinations(range(size), k))
        edges = rng.sample(tuples, rng.randint(0, min(len(tuples), 8)))
        levels.append((Hypergraph(k, size, edges), rng.randint(1, size)))
    return Template(k, levels, TailPolicy(growth=rng.randint(1, 3)))


def _model(rng):
    k, level = rng.randint(2, 4), rng.randint(0, 3)
    count = rng.choice([0, 1, 3, 6, 12])
    leaves = [_stem(rng, level) for _ in range(count)]
    subsets = list(combinations(range(count), k))
    edges = {frozenset(e) for e in rng.sample(subsets, rng.randint(0, min(len(subsets), 8)))}
    return FiniteModel(k, level, leaves, edges)


def _typespec(rng):
    k, length = rng.randint(2, 4), rng.randint(0, 3)
    params = tuple(
        tuple(_stem(rng, length) for _ in range(k - 1)) for _ in range(rng.randint(0, 3))
    )
    x_stem = rng.choice([None, _stem(rng, rng.randint(0, 3))])
    return PositiveTypeSpec(params=params, x_stem=x_stem), k


def _ptype(rng, k, length):
    stems = [_stem(rng, length) for _ in range(k - 1)]
    eq = _rgs(rng, k - 1)
    stems = [stems[c] for c in eq]  # equal variables carry identical stems
    return ParamType(stems=tuple(stems), equality=eq)


def _scenario(rng):
    t = _template(rng)
    depths = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
    lim = rng.randint(0, 4)
    instances = tuple(
        Instance(
            limit=_ptype(rng, t.arity, lim),
            per_index=tuple(_ptype(rng, t.arity, d) for d in depths),
        )
        for _ in range(rng.randint(0, 2))
    )
    return Scenario(template=t, depths=depths, instances=instances)


FORMATS = {
    "template": (lambda rng: ser.dump_template(_template(rng)), ser.load_template),
    "model": (lambda rng: ser.dump_model(_model(rng)), ser.load_model),
    "typespec": (lambda rng: ser.dump_typespec(*_typespec(rng)), ser.load_typespec),
    "scenario": (lambda rng: ser.dump_scenario(_scenario(rng)), ser.load_scenario),
}
TOKENS = ["0", "1", "2", "3", "7", "-1", "x", "-", "+2", "02", "", "e", "s", "eq", "edges", "at"]
MUTATIONS = ("delete", "duplicate", "replace", "append", "truncate")


def _dumps(fmt, count=20):
    make = FORMATS[fmt][0]
    return [make(Random(f"{fmt}:{i}")) for i in range(count)]


def _mutate(text, op, i, token, j):
    """One mutation of line i (token j of it, for replace)."""
    lines = text.splitlines()
    i %= len(lines)
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "truncate":
        del lines[i:]
    else:
        parts = lines[i].split(" ")
        if op == "replace":
            parts[j % len(parts)] = token
        else:
            parts.append(token)
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _template_key(t):
    return (t.arity, [(h.size, sorted(map(sorted, h.uniform_edges)), f) for h, f in t.levels], t.tail)


def _describe(obj):
    """A canonical text for a loaded object: sets sorted, types kept."""
    if isinstance(obj, Template):
        return repr(_template_key(obj))
    if isinstance(obj, FiniteModel):
        kinds = sorted({type(e).__name__ for e in obj.edges})
        return repr((obj.arity, obj.level, obj.leaves, sorted(map(sorted, obj.edges)), kinds))
    if isinstance(obj, Scenario):
        return repr((_template_key(obj.template), obj.depths, obj.instances))
    return repr(obj)


def _outcome(load, text):
    try:
        return "ok " + _describe(load(text))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestPins:
    def test_dump_bytes_pinned(self):
        dumps = [d for fmt in FORMATS for d in _dumps(fmt)]
        assert all(ser.dump_model(ser.load_model(d)) == d for d in _dumps("model"))
        assert _digest(dumps) == DUMP_DIGEST

    def test_empty_value_lists(self):
        # a count line's items and el keep their space; s and xstem lines
        # drop it
        model = FiniteModel(2, 0, [()], {frozenset()})
        assert ser.dump_model(model).splitlines()[4:] == ["el 0 ", "edges 1", "e "]
        typespec = PositiveTypeSpec(params=(((),),), x_stem=())
        assert ser.dump_typespec(typespec, 2).splitlines()[2:] == ["xstem", "params 1", "tuple", "s"]

    def test_mutations_pinned(self):
        outcomes = []
        for fmt, (_make, load) in FORMATS.items():
            for d, text in enumerate(_dumps(fmt)):
                rng = Random(f"mutate:{fmt}:{d}")
                for _ in range(200):
                    op = rng.choice(MUTATIONS)
                    bad = _mutate(text, op, rng.randrange(64), rng.choice(TOKENS), rng.randrange(8))
                    outcomes.append(_outcome(load, bad))
        assert len(outcomes) == 16_000
        assert _digest(outcomes) == MUTATION_DIGEST

    @given(
        st.sampled_from(sorted(FORMATS)),
        st.integers(0, 10**6),
        st.sampled_from(MUTATIONS),
        st.integers(0, 63),
        st.one_of(st.sampled_from(TOKENS), st.text("0123456789+-_x", max_size=4)),
        st.integers(0, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_dump_loads_or_raises_input_error(self, fmt, seed, op, i, token, j):
        make, load = FORMATS[fmt]
        bad = _mutate(make(Random(seed)), op, i, token, j)
        try:
            load(bad)
        except InputError:
            pass


import hashlib
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertemplate.errors import InputError
from hypertemplate.hypergraph import Hypergraph
from hypertemplate.template import TailPolicy, Template, complete_template, random_template
from hypertemplate.theory import FiniteModel, build_random_model
from hypertemplate.typecheck import PositiveTypeSpec, QfFormulaSpec
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


class TestQfspecFormat:
    def test_roundtrip(self):
        spec = QfFormulaSpec(
            x_leaf=(0, 1),
            param_leaves=((0, 0), (0, 1), (1, 1)),
            positive=frozenset({(0, 1), (1, 2)}),
            equality=(0, 1, 1),
        )
        out, arity = ser.load_qfspec(ser.dump_qfspec(spec, 3))
        assert out == spec and arity == 3


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
# Seeded small objects in all five formats (empty leaves, stems and
# patterns included), their dumps, and single-line mutations of those
# dumps.  The two digests were recorded before the readers and writers
# were folded into one per line shape; they fix every dump byte, every
# loaded object and every rejection message.

DUMP_DIGEST = "59f19233f8d7a0101598673288b98bea8e55711093f8f63577499b9104523220"
MUTATION_DIGEST = "32ad44ef5b279144673cf5b1d7daab8376028f99b5de26011c7accce2e8c9285"


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


def _qfspec(rng):
    k, m, n = rng.randint(2, 4), rng.randint(0, 3), rng.randint(0, 5)
    tuples = list(combinations(range(n), k - 1))
    positive = frozenset(rng.sample(tuples, rng.randint(0, min(len(tuples), 4))))
    spec = QfFormulaSpec(
        x_leaf=_stem(rng, m),
        param_leaves=tuple(_stem(rng, m) for _ in range(n)),
        positive=positive,
        equality=_rgs(rng, n),
    )
    return spec, k


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
    "qfspec": (lambda rng: ser.dump_qfspec(*_qfspec(rng)), ser.load_qfspec),
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
    spec, arity = obj
    if isinstance(spec, QfFormulaSpec):
        return repr((spec.x_leaf, spec.param_leaves, sorted(spec.positive), spec.equality, arity))
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
        # a count line's items, el and eq keep their space; s, xstem, xleaf
        # and p lines drop it
        spec = QfFormulaSpec(x_leaf=(), param_leaves=((),), positive=frozenset({()}))
        assert ser.dump_qfspec(spec, 1).splitlines()[3:] == ["xleaf", "params 1", "p 0", "eq 0", "C 1", "c "]
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
        assert len(outcomes) == 20_000
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


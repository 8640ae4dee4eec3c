"""Batch front-end: one verb per pipeline, reproducible seeds, stable text.

Exit codes: 0 success / consistent / holds, 1 definite negative result
(inconsistent, counterexample, infeasible, validation failure), 2 input
error, 3 budget exhausted (indeterminate), 4 internal error (a violated
guarantee or any unexpected exception, reported on one stderr line).
Every report echoes its seed and budgets; identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from math import isinf
from pathlib import Path

from . import serialization as ser
from .errors import InputError, InternalConsistencyError
from .oracle import brute_force_positive_type
from .satsim import Distribution, build_distribution, verify_realization
from .signature import (
    F_estimate,
    G_estimate,
    ParamType,
    analytic_g_table,
    f_signature,
    oplus_test,
    predicate_count,
)
from .template import complete_template, random_template, validate
from .theory import amalgamate, build_random_model, check_model, close_existentially
from .typecheck import decide_positive_type, transfer_check

OK, NEGATIVE, INPUT_ERROR, INDETERMINATE, INTERNAL = 0, 1, 2, 3, 4


def _report(verb: str, seed, pairs) -> str:
    out = ["hgt-report 1", f"verb {verb}", f"seed {seed}"]
    out.extend(f"{k} {v}" for k, v in pairs)
    return "\n".join(out) + "\n"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}")


# -- verbs -----------------------------------------------------------------


def cmd_gen_template(args) -> int:
    if args.complete:
        t = complete_template(args.arity, args.prefix)
    else:
        sizes = _csv_ints(args.sizes)
        target = _csv_ints(args.target_f)
        t = random_template(args.arity, sizes, args.edge_prob, target, args.seed)
    _emit(args, ser.dump_template(t))
    if args.out:
        sys.stdout.write(
            _report("gen-template", args.seed, [("prefix", t.prefix_len), ("result", "ok")])
        )
    return OK


def cmd_validate_template(args) -> int:
    t = ser.load_template(_read(args.template))
    rep = validate(t, args.depth)
    pairs = [("depth", rep.depth), ("exhaustive", str(rep.exhaustive).lower())]
    for p in rep.problems:
        pairs.append(("problem", f"level {p.level} extension: {p.message}"))
    pairs.append(("result", "valid" if rep.valid else "invalid"))
    _emit(args, _report("validate-template", args.seed, pairs))
    if not rep.valid:
        return NEGATIVE
    return OK if rep.exhaustive else INDETERMINATE


def _template_and_typespec(args):
    t = ser.load_template(_read(args.template))
    spec, arity = ser.load_typespec(_read(args.typespec))
    if arity != t.arity:
        raise InputError(f"typespec arity {arity} != template arity {t.arity}")
    return t, spec


def cmd_decide_type(args) -> int:
    t, spec = _template_and_typespec(args)
    dec = decide_positive_type(t, spec, args.depth)
    pairs = [("depth", dec.depth)]
    if dec.consistent:
        pairs.append(("witness", " ".join(map(str, dec.witness))))
    else:
        pairs.append(("failing-level", dec.failing_level))
    pairs.append(("result", "consistent" if dec.consistent else "inconsistent"))
    _emit(args, _report("decide-type", args.seed, pairs))
    return OK if dec.consistent else NEGATIVE


def cmd_check_model(args) -> int:
    t = ser.load_template(_read(args.template))
    model = ser.load_model(_read(args.model))
    violations = check_model(t, model)
    pairs = [("elements", len(model.leaves)), ("edges", len(model.edges))]
    for v in violations:
        pairs.append(("violation", f"{v.kind}: {v.detail}"))
    pairs.append(("result", "valid" if not violations else "invalid"))
    _emit(args, _report("check-model", args.seed, pairs))
    return OK if not violations else NEGATIVE


def cmd_build_model(args) -> int:
    t = ser.load_template(_read(args.template))
    model = build_random_model(t, args.level, args.count_per_leaf, args.edge_prob, args.seed)
    _emit(args, ser.dump_model(model))
    return OK


def cmd_close_model(args) -> int:
    t = ser.load_template(_read(args.template))
    model = ser.load_model(_read(args.model))
    res = close_existentially(t, args.level, model, args.param_bound, args.budget)
    _emit(args, ser.dump_model(res.model))
    sys.stderr.write(
        _report(
            "close-model",
            args.seed,
            [("added", res.added), ("fixpoint", str(res.reached_fixpoint).lower())],
        )
    )
    return OK if res.reached_fixpoint else INDETERMINATE


def cmd_amalgamate(args) -> int:
    t = ser.load_template(_read(args.template))
    m0 = ser.load_model(_read(args.base))
    m1 = ser.load_model(_read(args.left))
    m2 = ser.load_model(_read(args.right))
    # convention: the base embeds as the first |base| elements of each side
    emb = list(range(len(m0.leaves)))
    union = amalgamate(t, m0, m1, m2, emb, emb)
    violations = check_model(t, union)
    if violations:
        raise InputError(f"union model invalid: {violations[0].detail}")
    _emit(args, ser.dump_model(union))
    return OK


def cmd_qe_transfer(args) -> int:
    t = ser.load_template(_read(args.template))
    rep = transfer_check(t, args.m)
    pairs = [
        ("m", rep.m),
        ("m-star", rep.m_star),
        ("exhaustive", str(rep.exhaustive).lower()),
        ("counterexamples", len(rep.counterexamples)),
    ]
    for c in rep.counterexamples:
        edges = " ".join(",".join(map(str, tup)) for tup in sorted(c.spec.positive))
        ext = " ".join(str(leaf[-1]) for leaf in c.extension)
        pairs.append(("counterexample", f"edges {edges} extension {ext}"))
    pairs.append(("result", "holds" if rep.holds else "fails"))
    _emit(args, _report("qe-transfer", args.seed, pairs))
    if not rep.holds:
        return NEGATIVE
    return OK if rep.exhaustive else INDETERMINATE


def cmd_signature(args) -> int:
    t, spec = _template_and_typespec(args)
    if not spec.params:
        raise InputError("typespec carries no parameter tuple")
    ptype = ParamType(stems=spec.params[0])
    sig = f_signature(t, ptype, args.depth)
    pairs = [
        ("depth", args.depth),
        ("length", len(sig.values)),
        ("values", " ".join(map(str, sig.values))),
        ("result", "ok"),
    ]
    _emit(args, _report("signature", args.seed, pairs))
    return OK


def cmd_estimate_fg(args) -> int:
    t = ser.load_template(_read(args.template))
    pairs = []
    exact = True
    if args.F is not None:
        est = F_estimate(t, args.F)
        exact = exact and est.exact
        pairs += [
            ("F-s", est.s),
            ("F-lower", est.lower_bound),
            ("F-upper", est.upper_bound),
            ("F-exact", str(est.exact).lower()),
            ("F-analytic-bound", est.analytic_bound),
            ("F-certificates", len(est.certificates)),
        ]
    if args.G is not None:
        est = G_estimate(t, args.G)
        exact = exact and est.exact
        val = "inf" if isinstance(est.value, float) and isinf(est.value) else est.value
        pairs += [
            ("G-n", est.n),
            ("G-value", val),
            ("G-exact", str(est.exact).lower()),
            ("G-analytic-lower", est.analytic_lower),
        ]
    if args.F is None and args.G is None:
        raise InputError("pass --F and/or --G")
    pairs.append(("result", "exact" if exact else "budget-relative"))
    _emit(args, _report("estimate-fg", args.seed, pairs))
    return OK if exact else INDETERMINATE


def cmd_oplus(args) -> int:
    t = ser.load_template(_read(args.template))
    res = oplus_test(t, args.s, args.n)
    pairs = [
        ("s", res.s),
        ("n", res.n),
        ("exhaustive", str(res.exhaustive).lower()),
        ("result", "holds" if res.counterexample is None else "counterexample"),
    ]
    _emit(args, _report("oplus", args.seed, pairs))
    if res.counterexample is not None:
        return NEGATIVE
    return OK if res.exhaustive else INDETERMINATE


def cmd_simulate_saturation(args) -> int:
    sc = ser.load_scenario(_read(args.scenario))
    n_max = max(1 + predicate_count(sc.template, max(sc.depths)), max(sc.depths) + 1)
    g_table = analytic_g_table(sc.template, n_max)
    dist = build_distribution(sc, g_table, args.seed)
    if not isinstance(dist, Distribution):
        pairs = [
            ("instances", len(sc.instances)),
            ("indices", len(sc.depths)),
            ("blocked-instance", dist.alpha),
            ("bounds", " ".join("inf" if isinstance(b, float) else str(b) for b in dist.bounds)),
            ("result", "infeasible"),
        ]
        _emit(args, _report("simulate-saturation", args.seed, pairs))
        return NEGATIVE
    rep = verify_realization(sc, dist)
    pairs = [("instances", len(sc.instances)), ("indices", len(sc.depths))]
    for o in rep.outcomes:
        members = ",".join(map(str, o.instances)) or "-"
        wit = " ".join(map(str, o.witness)) if o.witness else "-"
        pairs.append(
            ("index", f"{o.index} members {members} consistent {str(o.consistent).lower()} witness {wit}")
        )
    pairs.append(("failures", len(rep.failures)))
    pairs.append(("result", "realized" if rep.fully_realized else "failed"))
    _emit(args, _report("simulate-saturation", args.seed, pairs))
    return OK if rep.fully_realized else NEGATIVE


def cmd_oracle(args) -> int:
    t, spec = _template_and_typespec(args)
    dec = decide_positive_type(t, spec, args.depth)
    o_cons, o_wit = brute_force_positive_type(t, spec, dec.depth)
    agree = dec.consistent == o_cons and dec.witness == o_wit
    pairs = [
        ("depth", dec.depth),
        ("procedure", "consistent" if dec.consistent else "inconsistent"),
        ("oracle", "consistent" if o_cons else "inconsistent"),
        ("agree", str(agree).lower()),
        ("result", "agree" if agree else "disagree"),
    ]
    _emit(args, _report("oracle", args.seed, pairs))
    if not agree:
        raise InternalConsistencyError("decide-type and the brute-force oracle disagree")
    return OK if dec.consistent else NEGATIVE


# -- parser ----------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The verb parser, built once per process and shared by every ``run``.

    Parsing leaves it unchanged (each ``parse_args`` returns a fresh
    Namespace), so callers may run many verbs in one process; they must not
    add arguments to the shared parser."""
    p = argparse.ArgumentParser(
        prog="hypertemplate",
        description="Hypergraph-template workbench: templates, tree theories, type checks",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("gen-template", help="generate a template file")
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--complete", action="store_true", help="complete template")
    sp.add_argument("--prefix", type=int, default=4, help="prefix depth for --complete")
    sp.add_argument("--sizes", default="", help="comma-separated level sizes")
    sp.add_argument("--edge-prob", type=float, default=0.9)
    sp.add_argument("--target-f", default="", help="comma-separated extension arities")
    common(sp)
    sp.set_defaults(func=cmd_gen_template)

    sp = sub.add_parser("validate-template", help="check template axioms to a depth")
    sp.add_argument("template")
    sp.add_argument("--depth", type=int, default=4)
    common(sp)
    sp.set_defaults(func=cmd_validate_template)

    sp = sub.add_parser("decide-type", help="positive-type consistency")
    sp.add_argument("template")
    sp.add_argument("typespec")
    sp.add_argument("--depth", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_decide_type)

    sp = sub.add_parser("check-model", help="validate a finite model")
    sp.add_argument("template")
    sp.add_argument("model")
    common(sp)
    sp.set_defaults(func=cmd_check_model)

    sp = sub.add_parser("build-model", help="random valid model")
    sp.add_argument("template")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--count-per-leaf", type=int, default=1)
    sp.add_argument("--edge-prob", type=float, default=0.5)
    common(sp)
    sp.set_defaults(func=cmd_build_model)

    sp = sub.add_parser("close-model", help="bounded existential closure")
    sp.add_argument("template")
    sp.add_argument("model")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--param-bound", type=int, default=1)
    sp.add_argument("--budget", type=int, default=50)
    common(sp)
    sp.set_defaults(func=cmd_close_model)

    sp = sub.add_parser("amalgamate", help="union over a shared base model")
    sp.add_argument("template")
    sp.add_argument("base")
    sp.add_argument("left")
    sp.add_argument("right")
    common(sp)
    sp.set_defaults(func=cmd_amalgamate)

    sp = sub.add_parser("qe-transfer", help="level-transfer experiment")
    sp.add_argument("template")
    sp.add_argument("--m", type=int, default=2)
    common(sp)
    sp.set_defaults(func=cmd_qe_transfer)

    sp = sub.add_parser("signature", help="signature of a parameter type")
    sp.add_argument("template")
    sp.add_argument("typespec")
    sp.add_argument("--depth", type=int, default=2)
    common(sp)
    sp.set_defaults(func=cmd_signature)

    sp = sub.add_parser("estimate-fg", help="agreement-depth and capacity estimates")
    sp.add_argument("template")
    sp.add_argument("--F", type=int, default=None, metavar="S")
    sp.add_argument("--G", type=int, default=None, metavar="N")
    common(sp)
    sp.set_defaults(func=cmd_estimate_fg)

    sp = sub.add_parser("oplus", help="one agreement test")
    sp.add_argument("template")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_oplus)

    sp = sub.add_parser("simulate-saturation", help="distribute and realize a scenario")
    sp.add_argument("scenario")
    common(sp)
    sp.set_defaults(func=cmd_simulate_saturation)

    sp = sub.add_parser("oracle", help="cross-check decide-type against brute force")
    sp.add_argument("template")
    sp.add_argument("typespec")
    sp.add_argument("--depth", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_oracle)

    return p


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return INPUT_ERROR
    except Exception as e:  # InternalConsistencyError or anything unforeseen
        message = " ".join(f"{type(e).__name__}: {e}".split())
        sys.stderr.write(f"internal error: {message}\n")
        return INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

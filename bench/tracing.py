"""Per-layer tracing from outside the library.

The tracer replaces public functions of the ``hypertemplate`` modules with
wrappers, in every module that holds a reference to them and on the class
for methods, so no tracing code lives in the package itself.  Two kinds of
wrapper exist:

* span: records (name, parent span, start, end) in a flat in-memory array;
  self time is a span's duration minus the durations of its wrapped
  children, so the self times of all spans in one op add up to the op;
* count: only counts calls (and, for witness_mask, distinct (graph,
  partial) keys).  Used for the functions called in inner loops (edge
  tests, mask lookups, range checks), whose time stays in the caller's self
  time so tracing overhead stays low.  Each count call is also charged to
  the span open at the time; ``wrapper_costs`` measures what one such call
  costs over a direct call, and ``self_times`` takes that cost out of the
  span it was charged to, so the wrappers do not inflate their callers.

Outcome hooks tally what a call returned (consistent or not, sampled or
exhaustive, ...) for the ratio metrics.  Wrappers do nothing while the
tracer is inactive, which lets the benchmark generate inputs and check
outputs without polluting the trace.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

SPAN, COUNT = "span", "count"

# (module, attribute, kind).  "Class.method" names patch the class.
WRAPPED = (
    ("hypergraph", "Hypergraph.is_edge", COUNT),
    ("hypergraph", "Hypergraph.witness_mask", COUNT),
    ("hypergraph", "Hypergraph.extension_witness", SPAN),
    ("hypergraph", "Hypergraph.check_extension_property", SPAN),
    ("hypergraph", "random_hypergraph", SPAN),
    ("template", "Template.level_size", COUNT),
    ("template", "random_template", SPAN),
    ("template", "validate", SPAN),
    ("template", "max_extension_arity", SPAN),
    ("template", "corrupt_level", SPAN),
    ("tree", "in_tree", COUNT),
    ("tree", "require_in_tree", COUNT),
    ("tree", "extend_canonically", COUNT),
    ("tree", "complete_to_leaf", SPAN),
    ("tree", "einfty_prefix", SPAN),
    ("typecheck", "decide_positive_type", SPAN),
    ("typecheck", "decide_qf_formula", SPAN),
    ("typecheck", "transfer_check", SPAN),
    ("theory", "build_random_model", SPAN),
    ("theory", "check_model", SPAN),
    ("theory", "close_existentially", SPAN),
    ("signature", "f_signature", SPAN),
    ("signature", "oplus_test", SPAN),
    ("signature", "family_consistent", SPAN),
    ("signature", "pattern_index", COUNT),
    ("signature", "F_estimate", SPAN),
    ("signature", "G_estimate", SPAN),
    ("satsim", "build_distribution", SPAN),
    ("satsim", "verify_realization", SPAN),
    ("satsim", "agreement_level", COUNT),
    ("serialization", "load_template", SPAN),
    ("serialization", "dump_template", SPAN),
    ("serialization", "load_model", SPAN),
    ("serialization", "dump_model", SPAN),
    ("cli", "run", SPAN),
)

LAYERS = ("hypergraph", "template", "tree", "typecheck", "theory",
          "signature", "satsim", "serialization", "cli")

ROOT_SPAN = "bench.op"


def _metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


# Outcome hooks: metric name -> function of the call's result returning the
# amount to add to the tally "<name>.<key>".
OUTCOMES = {
    "hypergraph.check_extension_property": ("sampled", lambda r: not r.exhaustive),
    "template.random_template": ("levels", lambda r: r.prefix_len),
    "typecheck.decide_positive_type": ("consistent", lambda r: r.consistent),
    "typecheck.decide_qf_formula": ("consistent", bool),
    "theory.close_existentially": ("fixpoint", lambda r: r.reached_fixpoint),
    "signature.oplus_test": ("families", lambda r: r.families_tried),
    "satsim.build_distribution": ("infeasible", lambda r: not hasattr(r, "assigned")),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = [ROOT_SPAN]
        self.spans = array("q")  # name id, parent index, start ns, end ns
        self.inner = array("q")  # per span: count-wrapper calls made while it was on top
        self.inner_mask = array("q")  # the same for the witness_mask wrapper
        self.stack = [-1]
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self.mask_keys: set = set()
        self._keep: dict = {}  # holds graphs so their ids stay unique

    # -- recording -----------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.spans) >> 2
        self.spans.extend((name_id, self.stack[-1], 0, 0))
        self.inner.append(0)
        self.inner_mask.append(0)
        self.stack.append(idx)
        self.spans[4 * idx + 2] = perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        self.spans[4 * idx + 3] = perf_counter_ns()
        self.stack.pop()

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        calls, tally = self.calls, self.tally
        hook = OUTCOMES.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                tally[f"{name}.{hook[0]}"] += hook[1](result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls, inner, stack = self.calls, self.inner, self.stack

        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
                inner[stack[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mask_count(self, name: str, fn):
        calls, keys, keep = self.calls, self.mask_keys, self._keep
        inner, stack = self.inner_mask, self.stack

        def wrapper(graph, partial):
            if self.active:
                calls[name] += 1
                inner[stack[-1]] += 1
                keep[id(graph)] = graph
                keys.add((id(graph), partial))
            return fn(graph, partial)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every WRAPPED function of an imported ``hypertemplate``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module_name, attr, kind in WRAPPED:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            name = _metric_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
            else:
                fn = getattr(module, attr)
            if kind == SPAN:
                wrapped = self._span(name, fn)
            elif name == "hypergraph.witness_mask":
                wrapped = self._mask_count(name, fn)
            else:
                wrapped = self._count(name, fn)
            if "." in attr:
                setattr(cls, meth, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    # -- results -------------------------------------------------------------

    @staticmethod
    def wrapper_costs(calls: int = 20_000, rounds: int = 5) -> tuple[float, float]:
        """ns that one active count wrapper and one witness_mask wrapper add
        over a direct call: the least of ``rounds`` timings of ``calls``
        calls on a throwaway tracer, each less the same calls unwrapped."""
        probe = Tracer()
        probe.active = True
        probe.open(0)
        graph, partials = object(), [(i, i + 1) for i in range(64)] * (calls // 64)

        def fn(graph, partial):
            return partial

        def least(f):
            best = None
            for _ in range(rounds):
                t0 = perf_counter_ns()
                for partial in partials:
                    f(graph, partial)
                ns = (perf_counter_ns() - t0) / len(partials)
                best = ns if best is None else min(best, ns)
            return best

        direct = least(fn)
        return (max(0.0, least(probe._count("probe", fn)) - direct),
                max(0.0, least(probe._mask_count("probe", fn)) - direct))

    def self_times(self, count_ns: float = 0.0, mask_ns: float = 0.0) -> tuple[Counter, Counter, float]:
        """(self ns per span name, total ns per span name, ns of count-wrapper
        overhead).  ``count_ns`` and ``mask_ns`` are the per-call costs from
        ``wrapper_costs``; each span's self time loses the cost of the count
        calls charged to it.  Totals are left as measured."""
        spans, names = self.spans, self.names
        n = len(spans) >> 2
        child = array("q", bytes(8 * n))  # ns covered by each span's children
        for i in range(n):
            parent = spans[4 * i + 1]
            if parent >= 0:
                child[parent] += spans[4 * i + 3] - spans[4 * i + 2]
        self_ns: Counter = Counter()
        total_ns: Counter = Counter()
        overhead = 0.0
        for i in range(n):
            name = names[spans[4 * i]]
            d = spans[4 * i + 3] - spans[4 * i + 2]
            cost = self.inner[i] * count_ns + self.inner_mask[i] * mask_ns
            self_ns[name] += d - child[i] - cost
            total_ns[name] += d
            overhead += cost
        return self_ns, total_ns, overhead

    def write(self, path: Path) -> None:
        """Spans as native-endian int64 quadruples plus a JSON name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            self.spans.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(
            {"fields": ["name", "parent", "start_ns", "end_ns"], "names": self.names}))

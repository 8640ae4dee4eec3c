"""Benchmark runner for the hypertemplate workbench.

    python3 bench/run.py --workload query --seed 1 --seconds 10 --trace 0

Runs one workload as a closed loop with one client for --seconds and prints
a human-readable report followed, as the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured untraced; with --trace 1 they are the
per-layer ones from a traced rerun of the same ops (see tracing.py).

The package is imported from src/ of the checkout this file sits in; when
that is missing the runner exits 2 without a result.  Scratch files go to
.bench_run/ in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from itertools import product
from pathlib import Path
from random import Random
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_CAL_BURSTS = 20  # calibration bursts right before and right after each set-up
CAL_REF_NS = 100_000  # setup_s is scaled to a machine whose kernel call takes this
TRANSFER_W1_SHARE = 0.65  # the rest of a transfer run goes to workers=2
UNTRACED_SHARE = 0.35  # traced runs: untraced phase, then the same ops traced
CAL_EVERY_NS = 50_000_000  # one calibration burst per 50 ms of loop
CAL_BURST = 10  # kernel calls per burst
SAMPLE_CAP = 1 << 17  # latency samples kept per loop, so memory stays flat

# Per-layer metrics: (name, unit).  "<fn>.calls" and "<fn>.self_ms" are
# per op; "<layer>.self_ms" sums the self time of the layer's spans, so the
# layer self times plus bench.self_ms add up to trace.op_ms.
RATIOS = {
    # metric: (numerator, denominator), each a tally or call-count key
    "hypergraph.witness_mask.distinct_ratio": ("mask_keys", "hypergraph.witness_mask"),
    "hypergraph.check_extension_property.sampled_ratio": (
        "hypergraph.check_extension_property.sampled", "hypergraph.check_extension_property"),
    "template.random_template.accept_ratio": (
        "template.random_template.levels", "hypergraph.random_hypergraph"),
    "typecheck.decide_positive_type.consistent_ratio": (
        "typecheck.decide_positive_type.consistent", "typecheck.decide_positive_type"),
    "typecheck.decide_qf_formula.consistent_ratio": (
        "typecheck.decide_qf_formula.consistent", "typecheck.decide_qf_formula"),
    "theory.close_existentially.fixpoint_ratio": (
        "theory.close_existentially.fixpoint", "theory.close_existentially"),
    "signature.oplus_test.families_per_call": ("signature.oplus_test.families", "signature.oplus_test"),
    "satsim.build_distribution.infeasible_ratio": (
        "satsim.build_distribution.infeasible", "satsim.build_distribution"),
}
CALLS = (
    "hypergraph.witness_mask", "hypergraph.is_edge", "hypergraph.extension_witness",
    "hypergraph.check_extension_property", "template.level_size", "tree.in_tree",
    "tree.require_in_tree", "tree.extend_canonically", "tree.complete_to_leaf",
    "typecheck.decide_positive_type", "typecheck.decide_qf_formula",
    "typecheck.transfer_check", "signature.f_signature", "signature.oplus_test",
    "signature.family_consistent", "signature.pattern_index", "satsim.agreement_level",
    "cli.run",
)
SELF_MS = (
    "hypergraph.extension_witness", "hypergraph.check_extension_property",
    "template.random_template", "template.validate", "tree.complete_to_leaf",
    "tree.einfty_prefix", "typecheck.decide_positive_type", "typecheck.decide_qf_formula",
    "typecheck.transfer_check", "theory.build_random_model", "theory.check_model",
    "theory.close_existentially", "signature.f_signature", "signature.oplus_test",
    "satsim.build_distribution", "satsim.verify_realization",
    "serialization.load_template", "serialization.dump_template",
    "serialization.load_model", "serialization.dump_model", "cli.run",
    # whole layers, and the benchmark's own share of each op
    "hypergraph", "template", "tree", "typecheck", "theory", "signature", "satsim",
    "serialization", "cli", "bench",
)
PER_LAYER = (
    [(f"{name}.calls", "calls/op") for name in CALLS]
    + [(f"{name}.self_ms", "ms/op") for name in SELF_MS]
    + [(name, "families/call" if name.endswith("per_call") else "1") for name in RATIOS]
    + [("trace.op_ms", "ms/op"), ("trace.overhead_ratio", "1")]
)
END_TO_END = (("setup_s", "s"), ("ops_per_cal", "1/cal"), ("op_p50_cal", "cal"),
              ("op_p90_cal", "cal"), ("peak_rss_mb", "MB"))


def load_package():
    """Import (or re-import) hypertemplate from the checkout's src/."""
    for name in [n for n in sys.modules if n == "hypertemplate" or n.startswith("hypertemplate.")]:
        del sys.modules[name]
    ht = importlib.import_module("hypertemplate")
    importlib.import_module("hypertemplate.cli")
    if Path(ht.__file__).resolve().parent != SRC / "hypertemplate":
        raise ImportError(f"hypertemplate imported from {ht.__file__}, not {SRC}")
    return ht


def _in_range(stem, sizes) -> bool:
    return all(0 <= v < sizes[n] for n, v in enumerate(stem))


_KERNEL_MASKS = {(a, b): ((a * 37 + b * 11) % 61) | 1 for a in range(4) for b in range(4)}


def calibration_kernel() -> int:
    """A fixed pure-Python job that uses nothing from the package, built
    from the same kinds of work as the library's inner loops: range checks
    on tuple stems, prefix slices, a dict of bit masks keyed by tuples, and
    mask intersections over a product of vertex choices.  Its speed tracks
    the machine's."""
    sizes = (5, 6, 7, 5)
    stems = [(i % 5, (i * 7) % 6, (i * 3) % 7, (i // 3) % 5) for i in range(20)]
    inside = sum(1 for s in stems if _in_range(s, sizes))
    prefixed = sum(1 for s in stems for p in ((1, 2), (3, 4)) if s[:2] == p)
    table: dict = {}
    for s in stems:
        table[s[:2]] = table.get(s[:2], 0) | (1 << s[2])
    hits = 0
    for ext in product(range(4), repeat=3):
        acc = -1
        for i, j in ((0, 1), (1, 2), (0, 2)):
            acc &= _KERNEL_MASKS[(ext[i], ext[j])]
            if not acc:
                break
        hits += bool(acc)
    return inside + prefixed + len(table) + hits


def calibrate(cal) -> None:
    """Time one burst of kernel calls; append ns per call to ``cal``.  The
    collector is paused so the burst does not pay for the workload's heap."""
    gc.disable()
    try:
        t0 = perf_counter_ns()
        for _ in range(CAL_BURST):
            calibration_kernel()
        cal.append((perf_counter_ns() - t0) / CAL_BURST)
    finally:
        gc.enable()


class Loop:
    """Outcome of a closed loop: op count, total ns inside ops, and op
    latencies: all of them up to SAMPLE_CAP, past it a uniform random sample
    of that size (reservoir sampling), so memory stays flat however fast the
    machine runs.  A strided sample would alias with the round-robin order
    of the slots."""

    def __init__(self):
        self.ops = 0
        self.ns = 0
        self.samples = array("q")
        self._rng = Random(0)

    def add(self, ns: int) -> None:
        if self.ops < SAMPLE_CAP:
            self.samples.append(ns)
        else:
            j = self._rng.randrange(self.ops + 1)
            if j < SAMPLE_CAP:
                self.samples[j] = ns
        self.ops += 1
        self.ns += ns


def closed_loop(wl, seconds=None, count=None, tracer=None, cal=None) -> Loop:
    """Run ops 0, 1, ... until ``seconds`` pass or ``count`` ops are done.
    Input generation and per-op checks run outside the timed bracket and,
    when traced, outside any span.  With a ``cal`` list, calibration bursts
    are interleaved between ops every CAL_EVERY_NS, so they sample the same
    machine state as the ops."""
    clock = perf_counter_ns
    loop = Loop()
    deadline = clock() + int(seconds * 1e9) if seconds is not None else None
    next_cal = clock()
    i = 0
    while (i < count) if count is not None else (clock() < deadline):
        inp = wl.op_input(i)
        if tracer is not None:
            tracer.active = True
            span = tracer.open(0)
        t0 = clock()
        try:
            out, err = wl.run_op(inp), None
        except Exception as e:  # any exception on a valid input is a failure
            out, err = None, e
        t1 = clock()
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
        loop.add(t1 - t0)
        wl.record(i, inp, out, err)
        if cal is not None and t1 >= next_cal:
            calibrate(cal)
            next_cal = clock() + CAL_EVERY_NS
        i += 1
    return loop


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(name, wl, seconds, setup_ns, setup_cal):
    """Untraced run.  Latencies are reported in ms and, for the gate, in
    calibration units: the mean time of one calibration_kernel call measured
    in the same loop, which cancels the machine's speed drift.  Set-up times
    are given as measured and, for the gate, scaled by CAL_REF_NS over the
    median kernel time in bursts around each set-up."""
    w1_seconds = seconds * (TRANSFER_W1_SHARE if name == "transfer" else 1.0)
    cal = []
    loop = closed_loop(wl, seconds=w1_seconds, cal=cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the stats below
    attempted = loop.ops
    lat = loop.samples
    n = f"n={loop.ops} ops" + (f", percentiles over a sample of {len(lat)}" if len(lat) < loop.ops else "")
    cal_ns = statistics.fmean(cal)
    mean_ns = loop.ns / loop.ops
    p50, p90 = statistics.median(lat), quantile(lat, 90)
    metrics = {
        "setup_s": (statistics.median(ns * CAL_REF_NS / c for ns, c in zip(setup_ns, setup_cal)) / 1e9,
                    "s", f"median of {len(setup_ns)} set-ups, scaled to a {CAL_REF_NS / 1e3:g} us kernel"),
        "setup_raw_s": (statistics.median(setup_ns) / 1e9, "s", "the same set-ups as measured"),
        "ops_per_cal": (cal_ns / mean_ns, "1/cal", n),
        "op_p50_cal": (p50 / cal_ns, "cal", n),
        "op_p90_cal": (p90 / cal_ns, "cal", n),
        "peak_rss_mb": (rss_mb, "MB", "this process, up to the end of the timed loop"),
        "ops_per_s": (1e9 / mean_ns, "1/s", n),
        "op_p50_ms": (p50 / 1e6, "ms", n),
        "op_p90_ms": (p90 / 1e6, "ms", n),
    }
    if name == "query":
        metrics["op_p99_ms"] = (quantile(lat, 99) / 1e6, "ms", n)
    metrics["cal_us"] = (cal_ns / 1e3, "us", f"calibration kernel, {len(cal)} bursts of {CAL_BURST}")
    if name == "transfer":
        w2_ops, w2_ns = wl.run_w2(seconds - w1_seconds)
        metrics["w2_ops_per_s"] = (w2_ops / (w2_ns / 1e9), "1/s", f"{w2_ops} ops at workers=2")
        attempted += w2_ops
    return metrics, attempted


def per_layer(wl, seconds, ht, spans_path):
    from tracing import LAYERS, Tracer

    untraced = closed_loop(wl, seconds=seconds * UNTRACED_SHARE)
    count_ns, mask_ns = Tracer.wrapper_costs()
    tracer = Tracer()
    tracer.install(ht)
    traced = closed_loop(wl, count=untraced.ops, tracer=tracer)
    ops = traced.ops
    self_ns, total_ns, overhead_ns = tracer.self_times(count_ns, mask_ns)
    tracer.write(spans_path)
    counts = dict(tracer.calls)
    counts.update(tracer.tally)
    counts["mask_keys"] = len(tracer.mask_keys)
    layer_ns = {layer: sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) for layer in LAYERS}
    layer_ns["bench"] = self_ns["bench.op"]
    metrics = {}
    for metric, unit in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric in RATIOS:
            num, den = RATIOS[metric]
            value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        elif metric == "trace.op_ms":
            value = (total_ns["bench.op"] - overhead_ns) / 1e6 / ops
        elif metric == "trace.overhead_ratio":
            value = traced.ns / untraced.ns
        elif kind == "calls":
            value = counts.get(base, 0) / ops
        else:
            value = (layer_ns[base] if base in layer_ns else self_ns.get(base, 0)) / 1e6 / ops
        metrics[metric] = (value, unit, "")
    metrics["trace.op_ms"] = (metrics["trace.op_ms"][0], "ms/op",
                              f"less count-wrapper overhead: {count_ns:.0f} ns a call,"
                              f" {mask_ns:.0f} ns a witness_mask call")
    return metrics, untraced.ops + ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hypertemplate" / "__init__.py").is_file():
        print(f"bench: no hypertemplate package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    wl = None
    setup_ns, setup_cal = [], []
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None:  # release the last set-up, so only one is alive
                wl.close()
                wl = ht = None
                gc.collect()
            cal = []
            for _ in range(SETUP_CAL_BURSTS):
                calibrate(cal)
            t0 = perf_counter_ns()
            ht = load_package()
            wl = WORKLOADS[args.workload](ht, args.seed, workdir)
            setup_ns.append(perf_counter_ns() - t0)
            for _ in range(SETUP_CAL_BURSTS):
                calibrate(cal)
            setup_cal.append(statistics.median(cal))
        if args.trace:
            spans = ROOT / ".bench_run" / f"spans-{args.workload}"
            metrics, attempted = per_layer(wl, args.seconds, ht, spans)
        else:
            metrics, attempted = end_to_end(args.workload, wl, args.seconds, setup_ns, setup_cal)
        wl.verify()
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<14} {note}")
    print(f"  {'fail_ratio':<52} {wl.failed / attempted:>14.6g} {'1':<14} {wl.failed}/{attempted} ops failed")
    print(f"  checks: {wl.checked} independent checks; " + ", ".join(f"{k}={v}" for k, v in wl.notes.items()))
    wanted = END_TO_END if not args.trace else PER_LAYER
    result = {
        "correct": wl.failed == 0 and wl.checked > 0,
        "attempted": attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run exits 0 with a correct result whose last line carries exactly the
metrics BENCHMARK.json names, with their units; that the report lines show
every end-to-end metric the benchmark defines, with its unit, including
op_p99_ms (query) and w2_ops_per_s (transfer); that the
independent checks ran; and that the layer self times add up to the traced
op time.  Finally it checks that the runner refuses to run, without a
result, in a copy holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
# Printed by every untraced run, with their units, besides the gated ones.
PRINTED = {"setup_s": "s", "setup_raw_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
           "peak_rss_mb": "MB", "fail_ratio": "1"}
PRINTED_BY = {"query": {"op_p99_ms": "ms"}, "transfer": {"w2_ops_per_s": "1/s"}}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                      f" attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        errors.append(f"{where}: metrics differ from BENCHMARK.json")
    printed = {parts[0]: parts[2] for parts in (l.split() for l in lines[1:-1]) if len(parts) >= 3}
    expected = {m["name"]: m["unit"] for m in wanted}
    if not trace:
        expected.update(PRINTED)
        expected.update(PRINTED_BY.get(workload, {}))
    for name, unit in expected.items():
        if printed.get(name) != unit:
            errors.append(f"{where}: report lacks {name} in {unit}")
    checks = next((l for l in lines if l.strip().startswith("checks:")), "")
    if not checks or checks.split()[1] == "0":
        errors.append(f"{where}: no independent checks ran")
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        total = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS + ("bench",))
        if abs(total - metrics["trace.op_ms"]) > 1e-6 * max(1.0, metrics["trace.op_ms"]):
            errors.append(f"{where}: layer self times {total} != op time {metrics['trace.op_ms']}")
    return errors


def check_refuses_without_source() -> list[str]:
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "query", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"runner without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not errors else 'errors so far'}", flush=True)
    errors += check_refuses_without_source()
    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

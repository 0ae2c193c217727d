"""utrees benchmark: four workloads, end-to-end metrics and a traced run.

usage: python3 perfbench/run.py --workload {census,upoly,shaped,embed}
                                [--seed N] [--seconds S] [--trace 0|1]

A run repeats passes of one workload until S seconds have gone by (at least
MIN_PASSES of them).  Each pass is a fresh interpreter started by this
script, one after another: one caller, single-threaded, each call made only
after the previous one returned.  Pass k builds its inputs from
(workload, seed, k) alone, so the same seed gives the same inputs, and every
pass gets the same PYTHONHASHSEED, so its counters repeat exactly.

Interval times are scaled to a reference host speed, sampled around each
interval (see recorder.py), so that the host's slow stretches do not move
the figures; the run also prints its unscaled figures.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every pass twice,
untraced and then traced with spans around each call into a utrees module,
writes the spans to perfbench/out/, and prints the per-layer metrics plus
the tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from recorder import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("census", "upoly", "shaped", "embed")
MIN_PASSES = 3
# every pass must have ended by then, so that the run exits within 180 s
RUN_LIMIT_S = 160.0

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """A pass could not run or did not report; the run has no result."""


def run_pass(workload: str, seed: int, k: int, traced: bool, deadline: float) -> dict:
    spans = OUT / f"{workload}-seed{seed}-pass{k}.spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the pass could start")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", f"{time.monotonic():.9f}", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {k} did not end within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {k} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def best_intervals(passes: list[dict], key: str = "interval_ms") -> tuple[list[float], list[bool]]:
    """Each timed interval's least time over the passes, and its op flags.

    Every pass repeats the same inputs in a fresh interpreter, so interval i
    is the same call sequence in each pass.  Scaling to the reference host
    speed removes most of the host's slow stretches; the least of the
    repeats drops what is left (interrupts, a neighbour's burst), as timeit
    does.  Passes that do not line up (a failed op changes the sequence) are
    pooled whole instead.  `key` picks scaled or raw ("raw_interval_ms")
    times.
    """
    flags = passes[0]["interval_is_op"]
    if all(p["interval_is_op"] == flags for p in passes):
        return [min(col) for col in zip(*(p[key] for p in passes))], flags
    return ([x for p in passes for x in p[key]],
            [f for p in passes for f in p["interval_is_op"]])


def latency_figures(times: list[float], flags: list[bool]) -> tuple[float, list[float]]:
    """Ops per second over the intervals' total time, and sorted op latencies."""
    lat = sorted(t for t, is_op in zip(times, flags) if is_op)
    return len(lat) / (sum(times) / 1e3), lat


def end_to_end(passes: list[dict]) -> tuple[dict, str]:
    ops_per_s, lat = latency_figures(*best_intervals(passes))
    beyond = len(lat) - math.ceil(0.9 * len(lat))
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": percentile(lat, 0.5),
        "op_p90_ms": percentile(lat, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }
    note = (f"latency samples={len(lat)} beyond_p90={beyond} "
            f"p99_ms={percentile(lat, 0.99):.4g} max_ms={lat[-1]:.4g}")
    if beyond < 10:
        note += " (fewer than 10 samples beyond p90)"
    raw_ops_per_s, raw_lat = latency_figures(*best_intervals(passes, "raw_interval_ms"))
    note += (f"\n  unscaled: ops_per_s={raw_ops_per_s:.4g} op_p50_ms={percentile(raw_lat, 0.5):.4g}"
             f" op_p90_ms={percentile(raw_lat, 0.9):.4g}")
    return metrics, note


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    metrics = {}
    for name in per_layer_units():
        if name != "tracing_overhead":
            metrics[name] = statistics.median(t["layers"][name] for _, t in pairs)
    untraced = sum(best_intervals([u for u, _ in pairs])[0])
    traced = sum(best_intervals([t for _, t in pairs])[0])
    metrics["tracing_overhead"] = traced / untraced - 1
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "utrees" / "__init__.py").is_file():
        print(f"perfbench: no utrees sources at {SRC / 'utrees'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    runs: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    k = 0
    try:
        last = 0.0
        # stop when the next pass would end further past --seconds than short of it
        while k < MIN_PASSES or time.monotonic() - start + last / 2 < args.seconds:
            began = time.monotonic()
            untraced = run_pass(args.workload, args.seed, k, False, deadline)
            runs.append(untraced)
            if args.trace:
                traced = run_pass(args.workload, args.seed, k, True, deadline)
                runs.append(traced)
                pairs.append((untraced, traced))
            k += 1
            last = time.monotonic() - began
            if time.monotonic() + last > deadline:
                break  # another pass would not end in time
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    errors = [e for p in runs for e in p["errors"]]
    for e in errors[:10]:
        print(f"perfbench: {args.workload}: failed op: {e}", file=sys.stderr)
    untraced_runs = runs[0::2] if args.trace else runs
    e2e, note = end_to_end(untraced_runs)
    print(f"workload={args.workload} seed={args.seed} passes={k} trace={args.trace} "
          f"ops={sum(p['ops'] for p in untraced_runs)} {note}")
    print("  per pass ops/s: " + " ".join(f"{p['ops'] / p['wall_s']:.4g}" for p in untraced_runs)
          + "; host slowdown: " + " ".join(f"{p['host_slowdown']:.3g}" for p in untraced_runs))
    for name, unit in END_TO_END.items():
        print(f"  {name:<24} {e2e[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<24} {failed / attempted if attempted else 0:>14.6g} "
          f"({failed} of {attempted} ops attempted)")
    if args.trace:
        metrics = per_layer(pairs)
        units = per_layer_units()
        print("  per layer, from spans around the benchmark's calls into each module;")
        print("  a call's time lands on the module called, including the work it triggers:")
        for name, value in metrics.items():
            print(f"  {name:<24} {value:>14.6g} {units[name]}")
        metrics_out = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    else:
        metrics_out = {name: {"value": e2e[name], "unit": u} for name, u in END_TO_END.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

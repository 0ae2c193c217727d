"""One benchmark pass in a fresh interpreter; run.py starts one per pass.

usage: worker.py WORKLOAD SEED TRACED SPAWN_TIME SPANS_PATH

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux), so set-up time
runs from the spawn to the first timed op.  It covers interpreter start,
`import utrees.cli` plus `build_parser()`, which every CLI call pays, and
seeded input generation.  Interval times are reported twice: as measured,
and scaled to the reference host speed (`Recorder.scaled_interval_ms`),
which the metrics use.  The pass's result is the last line of stdout, as
JSON.
"""

import json
import resource
import statistics
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, traced, spawned, spans_path = argv
    from utrees.cli import build_parser

    build_parser()
    import recorder
    import workloads

    make_inputs, run, check = workloads.WORKLOADS[workload]
    inp = make_inputs(int(seed), False)
    rec = recorder.Recorder(traced == "1")
    setup_s = time.monotonic() - float(spawned)

    out = run(inp, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bad = check(inp, out)
    for reason in list(bad.values())[:5]:
        rec.errors.append(reason)
    never_ran = sum(1 for key in bad if not isinstance(key, int))
    result = {
        "setup_s": setup_s,
        "wall_s": rec.wall_s,
        "ops": rec.ops,
        "attempted": rec.attempted + never_ran,
        "failed": rec.failed + len(bad),
        "errors": rec.errors,
        "peak_rss_mb": peak_rss_mb,
        "host_slowdown": statistics.median(rec.ref_ms) / recorder.REF_MS,
        "interval_ms": rec.scaled_interval_ms(),
        "raw_interval_ms": rec.interval_ms,
        "interval_is_op": rec.interval_is_op,
    }
    if rec.spans is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fields = ("name", "start", "end", "op", "parent", "rss_growth_kb", "work")
            for span in rec.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
        result["layers"] = recorder.layer_metrics(rec.spans, rec.wall_s, rec.counters)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

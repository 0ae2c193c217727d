"""Op timing and layer spans for one benchmark pass.

The benchmark measures utrees from outside.  Every call it makes into the
package goes through `Recorder.call`, named `<layer>.<function>` after the
utrees module it enters, and every op or preparation step is a timed
interval opened with `Recorder.op` or `Recorder.prep`.  Only these intervals
make up the timed phase: bookkeeping and output checks between them are not
timed.

With tracing on, each call leaves a span in memory
`[name, start, end, op, parent, rss_growth_kb, work]`:

* `op` is the id of the op the call belongs to, or -1 for a preparation
  call; `parent` is the request the op serves (a tree or request index), so
  all steps of one request share it.
* `rss_growth_kb` is the growth of the process's peak RSS during the call.
* `work` is a per-call count chosen by the workload (vertices passed in,
  table terms produced, bytes written, ...).

A call's time lands on the module that was called: `shaped_count` includes
the inclusion-exclusion and `hang_count` work it triggers, `free_trees`
includes `free_code`, `fingerprint` includes the U-table DP.

Host speed.  A shared host, such as the 2-vCPU one the baseline was
measured on, switches between a fast and a slow level about 1.5x apart, for
stretches of one second to minutes, and a slow stretch can cover a whole
run.  So between intervals, at most every
REF_EVERY_S, the recorder times a fixed pure-Python chunk (`host_ref_ms`),
outside the timed phase.  `scaled_interval_ms` gives each interval's time
as it would read on a host where the chunk takes REF_MS: the interval's
wall time times REF_MS over the least chunk time sampled around it.
"""

from __future__ import annotations

import bisect
import resource
from time import perf_counter

LAYERS = (
    "generate",
    "trees",
    "partitions",
    "situations",
    "shapecount",
    "embedding",
    "io",
    "census",
)

# Derived per-layer metrics: name -> (kind, span names it reads, unit).
# "busy" sums span durations, "work" sums the spans' work counts, "calls"
# counts spans, "mean" divides summed work by the span count.
DERIVED = {
    "generate.trees": ("work", ("generate.free_trees",), "count"),
    "partitions.dp_s": ("busy", ("partitions.u_polynomial",), "s"),
    "partitions.table_terms": ("work", ("partitions.u_polynomial",), "count"),
    "partitions.eval_s": (
        "busy",
        ("partitions.q_chromatic", "partitions.q_dichromate", "partitions.potts_dichromate"),
        "s",
    ),
    "shapecount.queries": ("calls", ("shapecount.shaped_count",), "count"),
    "shapecount.nonzero": ("mean", ("shapecount.shaped_count",), "ratio"),
    "situations.classes": ("work", ("situations.hanging_classes",), "count"),
    "situations.table_entries": ("work", ("situations.build_containment_table",), "count"),
    "trees.vertices": ("work", ("trees.free_code", "trees.shapes", "trees.render_rooted"), "count"),
    "embedding.encode_s": ("busy", ("embedding.good_encode",), "s"),
    "embedding.decode_s": ("busy", ("embedding.good_decode",), "s"),
    "embedding.check_good_s": ("busy", ("embedding.check_good",), "s"),
    "embedding.weight_bits": ("work", ("embedding.good_encode",), "count"),
    "io.json_bytes": ("work", ("io.to_json",), "count"),
}

# Counters a workload sets itself, from results that no single call returns.
COUNTERS = {"census.fingerprints": "count", "census.collisions": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.rss_growth_mb"] = "MB"
    for name, (_, _, unit) in DERIVED.items():
        units[name] = unit
    units.update(COUNTERS)
    units["tracing_overhead"] = "ratio"
    return units


# Best time of the reference chunk on the fast level of a 2-vCPU Intel Xeon
# host at 2.0 GHz under Python 3.11.7, where the baseline was measured.
REF_MS = 0.134
REF_EVERY_S = 0.02
# an interval's host speed is the least of this many samples on each side
REF_WINDOW = 2


def host_ref_ms() -> float:
    """Best of three runs of a fixed pure-Python loop, in ms."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(2000):
            x += i * i % 7
        best = min(best, perf_counter() - start)
    return best * 1e3


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Interval:
    """One timed op or preparation step; failures inside it are recorded."""

    __slots__ = ("rec", "is_op", "parent", "ok", "op_id", "_start", "_first_span")

    def __init__(self, rec: "Recorder", parent: int, is_op: bool):
        self.rec = rec
        self.parent = parent
        self.is_op = is_op
        self.ok = True
        self.op_id = -1

    def __enter__(self) -> "Interval":
        rec = self.rec
        rec.parent = self.parent
        if rec.spans is not None:
            self._first_span = len(rec.spans)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self._start
        rec = self.rec
        rec.wall_s += elapsed
        rec.interval_ms.append(elapsed * 1e3)
        rec.interval_is_op.append(self.is_op)
        if self.is_op:
            self.op_id = rec.ops
            rec.ops += 1
        elif exc_type is not None:
            rec.extra_attempts += 1  # a failed preparation step counts as an op
        if rec.spans is not None:
            for span in rec.spans[self._first_span:]:
                span[3] = self.op_id
        rec.sample_host()
        if exc_type is None:
            return False
        if not issubclass(exc_type, Exception):
            return False
        # a failed step is recorded and the run goes on with the next request
        self.ok = False
        rec.fail(f"{exc_type.__name__}: {exc}")
        return True


class Recorder:
    """Collects interval times, timed-phase wall time, failures and spans."""

    def __init__(self, traced: bool):
        self.spans: list[list] | None = [] if traced else None
        self.interval_ms: list[float] = []
        self.interval_is_op: list[bool] = []
        self.wall_s = 0.0
        self.ops = 0
        self.failed = 0
        self.extra_attempts = 0
        self.errors: list[str] = []
        self.counters: dict[str, int] = {}
        self.parent = -1
        # (intervals done when sampled, host_ref_ms())
        self.ref_at: list[int] = []
        self.ref_ms: list[float] = []
        self._last_ref = float("-inf")

    def op(self, parent: int) -> Interval:
        """Time one op, serving request `parent`."""
        return Interval(self, parent, True)

    def prep(self, parent: int) -> Interval:
        """Time a preparation step: in the timed phase, but not an op."""
        return Interval(self, parent, False)

    def sample_host(self) -> None:
        """Time the reference chunk if REF_EVERY_S has gone by since the last."""
        if perf_counter() - self._last_ref < REF_EVERY_S:
            return
        self.ref_ms.append(host_ref_ms())
        self.ref_at.append(len(self.interval_ms))
        self._last_ref = perf_counter()

    def scaled_interval_ms(self) -> list[float]:
        """Each interval's time scaled to a host where the chunk takes REF_MS.

        The last REF_WINDOW chunks sampled before interval i ended and the
        first REF_WINDOW after it set the host speed for i.
        """
        out = []
        for i, ms in enumerate(self.interval_ms):
            j = bisect.bisect_left(self.ref_at, i + 1)
            local = min(self.ref_ms[max(0, j - REF_WINDOW):j + REF_WINDOW])
            out.append(ms * REF_MS / local)
        return out

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def skip(self, steps: int, reason: str) -> None:
        """Count ops that could not run because an earlier step failed."""
        self.extra_attempts += steps
        for _ in range(steps):
            self.fail(reason)

    @property
    def attempted(self) -> int:
        return self.ops + self.extra_attempts

    def call(self, name: str, fn, *args, work=None):
        """Call fn(*args); with tracing on, record a span named `name`.

        `work(result, *args)` gives the span's work count.
        """
        if self.spans is None:
            return fn(*args)
        span = [name, 0.0, 0.0, -1, self.parent, 0, 0]
        rss = _maxrss_kb()
        span[1] = perf_counter()
        try:
            out = fn(*args)
        finally:
            span[2] = perf_counter()
            span[5] = _maxrss_kb() - rss
            self.spans.append(span)
        if work is not None:
            span[6] = work(out, *args)
        return out


def layer_metrics(spans: list[list], wall_s: float, counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, derived from its spans."""
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    rss_kb = {layer: 0 for layer in LAYERS}
    by_name: dict[str, list[float]] = {}
    for name, start, end, _op, _parent, growth, work in spans:
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        busy[layer] += end - start
        rss_kb[layer] += growth
        agg = by_name.setdefault(name, [0, 0.0, 0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += work
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.share"] = busy[layer] / wall_s if wall_s else 0.0
        out[f"{layer}.rss_growth_mb"] = rss_kb[layer] / 1024
    for metric, (kind, names, _unit) in DERIVED.items():
        n_calls = sum(by_name.get(n, (0, 0.0, 0))[0] for n in names)
        if kind == "calls":
            out[metric] = n_calls
        elif kind == "busy":
            out[metric] = sum(by_name.get(n, (0, 0.0, 0))[1] for n in names)
        else:
            total = sum(by_name.get(n, (0, 0.0, 0))[2] for n in names)
            out[metric] = total if kind == "work" else (total / n_calls if n_calls else 0.0)
    for metric in COUNTERS:
        out[metric] = counters.get(metric, 0)
    return out

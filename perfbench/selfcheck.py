"""Self-check of the benchmark: clean reduced passes, and wrong answers caught.

usage: python3 perfbench/selfcheck.py

For each workload, a reduced-size pass (traced, in this process) must run
with no failed op.  Then the same pass runs again with one utrees function
swapped for a version whose first call returns a wrong answer, and again
with one whose first call raises: each must be counted as the failed ops
listed below, never as passed.  Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import recorder  # noqa: E402
import workloads  # noqa: E402
from utrees.partitions import ExpressionCounts  # noqa: E402
from utrees.trees import WeightedTree  # noqa: E402


def _wrong_table(u):
    counts = dict(u.counts)
    first = next(iter(counts))
    counts[first] += 1
    return ExpressionCounts(u.n, u.total_weight, u.z_exponent, counts)


def _wrong_fingerprint(text):
    head, *lines = text.splitlines()
    expr, count = lines[-1].split(": ")
    lines[-1] = f"{expr}: {int(count) + 1}"
    return "\n".join([head, *lines]) + "\n"


def _path_like(t):
    """A tree on t's vertices and weights that is not isomorphic to t
    unless t is itself a path."""
    edges = tuple((i, i + 1) for i in range(t.n - 1))
    return WeightedTree(t.n, edges, t.weights)


# workload -> [(name in workloads, corrupts the first call's result, ops
# that must then count as failed)].  A wrong table also changes the digest
# of the pass's tables, which fails all four table requests of the pass.
WRONG = {
    "census": [("fingerprint", _wrong_fingerprint, 1)],
    "upoly": [("u_polynomial", _wrong_table, 4), ("q_chromatic", lambda v: v + 1, 1)],
    "shaped": [("shaped_count", lambda v: v + 1, 1)],
    "embed": [("good_decode", _path_like, 1), ("render_rooted", lambda s: s + "(1)", 1)],
}
RAISING = {
    "census": "fingerprint",
    "upoly": "q_dichromate",
    "shaped": "shaped_count",
    "embed": "free_code",
}


def _first_call(fn, change):
    state = {"calls": 0}

    def wrapped(*args):
        state["calls"] += 1
        out = fn(*args)
        return change(out) if state["calls"] == 1 else out

    return wrapped


def _raise_first(fn):
    state = {"calls": 0}

    def wrapped(*args):
        state["calls"] += 1
        if state["calls"] == 1:
            raise RuntimeError("injected failure")
        return fn(*args)

    return wrapped


def reduced_pass(name: str, patches: dict) -> tuple[int, int, dict]:
    """(attempted, failed, per-layer metrics) of one reduced pass."""
    saved = {attr: getattr(workloads, attr) for attr in patches}
    for attr, make in patches.items():
        setattr(workloads, attr, make(saved[attr]))
    try:
        make_inputs, run, check = workloads.WORKLOADS[name]
        inp = make_inputs(0, True)
        rec = recorder.Recorder(traced=True)
        bad = check(inp, run(inp, rec))
    finally:
        for attr, fn in saved.items():
            setattr(workloads, attr, fn)
    never_ran = sum(1 for key in bad if not isinstance(key, int))
    layers = recorder.layer_metrics(rec.spans, rec.wall_s, rec.counters)
    return rec.attempted + never_ran, rec.failed + len(bad), layers


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        attempted, failed, layers = reduced_pass(name, {})
        busiest = max(recorder.LAYERS, key=lambda layer: layers[f"{layer}.share"])
        print(f"{name}: clean reduced pass, {attempted} ops, {failed} failed, busiest layer {busiest}")
        if failed or not attempted:
            problems.append(f"{name}: clean pass had {failed} failed of {attempted}")
        for attr, change, want in WRONG[name]:
            _, failed, _ = reduced_pass(name, {attr: lambda fn, c=change: _first_call(fn, c)})
            print(f"{name}: wrong first result of {attr}: {failed} failed")
            if failed != want:
                problems.append(f"{name}: a wrong {attr} result gave {failed} failed ops, not {want}")
        attr = RAISING[name]
        _, failed, _ = reduced_pass(name, {attr: _raise_first})
        print(f"{name}: first call of {attr} raises: {failed} failed")
        if failed != 1:
            problems.append(f"{name}: a raising {attr} gave {failed} failed ops, not 1")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: ok" if not problems else "selfcheck: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded inputs, timed ops, output checks.

Each workload has three functions:

* `inputs(seed, reduced)` builds the pass's inputs from the seed alone,
  before the timed phase, so every pass of a run repeats the same inputs;
* `run(inp, rec)` makes the timed calls into utrees through the recorder and
  returns what the checks need;
* `check(inp, out)` returns `{key: reason}` for every wrong answer.  An int
  key is the id of the op that gave it; any other key is an op that never
  ran, such as a tree the generator left out.

Cheap checks that call nothing in utrees run between ops.  Checks that do
call utrees (colouring routes, direct enumeration, isomorphism) run after
the timed phase, so they can neither warm nor grow the caches it measures.
Outputs are reduced to what the checks need as soon as an op returns, so
the benchmark holds no reference that keeps a cached table alive.
"""

from __future__ import annotations

import hashlib
import random
import re

from utrees.census import fingerprint
from utrees.embedding import check_good, good_decode, good_encode
from utrees.generate import (
    free_trees,
    random_encodable_tree,
    random_relabeling,
    random_weighted_tree,
)
from utrees.io import TreeDocument, parse_documents
from utrees.partitions import (
    count_shaped_partitions,
    potts_dichromate,
    q_chromatic,
    q_dichromate,
    q_integer,
    u_polynomial,
)
from utrees.shapecount import shaped_count
from utrees.situations import build_containment_table, hanging_classes
from utrees.trees import free_code, isomorphic, render_rooted, shapes

# Free trees on n vertices, n = 0..12 (OEIS A000055).
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


# Every workload but census is a fixed population of tree classes, drawn
# once from the workload's corpus seed; --seed picks the vertex labelling of
# each tree.  Costs hang on a few heavy requests (about one shaped query in
# a thousand takes 0.45 s of inclusion-exclusion; n=16 tables differ 2x in
# cost by shape), so populations drawn per seed moved a run's figures by
# 8-25% between seeds.
def _corpus(workload: str) -> random.Random:
    return random.Random(f"{workload}:corpus")


def _labelled(trees, workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [random_relabeling(t, rng) for t in trees]


# work counts for spans: each takes (result, *call args)
def _vertices(_out, t, *_):
    return t.n


def _length(out, *_):
    return len(out)


def _terms(table, *_):
    return len(table.counts)


def _is_tree(t, *_):
    return 0 if t is None else 1


def _nonzero(count, *_):
    return 1 if count else 0


def _table_entries(tbl, *_):
    return len(tbl.tree_counts) + len(tbl.class_counts)


def _weight_bits(g, *_):
    return sum(w.bit_length() for w in g.t_prime.weights)


# ---------------------------------------------------------------- U-tables


def table_summary(n: int, weights, items) -> tuple[int, int, int, int]:
    """Sums that identities fix for every tree's expression-count table.

    `items` yields (parts, count).  Returns (sum of counts, count of the
    one-part expression, count of the all-singleton expression, sum of
    count * (n - number of parts)).
    """
    whole = (sum(weights),)
    singletons = tuple(sorted(weights, reverse=True))
    total = one = single = edges = 0
    for parts, count in items:
        total += count
        edges += count * (n - len(parts))
        if parts == whole:
            one = count
        if parts == singletons:
            single = count
    return total, one, single, edges


def table_summary_errors(n: int, summary) -> str | None:
    # 2^(n-1) edge subsets, each edge kept in exactly half of them
    want = (1 << (n - 1), 1, 1, (n - 1) * (1 << (n - 1)) // 2)
    if tuple(summary) != want:
        return f"table sums {tuple(summary)} != {want} for n={n}"
    return None


def parse_table_text(text: str):
    """(parts, count) pairs of a canonical U-table text."""
    lines = text.splitlines()
    for line in lines[1:]:
        expr, count = line.split(": ")
        yield tuple(int(p) for p in expr.split(",")), int(count)


# ------------------------------------------------------------------ census


def census_inputs(seed: int, reduced: bool) -> dict:
    # The corpus is every free tree up to n_max; the seed does not change it.
    return {"n_max": 8 if reduced else 12}


def census_run(inp: dict, rec) -> dict:
    trees, prints, op_ids = [], [], []
    for n in range(1, inp["n_max"] + 1):
        walk = free_trees(n)  # a generator: the walk runs inside next()
        while True:
            t = fp = None
            with rec.op(len(trees)) as op:
                t = rec.call("generate.free_trees", next, walk, None, work=_is_tree)
                if t is None:
                    op.is_op = False  # the walk's tail after the last tree
                else:
                    fp = rec.call("census.fingerprint", fingerprint, t)
            if t is None:
                break
            trees.append(t)
            prints.append(fp if op.ok else None)
            op_ids.append(op.op_id)
    # collision check, as run_census does: group by fingerprint, compare codes
    collisions = []
    with rec.prep(-1):
        groups: dict[str, list[int]] = {}
        for i, fp in enumerate(prints):
            if fp is not None:
                groups.setdefault(fp, []).append(i)
        for members in groups.values():
            seen: dict = {}
            for i in members:
                code = rec.call("trees.free_code", free_code, trees[i], work=_vertices)
                for other_code, other in seen.items():
                    if other_code != code:
                        collisions.append((other, i))
                seen.setdefault(code, i)
    rec.counters["census.fingerprints"] = len(groups)
    rec.counters["census.collisions"] = len(collisions)
    return {
        "sizes": [t.n for t in trees],
        "weights": [t.weights for t in trees],
        "prints": prints,
        "op_ids": op_ids,
        "collisions": collisions,
    }


def census_check(inp: dict, out: dict) -> dict:
    bad: dict = {}
    sizes, op_ids = out["sizes"], out["op_ids"]
    for i, fp in enumerate(out["prints"]):
        if fp is None:
            continue  # the op raised; already counted
        n = sizes[i]
        if set(out["weights"][i]) != {1} or not fp.startswith(f"n={n} w={n} z=0\n"):
            bad[op_ids[i]] = f"fingerprint header or weights wrong for n={n}"
            continue
        err = table_summary_errors(n, table_summary(n, (1,) * n, parse_table_text(fp)))
        if err:
            bad[op_ids[i]] = err
    for n in range(1, inp["n_max"] + 1):
        at_n = [i for i, size in enumerate(sizes) if size == n]
        if len(at_n) != A000055[n]:
            reason = f"{len(at_n)} free trees at n={n}, expected {A000055[n]}"
            for i in at_n:
                bad.setdefault(op_ids[i], reason)
            for k in range(len(at_n), A000055[n]):
                bad[("missing", n, k)] = reason
    for a, b in out["collisions"]:
        bad[op_ids[a]] = bad[op_ids[b]] = "fingerprint collision"
    return bad


# ------------------------------------------------------------------- upoly

# Evaluator requests: M, B and Br at k = y = 2, q = r = 2 and x = 1 (x = 0
# would skip almost every edge subset).
EVALUATORS = ("M", "B", "Br")


def _evaluator(kind: str):
    """(span name, function, arguments after the tree) of an evaluator."""
    if kind == "M":
        return "partitions.q_chromatic", q_chromatic, (2, 2, "subsets")
    if kind == "B":
        return "partitions.q_dichromate", q_dichromate, (1, 2, 2)
    return "partitions.potts_dichromate", potts_dichromate, (1, 2, 2, 2, "subsets")


# sha256 of the canonical texts of all table requests of a pass, recorded
# from the unmodified library.  The texts do not depend on the labelling,
# so one digest per pass size covers every seed.
UPOLY_DIGESTS = {
    "full": "7bc31f56d1eb9cbe6aead45a01b7b6f2bfe2bd43bcaccf1279f19a1ae0c4554b",
    "reduced": "5ca0c464f71fe9222e99adf2873782f8bc40a39d1db6b4d47da1619e76fef229",
}


def upoly_inputs(seed: int, reduced: bool) -> dict:
    # Sizes are stratified, not drawn: a table's DP cost grows about 7x from
    # n=13 to n=16 and an evaluator's 2^(n-1) loop about 4x from n=10 to
    # n=12.  Tables and evaluator requests alternate.
    corpus = _corpus("upoly")
    tables = [n for n in range(13, 17) for _ in range(1 if reduced else 13)]
    evals = [(kind, n) for kind in EVALUATORS for n in (10, 11, 12)
             for _ in range(1 if reduced else 6)]
    corpus.shuffle(tables)
    corpus.shuffle(evals)
    seen = set()

    def fresh(n: int, bound: int):
        while True:
            t = random_weighted_tree(n, bound, corpus)
            if (t.edges, t.weights) not in seen:
                seen.add((t.edges, t.weights))
                return t

    kinds, trees = [], []
    for i in range(max(len(tables), len(evals))):
        if i < len(tables):
            kinds.append("table")
            trees.append(fresh(tables[i], 5))
        if i < len(evals):
            kinds.append(evals[i][0])
            trees.append(fresh(evals[i][1], 4))
    requests = list(zip(kinds, _labelled(trees, "upoly", seed)))
    return {"requests": requests, "reduced": reduced}


def upoly_run(inp: dict, rec) -> dict:
    evaluators = {kind: _evaluator(kind) for kind in EVALUATORS}
    digest = hashlib.sha256()
    tables, values = [], []
    complete = True
    for i, (kind, t) in enumerate(inp["requests"]):
        if kind == "table":
            with rec.op(i) as op:
                table = rec.call("partitions.u_polynomial", u_polynomial, t, work=_terms)
                text = rec.call("partitions.canonical_text", table.canonical_text)
            if op.ok:
                digest.update(text.encode())
                items = ((e.parts, c) for e, c in table.counts.items())
                tables.append((op.op_id, t.n, table_summary(t.n, t.weights, items)))
            else:
                complete = False
        else:
            name, fn, args = evaluators[kind]
            with rec.op(i) as op:
                value = rec.call(name, fn, t, *args)
            if op.ok:
                values.append((op.op_id, kind, t, value))
    # with a table missing, the digest cannot be compared; that op already failed
    return {"tables": tables, "values": values, "digest": digest.hexdigest() if complete else None}


def _b_from_table(t) -> int:
    """q_dichromate(t, x=1, y=2, q=2) as a sum over the U-table: a table
    entry E stands for edge subsets of size n - len(E)."""
    total = 0
    for e, count in u_polynomial(t).counts.items():
        term = count
        for p in e.parts:
            term *= q_integer(2, 2**p)
        total += term
    return total


def upoly_check(inp: dict, out: dict) -> dict:
    bad: dict = {}
    for op_id, n, summary in out["tables"]:
        err = table_summary_errors(n, summary)
        if err:
            bad[op_id] = err
    want = UPOLY_DIGESTS["reduced" if inp["reduced"] else "full"]
    if out["digest"] not in (None, want):
        for op_id, _, _ in out["tables"]:
            bad.setdefault(op_id, "canonical texts differ from the recorded digest")
    for op_id, kind, t, value in out["values"]:
        if kind == "M":
            ref = q_chromatic(t, 2, 2, "colourings")
        elif kind == "Br":
            ref = potts_dichromate(t, 1, 2, 2, 2, "colourings")
        else:
            ref = _b_from_table(t)
        if value != ref:
            bad[op_id] = f"{kind} = {value}, reference route gives {ref}"
    return bad


# ------------------------------------------------------------------ shaped

# Queries whose j-side has more parts than this can reach the table route's
# documented cap of four situation components (MAX_COMPONENTS) and be
# refused; they are left out so that no op fails.  Fixed here rather than
# read from utrees, so the workload does not change when the cap does.
SHAPED_SIDE_PARTS = 4


# The classes are criterion 6's corpus: 100 random trees with 2..7 vertices
# and weights <= 3, drawn with that test's own seed, after the unit-weight
# free trees with 2..6 vertices.  The eleven unit trees with 7 vertices are
# left out: each adds one 0.4 s inclusion-exclusion query, 4.4 s together,
# and a run needs short passes to repeat each op often enough.
SHAPED_CORPUS_SEED = 105


def shaped_inputs(seed: int, reduced: bool) -> dict:
    corpus = random.Random(SHAPED_CORPUS_SEED)
    top = 5 if reduced else 7
    trees = [t for n in range(2, top) for t in free_trees(n)]
    for _ in range(4 if reduced else 100):
        trees.append(random_weighted_tree(corpus.randint(2, top), 3, corpus))
    return {"trees": _labelled(trees, "shaped", seed)}


def shaped_run(inp: dict, rec) -> dict:
    queries = []
    for ti, t in enumerate(inp["trees"]):
        with rec.prep(ti) as prep:
            classes = rec.call("situations.hanging_classes", hanging_classes, t, work=_length)
            tbl = rec.call(
                "situations.build_containment_table", build_containment_table, t, classes,
                work=_table_entries,
            )
            table = rec.call("partitions.u_polynomial", u_polynomial, t, work=_terms)
        if not prep.ok:
            continue
        w = t.total_weight
        for j in range(1, (w + 1) // 2 + 1):
            for e in table.counts:
                if w - j not in e.parts or len(e.parts) - 1 > SHAPED_SIDE_PARTS:
                    continue
                with rec.op(ti) as op:
                    got = rec.call(
                        "shapecount.shaped_count", shaped_count, t, j, e, tbl, work=_nonzero
                    )
                if op.ok:
                    queries.append((op.op_id, ti, j, e, got))
    return {"queries": queries}


def shaped_check(inp: dict, out: dict) -> dict:
    bad: dict = {}
    trees = inp["trees"]
    for op_id, ti, j, e, got in out["queries"]:
        want = count_shaped_partitions(trees[ti], j, e)
        if got != want:
            bad[op_id] = f"shaped_count = {got}, enumeration gives {want}"
    return bad


# ------------------------------------------------------------------- embed

EMBED_BATCH = 10


def embed_inputs(seed: int, reduced: bool) -> dict:
    # every size from 8 to 48 twice: the hanging-subtree work grows
    # quadratically with n
    corpus = _corpus("embed")
    sizes = list(range(8, 17)) if reduced else list(range(8, 49)) * 2
    corpus.shuffle(sizes)
    trees = [random_encodable_tree(n, corpus) for n in sizes]
    return {"trees": _labelled(trees, "embed", seed)}


def _shape_count(t) -> int:
    """Edge sides with 2..n-2 vertices, counted without utrees."""
    adj: dict[int, list[int]] = {v: [] for v in range(t.n)}
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent, order, stack = {0: -1}, [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    size = dict.fromkeys(range(t.n), 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return sum(
        (2 <= size[v] <= t.n - 2) + (2 <= t.n - size[v] <= t.n - 2) for v in order[1:]
    )


_NUMBER = re.compile(r"\d+")


def _code_ok(code, t) -> bool:
    # a canonical code lists (weight, child count) per vertex in preorder
    flat = code.code
    return sorted(flat[0::2]) == sorted(t.weights) and sum(flat[1::2]) == t.n - 1


def embed_run(inp: dict, rec) -> dict:
    bad: dict = {}
    decoded = []
    batch: list[tuple[int, int, object]] = []  # (tree, encode op, encoded tree)

    def check_batch():
        report = None
        with rec.prep(batch[0][0]):
            report = rec.call("embedding.check_good", check_good, [tp for *_, tp in batch])
        if report is None or not report.ok:
            for _, op_id, _ in batch:
                bad[op_id] = "encoded batch is not a good set"
        batch.clear()

    for ti, t in enumerate(inp["trees"]):
        with rec.op(ti) as step:
            g = rec.call("embedding.good_encode", good_encode, t, work=_weight_bits)
        if not step.ok:
            rec.skip(4, "encode failed")
            continue
        batch.append((ti, step.op_id, g.t_prime))
        with rec.op(ti) as step:
            doc = rec.call("io.from_tree", TreeDocument.from_tree, g.t_prime, g.root)
            text = rec.call("io.to_json", doc.to_json, work=_length)
            docs = rec.call("io.parse_documents", parse_documents, text)
            emb = rec.call("io.embedding", docs[0].embedding, g.origin_n)
        if not step.ok:
            rec.skip(3, "json round trip failed")
        else:
            if len(docs) != 1 or emb != g:
                bad[step.op_id] = "json round trip changed the embedding"
            tp = emb.t_prime
            with rec.op(ti) as step:
                code = rec.call("trees.free_code", free_code, tp, work=_vertices)
            if step.ok and not _code_ok(code, tp):
                bad[step.op_id] = "canonical code does not list the tree's vertices"
            with rec.op(ti) as step:
                sides = rec.call("trees.shapes", shapes, tp, work=_vertices)
                texts = [
                    rec.call("trees.render_rooted", render_rooted, h.component, work=_vertices)
                    for h in sides
                ]
            if step.ok and (
                len(texts) != _shape_count(tp)
                or any(
                    sum(map(int, _NUMBER.findall(s))) != h.component.weight
                    for h, s in zip(sides, texts)
                )
            ):
                bad[step.op_id] = "shapes or their renderings are wrong"
            with rec.op(ti) as step:
                back = rec.call("embedding.good_decode", good_decode, emb)
            if step.ok:
                decoded.append((step.op_id, ti, back))
        if len(batch) == EMBED_BATCH:
            check_batch()
    if batch:
        check_batch()
    return {"bad": bad, "decoded": decoded}


def embed_check(inp: dict, out: dict) -> dict:
    bad = dict(out["bad"])
    trees = inp["trees"]
    for op_id, ti, back in out["decoded"]:
        if not isomorphic(back, trees[ti]):
            bad[op_id] = "decoded tree is not isomorphic to the source"
    return bad


WORKLOADS = {
    "census": (census_inputs, census_run, census_check),
    "upoly": (upoly_inputs, upoly_run, upoly_check),
    "shaped": (shaped_inputs, shaped_run, shaped_check),
    "embed": (embed_inputs, embed_run, embed_check),
}

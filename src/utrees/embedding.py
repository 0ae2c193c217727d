"""Injective embedding of weighted trees into the leaf-decorated family.

The encoder grafts a two-leaf star onto every leaf of the input tree, then
assigns each original vertex a binary code built bottom-up: a vertex's code
is a zero, the codes of its already-coded neighbours in decreasing order, a
one, and its own weight in exactly n bits.  Code values become the new
weights; the last uncoded vertex r absorbs the total instead.  The decoder
inverts all of it from the weighted tree alone.

Two storage details make the encoding lossless while keeping every leaf and
every neighbour of a leaf at weight one:

* a leaf of weight w >= 2 contributes the entry 01<w> (instead of the bare
  01) to the code of its unique neighbour, while its own stored weight stays
  one;
* weights of leaves adjacent to r, which no code can carry, are packed into
  high bits of r's weight above everything the base formula can reach.

Both refinements are no-ops on trees whose leaves all weigh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import MalformedEmbeddingError, TreeInputError
from .trees import CanonicalCode, ClassTable, SideIndex, WeightedTree, _trusted_tree, free_code


@dataclass(frozen=True)
class BitCode:
    """A 0/1 vector stored as (integer value, bit length).

    Codes are ordered by the integer they represent; leading zeros only
    matter for concatenation, never for comparisons.
    """

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0 or self.value < 0 or self.value.bit_length() > self.length:
            raise TreeInputError(f"invalid bit code ({self.value}, {self.length})")

    def concat(self, other: "BitCode") -> "BitCode":
        return BitCode(self.value << other.length | other.value, self.length + other.length)

    @property
    def leading_zeros(self) -> int:
        return self.length - self.value.bit_length()

    def bits(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""


_BIT0 = BitCode(0, 1)
_BIT1 = BitCode(1, 1)


def _concat(parts: list[BitCode]) -> BitCode:
    """The parts one after another, shifted together in one pass; only the
    result is built (and checked) as a BitCode."""
    value = length = 0
    for p in parts:
        value = value << p.length | p.value
        length += p.length
    return BitCode(value, length)


def _sort_key(c: BitCode):
    return (c.value, c.length)


def _leaf_code(weight: int, n: int) -> BitCode:
    if weight == 1:
        return _BIT0.concat(_BIT1)
    return _concat([_BIT0, _BIT1, BitCode(weight, n)])


def _vertex_code(weight: int, entries: list[BitCode], n: int) -> BitCode:
    ordered = sorted(entries, key=_sort_key, reverse=True)
    return _concat([_BIT0, *ordered, _BIT1, BitCode(weight, n)])


@dataclass(frozen=True)
class GoodEmbedding:
    """Encoder output: the decorated tree, its root r, and the source size."""

    t_prime: WeightedTree
    root: int
    origin_n: int


def _coding_run(t: WeightedTree):
    """Assign codes to all vertices but one; returns (codes, order, r).

    Leaves are coded first, in id order.  Then, step by step, the uncoded
    vertex with one uncoded neighbour and the smallest (code value, id) is
    coded, until some uncoded vertex has no uncoded neighbour left: that
    vertex is r.  A vertex's code is fixed once only one of its neighbours
    is open, so each code is built once and waits in a heap.
    """
    n = t.n
    adj = t.adjacency
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    codes: dict[int, BitCode] = {h: _leaf_code(t.weights[h], n) for h in leaves}
    order = sorted(leaves)
    # open_nbrs[v]: how many neighbours of an uncoded vertex are uncoded
    open_nbrs = [sum(u not in codes for u in adj[v]) for v in range(n)]
    heap = []

    def push(v):
        code = _vertex_code(t.weights[v], [codes[u] for u in adj[v] if u in codes], n)
        heappush(heap, (code.value, v, code))

    for v in range(n):
        if v not in codes:
            if not open_nbrs[v]:
                return codes, order, v
            if open_nbrs[v] == 1:
                push(v)
    while True:
        # the uncoded set is a subtree with >= 2 vertices, so it has ends
        _, x, code = heappop(heap)
        codes[x] = code
        order.append(x)
        y = next(u for u in adj[x] if u not in codes)
        open_nbrs[y] -= 1
        if not open_nbrs[y]:
            return codes, order, y
        if open_nbrs[y] == 1:
            push(y)


def good_encode(t: WeightedTree) -> GoodEmbedding:
    """Embed t into the decorated family; invertible up to isomorphism."""
    n = t.n
    if n < 3:
        raise TreeInputError("encoding needs at least 3 vertices")
    cap = 2**n
    for w in t.weights:
        if w >= cap:
            raise TreeInputError(f"weight {w} does not fit in {n} bits")
    codes, _, r = _coding_run(t)

    leaves = sorted(v for v in range(n) if t.degree(v) == 1)
    edges = list(t.edges)
    total = n
    for h in leaves:
        edges.append((h, total))
        edges.append((h, total + 1))
        total += 2
    weights = [0] * total
    for v in range(n, total):
        weights[v] = 1
    for v in range(n):
        if v == r:
            continue
        weights[v] = 1 if t.degree(v) == 1 else codes[v].value

    base = t.weights[r] + sum(weights[v] for v in range(total) if v != r)
    heavy = sorted(
        (t.weights[h] for h in leaves if r in t.adjacency[h] and t.weights[h] >= 2),
        reverse=True,
    )
    sidecar = 0
    for i, w in enumerate(heavy):
        sidecar |= (w - 1) << (i * n)
    shift = (cap + base - t.weights[r]).bit_length()
    weights[r] = base + (sidecar << shift)

    # t's edges are normalised, and each new edge runs from a leaf to a new,
    # larger id
    return GoodEmbedding(_trusted_tree(total, tuple(edges), tuple(weights)), r, n)


def _induced_tree_vertices(tp: WeightedTree):
    leaves = frozenset(v for v in range(tp.n) if tp.degree(v) == 1)
    core = [v for v in range(tp.n) if v not in leaves]
    return leaves, core


def good_decode(g: GoodEmbedding) -> WeightedTree:
    """Recover the source tree of a valid embedding."""
    tp = g.t_prime
    star_leaves, core = _induced_tree_vertices(tp)
    if len(core) < 3:
        raise MalformedEmbeddingError("core tree has fewer than 3 vertices")
    n = len(core)
    if g.origin_n != n:
        raise MalformedEmbeddingError(f"origin_n={g.origin_n} but core has {n} vertices")
    cap = 2**n
    core_set = set(core)
    core_adj = {v: [u for u in tp.adjacency[v] if u in core_set] for v in core}

    for v in star_leaves:
        if tp.weights[v] != 1:
            raise MalformedEmbeddingError(f"leaf {v} has weight {tp.weights[v]} != 1")
    star_count = {v: sum(1 for u in tp.adjacency[v] if u in star_leaves) for v in core}
    for v in core:
        is_core_leaf = len(core_adj[v]) == 1
        if star_count[v] != (2 if is_core_leaf else 0):
            raise MalformedEmbeddingError(f"vertex {v} has a malformed star pattern")
        if star_count[v] and tp.weights[v] != 1:
            raise MalformedEmbeddingError(f"leaf-adjacent vertex {v} must weigh 1")

    top = max(tp.weights)
    heavy = [v for v in range(tp.n) if tp.weights[v] == top]
    if len(heavy) != 1:
        raise MalformedEmbeddingError("maximum-weight vertex is not unique")
    r = heavy[0]
    if r != g.root:
        raise MalformedEmbeddingError("recorded root is not the maximum-weight vertex")

    rest = sum(tp.weights) - tp.weights[r]
    shift = (cap + rest).bit_length()
    sidecar = tp.weights[r] >> shift
    w_r = tp.weights[r] - (sidecar << shift) - rest
    if not 1 <= w_r < cap:
        raise MalformedEmbeddingError("root weight does not decode to the valid range")

    # orient the core tree away from r
    parent: dict[int, int] = {r: -1}
    topo = [r]
    stack = [r]
    while stack:
        v = stack.pop()
        for u in core_adj[v]:
            if u not in parent:
                parent[u] = v
                topo.append(u)
                stack.append(u)
    if len(topo) != n:
        raise MalformedEmbeddingError("core graph is not connected")
    children: dict[int, list[int]] = {v: [] for v in core}
    for v in topo[1:]:
        children[parent[v]].append(v)

    recovered: dict[int, int] = {r: w_r}
    built: dict[int, BitCode] = {}
    for v in reversed(topo):
        kids = children[v]
        leaf_kids = sorted(u for u in kids if len(core_adj[u]) == 1)
        inner_kids = [u for u in kids if len(core_adj[u]) != 1]
        if v != r and len(core_adj[v]) == 1:
            if tp.weights[v] != 1:
                raise MalformedEmbeddingError(f"core leaf {v} must have stored weight 1")
            continue  # resolved by its parent below
        if v == r:
            leaf_ws = []
            side = sidecar
            while side:
                chunk = side & (cap - 1)
                side >>= n
                if not 1 <= chunk < cap - 1:
                    raise MalformedEmbeddingError("sidecar chunk out of range")
                leaf_ws.append(chunk + 1)
            if len(leaf_ws) > len(leaf_kids):
                raise MalformedEmbeddingError("sidecar lists more leaves than r has")
            if any(leaf_ws[i] < leaf_ws[i + 1] for i in range(len(leaf_ws) - 1)):
                raise MalformedEmbeddingError("sidecar chunks are not sorted")
            leaf_ws += [1] * (len(leaf_kids) - len(leaf_ws))
            for u, w in zip(leaf_kids, leaf_ws):
                recovered[u] = w
            continue

        value = tp.weights[v]
        w_v = value & (cap - 1)
        if w_v < 1:
            raise MalformedEmbeddingError(f"vertex {v} decodes to weight 0")
        recovered[v] = w_v
        inner_entries = sorted((built[u] for u in inner_kids), key=_sort_key, reverse=True)
        lead = 1 + (inner_entries[0].leading_zeros if inner_entries else 1)
        length = lead + value.bit_length()
        m = len(leaf_kids)
        fixed = 1 + sum(e.length for e in inner_entries) + 1 + n
        leaf_section = length - fixed
        k, remainder = divmod(leaf_section - 2 * m, n)
        if remainder or not 0 <= k <= m:
            raise MalformedEmbeddingError(f"code of vertex {v} has no consistent parse")
        bits = format(value, f"0{length}b")
        pos = 1 + sum(e.length for e in inner_entries)
        leaf_ws = []
        for _ in range(k):
            entry = bits[pos : pos + n + 2]
            if entry[:2] != "01":
                raise MalformedEmbeddingError(f"code of vertex {v}: bad leaf entry")
            leaf_ws.append(int(entry[2:], 2))
            pos += n + 2
        leaf_ws_sorted = sorted(leaf_ws, reverse=True)
        if leaf_ws != leaf_ws_sorted or any(w < 2 for w in leaf_ws):
            raise MalformedEmbeddingError(f"code of vertex {v}: bad leaf weights")
        leaf_ws += [1] * (m - k)
        entries = inner_entries + [_leaf_code(w, n) for w in leaf_ws]
        code = _vertex_code(w_v, entries, n)
        if (code.value, code.length) != (value, length):
            raise MalformedEmbeddingError(f"code of vertex {v} fails re-assembly")
        built[v] = code
        for u, w in zip(leaf_kids, leaf_ws):
            recovered[u] = w

    # the core is a subtree of t', connected above, and numbering it in id
    # order keeps each edge's ends in order; every weight was checked positive
    index = {v: i for i, v in enumerate(sorted(core))}
    edges = tuple(
        (index[u], index[v]) for u, v in tp.edges if u in core_set and v in core_set
    )
    weights = tuple(recovered[v] for v in sorted(core))
    return _trusted_tree(n, edges, weights)


@dataclass(frozen=True)
class TreePropertyReport:
    index: int
    leaf_structure_ok: bool
    leaf_structure_witness: int | None
    leaf_weight_ok: bool
    leaf_weight_witness: int | None


@dataclass(frozen=True)
class ShapeMatchViolation:
    tree_a: int
    tree_b: int
    weights: tuple[int, ...]
    code_a: CanonicalCode
    code_b: CanonicalCode


@dataclass(frozen=True)
class GoodSetReport:
    trees: tuple[TreePropertyReport, ...]
    shape_violation: ShapeMatchViolation | None

    @property
    def ok(self) -> bool:
        return self.shape_violation is None and all(
            t.leaf_structure_ok and t.leaf_weight_ok for t in self.trees
        )


def check_good(trees) -> GoodSetReport:
    """Verify the three good-set properties on a finite set of trees.

    Property one: a vertex adjacent to a leaf has at most one non-leaf
    neighbour.  Property two: leaves and their neighbours weigh one.
    Property three: across the whole set, two shapes with equal vertex-weight
    multisets are rooted-isomorphic whenever at least one of them weighs at
    most half of its own tree.

    Property three is decided on one class table for the whole set: every
    tree's sides are indexed on it, so equal class ids are
    rooted-isomorphic across trees (AHU).  Equal weight multisets need
    equal vertex count and weight, so shapes are grouped by those two;
    multisets are read only in a group that holds two classes or more, and
    codes only for the witness.
    """
    reports = []
    classes = ClassTable()
    indexes = []
    # per class of the set: its first shape and its first restricted one, as
    # (tree, place among the tree's shapes, the shape's (edge, root, id))
    first: dict[int, tuple] = {}
    first_restricted: dict[int, tuple] = {}
    groups: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(trees):
        adj = t.adjacency
        leaves = [v for v in range(t.n) if len(adj[v]) == 1]
        near = {adj[h][0] for h in leaves}
        s_wit = min((v for v in near if sum(len(adj[u]) > 1 for u in adj[v]) > 1), default=None)
        w_wit = min((v for v in near.union(leaves) if t.weights[v] != 1), default=None)
        reports.append(TreePropertyReport(i, s_wit is None, s_wit, w_wit is None, w_wit))

        idx = SideIndex(t, classes)
        indexes.append(idx)
        total = t.total_weight
        for place, side in enumerate(idx.shapes()):
            c = side[2]
            if c not in first:
                first[c] = (i, place, side)
                groups.setdefault((classes.size[c], classes.weight[c]), []).append(c)
            if c not in first_restricted and 2 * classes.weight[c] <= total:
                first_restricted[c] = (i, place, side)

    # a bucket of equal weight multisets with two classes or more is a
    # violation when it holds a restricted shape: the witness is its first
    # restricted shape and the first shape of another class; the bucket
    # with the least multiset is reported
    found = None
    for group in groups.values():
        if len(group) < 2:
            continue
        buckets: dict[tuple[int, ...], list[int]] = {}
        for c in group:
            i, _, (e, r, _) = first[c]
            weights = indexes[i].tree.weights
            multiset = tuple(sorted([weights[v] for v in indexes[i].vertices(e, r)]))
            buckets.setdefault(multiset, []).append(c)
        for key, bucket in buckets.items():
            restricted = [(first_restricted[c], c) for c in bucket if c in first_restricted]
            if len(bucket) < 2 or not restricted or (found and found[0] <= key):
                continue
            a, ca = min(restricted)
            b = min(first[c] for c in bucket if c != ca)
            found = (key, a, b)
    if found is None:
        return GoodSetReport(tuple(reports), None)
    key, (ta, _, (_, _, ca)), (tb, _, (_, _, cb)) = found
    code_a, code_b = classes.code(ca), classes.code(cb)
    return GoodSetReport(tuple(reports), ShapeMatchViolation(ta, tb, key, code_a, code_b))


def embedding_isomorphic(a: GoodEmbedding, b: GoodEmbedding) -> bool:
    return free_code(a.t_prime) == free_code(b.t_prime)

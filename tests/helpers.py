"""Shared test utilities: tiny constructors and brute-force oracles."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Iterator

from hypothesis import strategies as st

from utrees.embedding import (
    BitCode,
    GoodSetReport,
    ShapeMatchViolation,
    TreePropertyReport,
    _leaf_code,
    _vertex_code,
)
from utrees.errors import InternalInconsistencyError, TreeInputError
from utrees.generate import free_trees, random_weighted_tree
from utrees.partitions import (
    Expression,
    ExpressionCounts,
    _subset_components,
    _u_table_dp,
    sub_multisets,
)
from utrees.situations import (
    WHOLE_TREE,
    ContainmentTable,
    Situation,
    _weight_bound_ok,
    build_containment_table,
    enumerate_situations,
    occurrences_by_inclusion_exclusion,
)
from utrees.trees import (
    CanonicalCode,
    Edge,
    RootedWeightedTree,
    SideIndex,
    WeightedTree,
    hanging_subtrees,
    rooted_code,
)


@dataclass(frozen=True)
class ConnectedPartition:
    """Disjoint vertex sets covering V(T), each inducing a connected subtree."""

    parts: tuple[frozenset[int], ...]


def characteristic(p: ConnectedPartition, t: WeightedTree) -> Expression:
    """Multiset of part weights of a connected partition of t."""
    seen: set[int] = set()
    weights = []
    for part in p.parts:
        if not part:
            raise TreeInputError("empty part")
        if part & seen:
            raise TreeInputError("parts are not disjoint")
        seen |= part
        if not part <= set(range(t.n)):
            raise TreeInputError("part contains unknown vertex ids")
        start = next(iter(part))
        reach = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in t.adjacency[v]:
                if u in part and u not in reach:
                    reach.add(u)
                    stack.append(u)
        if reach != part:
            raise TreeInputError(f"part {sorted(part)} is not connected")
        weights.append(sum(t.weights[v] for v in part))
    if len(seen) != t.n:
        raise TreeInputError("parts do not cover the vertex set")
    return Expression.of(weights)


def path(*weights: int) -> WeightedTree:
    n = len(weights)
    return WeightedTree(n, tuple((i, i + 1) for i in range(n - 1)), tuple(weights))


def star(center_weight: int, *leaf_weights: int) -> WeightedTree:
    n = 1 + len(leaf_weights)
    return WeightedTree(
        n, tuple((0, i) for i in range(1, n)), (center_weight,) + tuple(leaf_weights)
    )


def rooted(t: WeightedTree, root: int = 0) -> RootedWeightedTree:
    return RootedWeightedTree(t, root)


def situation_corpus(rng) -> list[WeightedTree]:
    """The free trees with 2..7 vertices and 100 weighted trees (n <= 7,
    weights <= 3) drawn from rng: criteria 5 and 6 use seed 105."""
    trees = [t for n in range(2, 8) for t in free_trees(n)]
    for _ in range(100):
        trees.append(random_weighted_tree(rng.randint(2, 7), 3, rng))
    return trees


def spider(legs: int, leg_length: int) -> WeightedTree:
    """Unit-weight spider: a center with `legs` paths of `leg_length` vertices."""
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return WeightedTree(nxt, tuple(edges), (1,) * nxt)


@st.composite
def weighted_trees(draw, max_n=8, max_weight=3):
    n = draw(st.integers(2, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    weights = tuple(draw(st.integers(1, max_weight)) for _ in range(n))
    return WeightedTree(n, tuple((p, v) for v, p in enumerate(parents, 1)), weights)


def coding_run_by_scan(t: WeightedTree) -> tuple[dict[int, BitCode], list[int], int]:
    """The encoder's coding run by rescanning every vertex each step: the
    quadratic route that embedding._coding_run replaces.  Returns
    (codes, order, r) as it does."""
    n = t.n
    leaves = [v for v in range(n) if t.degree(v) == 1]
    codes = {h: _leaf_code(t.weights[h], n) for h in leaves}
    order = sorted(leaves)
    while True:
        uncoded = [v for v in range(n) if v not in codes]
        finished = [v for v in uncoded if all(u in codes for u in t.adjacency[v])]
        if finished:
            return codes, order, min(finished)
        frontier = []
        for v in uncoded:
            open_nbrs = [u for u in t.adjacency[v] if u not in codes]
            if len(open_nbrs) == 1:
                entries = [codes[u] for u in t.adjacency[v] if u in codes]
                frontier.append((_vertex_code(t.weights[v], entries, n), v))
        # the uncoded set is a subtree with >= 2 vertices, so it has ends
        assert frontier
        code, x = min(frontier, key=lambda item: (item[0].value, item[1]))
        codes[x] = code
        order.append(x)


@st.composite
def encodable_trees(draw, min_n=3, max_n=40):
    """Trees in the encoder's domain: random, unit-weight, or with every
    weight drawn up to the n-bit cap."""
    n = draw(st.integers(min_n, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    cap = draw(st.sampled_from([1, 3, 2**n - 1]))
    weights = tuple(draw(st.integers(1, cap)) for _ in range(n))
    return WeightedTree(n, tuple((p, v) for v, p in enumerate(parents, 1)), weights)


def rooted_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical level sequences of rooted trees on n vertices.

    Classic successor scan: start from the path (1,2,...,n); to advance, find
    the last entry above 2, then repeat the block that starts at its most
    recent possible parent.  Each sequence is the preorder depth list of one
    rooted tree, every rooted tree appears exactly once.
    """
    if n == 1:
        yield (1,)
        return
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = max((i for i in range(n) if seq[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def level_sequence_to_tree(seq: tuple[int, ...]) -> WeightedTree:
    """Unit-weight tree for a preorder level sequence (root has level 1)."""
    n = len(seq)
    edges = []
    stack: list[int] = []
    for v, level in enumerate(seq):
        del stack[level - 1 :]
        if stack:
            edges.append((stack[-1], v))
        stack.append(v)
    return WeightedTree(n, tuple(edges), (1,) * n)


def brute_isomorphic(a: WeightedTree, b: WeightedTree) -> bool:
    """Weight-preserving isomorphism via exhaustive bijection search."""
    if a.n != b.n or sorted(a.weights) != sorted(b.weights):
        return False
    deg_a = sorted(a.degree(v) for v in range(a.n))
    deg_b = sorted(b.degree(v) for v in range(b.n))
    if deg_a != deg_b:
        return False
    eb = set(b.edges)
    for perm in permutations(range(a.n)):
        if any(a.weights[v] != b.weights[perm[v]] for v in range(a.n)):
            continue
        if all(tuple(sorted((perm[u], perm[v]))) in eb for u, v in a.edges):
            return True
    return False


def brute_rooted_isomorphic(a: RootedWeightedTree, b: RootedWeightedTree) -> bool:
    """Root-preserving variant of brute_isomorphic."""
    ta, tb = a.tree, b.tree
    if ta.n != tb.n or sorted(ta.weights) != sorted(tb.weights):
        return False
    eb = set(tb.edges)
    for perm in permutations(range(ta.n)):
        if perm[a.root] != b.root:
            continue
        if any(ta.weights[v] != tb.weights[perm[v]] for v in range(ta.n)):
            continue
        if all(tuple(sorted((perm[u], perm[v]))) in eb for u, v in ta.edges):
            return True
    return False


def brute_sides(t: WeightedTree) -> list[tuple[Edge, int, frozenset[int]]]:
    """(edge, root, vertex set) of both sides of every edge, each side found
    by its own breadth-first search that never crosses its edge."""
    out = []
    for u, v in t.edges:
        for root, other in ((u, v), (v, u)):
            seen = {root}
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for y in t.adjacency[x]:
                    if y not in seen and (x, y) != (root, other):
                        seen.add(y)
                        queue.append(y)
            out.append(((u, v), root, frozenset(seen)))
    return out


def cut_side(t: WeightedTree, vertices: frozenset[int], root: int) -> RootedWeightedTree:
    """The subtree induced on `vertices`, renumbered 0..m-1 in host order."""
    idx = {v: i for i, v in enumerate(sorted(vertices))}
    edges = tuple((idx[a], idx[b]) for a, b in t.edges if a in idx and b in idx)
    weights = tuple(t.weights[v] for v in sorted(vertices))
    return RootedWeightedTree(WeightedTree(len(idx), edges, weights), idx[root])


def brute_hang_count(s: RootedWeightedTree, h: RootedWeightedTree) -> int:
    """Copies of s hanging below h's root, plus one when s is h itself,
    deciding every match by bijection search instead of canonical codes."""
    total = 1 if brute_rooted_isomorphic(s, h) else 0
    for _, root, vertices in brute_sides(h.tree):
        if h.root not in vertices and brute_rooted_isomorphic(s, cut_side(h.tree, vertices, root)):
            total += 1
    return total


def shape_count(s: RootedWeightedTree, t: WeightedTree) -> int:
    """How many shapes of t are rooted-isomorphic to s."""
    idx = SideIndex(t)
    target = idx.classes.add(s)
    return sum(1 for _, _, c in idx.shapes() if c == target)


def hang_count(s: RootedWeightedTree, h: RootedWeightedTree) -> int:
    """Copies of s hanging below h's root, counting h itself when s == h.

    The hanging subtrees of h that avoid its root are exactly the downward
    subtrees of its non-root vertices; the root's own entry is the equality
    term.  Both are read off the index's `inside` counts of h's class.
    """
    idx = SideIndex(h.tree)
    host = idx.classes.add(h)
    return idx.classes.inside([host])[host][idx.classes.add(s)]


def check_good_by_buckets(trees) -> GoodSetReport:
    """check_good by a scan of every vertex and a bucket of every shape.

    Each shape's canonical code is built, and shapes are bucketed by the
    sorted weights of their codes.  In a bucket of two or more codes every
    entry has a partner with another code, so the witness is the first
    restricted entry and its first partner; the least violating bucket is
    reported.
    """
    trees = list(trees)
    reports = []
    for i, t in enumerate(trees):
        is_leaf = [t.degree(v) == 1 for v in range(t.n)]
        s_ok, s_wit = True, None
        w_ok, w_wit = True, None
        for v in range(t.n):
            near_leaf = any(is_leaf[u] for u in t.adjacency[v])
            if near_leaf:
                non_leaf = sum(1 for u in t.adjacency[v] if not is_leaf[u])
                if non_leaf > 1 and s_ok:
                    s_ok, s_wit = False, v
            if (is_leaf[v] or near_leaf) and t.weights[v] != 1 and w_ok:
                w_ok, w_wit = False, v
        reports.append(TreePropertyReport(i, s_ok, s_wit, w_ok, w_wit))

    buckets: dict[tuple[int, ...], list[tuple[int, CanonicalCode, bool]]] = {}
    for i, t in enumerate(trees):
        half = t.total_weight
        idx = SideIndex(t)
        for _, _, c in idx.shapes():
            code = idx.classes.code(c)
            key = tuple(sorted(code.code[0::2]))
            restricted = 2 * idx.classes.weight[c] <= half
            buckets.setdefault(key, []).append((i, code, restricted))
    for key in sorted(buckets):
        entries = buckets[key]
        a = next((e for e in entries if e[2]), None)
        if a is None:
            continue
        b = next((e for e in entries if e[1] != a[1]), None)
        if b is not None:
            violation = ShapeMatchViolation(a[0], b[0], key, a[1], b[1])
            return GoodSetReport(tuple(reports), violation)
    return GoodSetReport(tuple(reports), None)


def brute_subset_sum(t: WeightedTree, x: int, f) -> int:
    """Sum over all 2^(n-1) edge subsets A of x**|A| * prod of f(w(C)) over
    the components C of (V, A), one subset at a time."""
    total = 0
    for mask in range(1 << (t.n - 1)):
        term = x ** bin(mask).count("1")
        for comp in _subset_components(t, mask):
            term *= f(sum(t.weights[v] for v in comp))
        total += term
    return total


def table_evaluate(t: WeightedTree, x: int, f) -> int:
    """Sum over edge subsets A of x**|A| * prod of f(w(C)) over the components C,
    read from the U-table: an expression E with count(E) stands for count(E)
    edge subsets, each of size n - len(E) and with component weights E."""
    table = _u_table_dp(t)
    f_of = {p: f(p) for p in {p for parts in table for p in parts}}
    total = 0
    for parts, count in table.items():
        term = count * x ** (t.n - len(parts))
        if term:
            for p in parts:
                term *= f_of[p]
            total += term
    return total


def sorted_pairs_text(u: ExpressionCounts) -> str:
    """Canonical text rendered by sorting (parts, count) pairs and formatting
    every part anew."""
    lines = [f"n={u.n} w={u.total_weight} z={u.z_exponent}"]
    for parts, count in sorted(((e.parts, c) for e, c in u.counts.items()), reverse=True):
        lines.append(f"{','.join(map(str, parts))}: {count}")
    return "\n".join(lines) + "\n"


# The paper's oracles for occurrence counts, kept out of the package: direct
# enumeration, and its W1-W3 construction (forced-containment pairs, cycle
# contraction, transitive reduction) with the product recursion over the
# arborescence forest it leaves.  `occurrences_by_all_pair_sets` sums the
# latter over every pair set.
def _assert_nested_or_disjoint(a: frozenset[int], b: frozenset[int]):
    if not (a <= b or b <= a or not (a & b)):
        raise InternalInconsistencyError(
            "hanging subtrees below half weight must nest or be disjoint"
        )


def _complement_connected(t: WeightedTree, used: frozenset[int]) -> bool:
    rest = [v for v in range(t.n) if v not in used]
    if not rest:
        return False
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for u in t.adjacency[v]:
            if u not in used and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rest)


def occurrences_by_enumeration(t: WeightedTree, s: Situation) -> int:
    """Oracle count of ordered occurrences, by direct enumeration.

    Tuples of mutually disjoint hanging subtrees matching the components
    (so pairwise distinct, none containing another), with connected
    complement.  Slots are filled one at a time, each only with sides
    disjoint from those already chosen.  The below-half dichotomy (nested or
    disjoint) is asserted up front on every pair of candidates for two
    different slots.
    """
    if not _weight_bound_ok(s.total_weight, t.total_weight):
        raise TreeInputError("situation weight exceeds half of the tree weight")
    hangs = hanging_subtrees(t)
    candidates = [[h.vertices for h in hangs if rooted_code(h.component) == code] for code in s.codes]
    for first, second in combinations(candidates, 2):
        for a, b in product(first, second):
            _assert_nested_or_disjoint(a, b)
    total = 0
    stack = [(0, frozenset())]
    while stack:
        slot, used = stack.pop()
        if slot == len(candidates):
            total += _complement_connected(t, used)
            continue
        for side in candidates[slot]:
            if not side & used:
                stack.append((slot + 1, used | side))
    return total


def symmetry_factor(s: Situation) -> int:
    """Orderings of s's components that give the same occurrence."""
    return prod(factorial(s.codes.count(c)) for c in set(s.codes))


def occurring_by_enumeration(t: WeightedTree, j: int, tbl: ContainmentTable):
    """Oracle for `ContainmentTable.occurring_of`: (situation, m, symmetry
    factor) for every situation of weight j with a nonzero
    `occurrences_by_inclusion_exclusion` count, in enumeration order."""
    out = []
    for s in enumerate_situations(t, j):
        m = occurrences_by_inclusion_exclusion(t, s, tbl)
        if m:
            out.append((s, m, symmetry_factor(s)))
    return out


@dataclass(frozen=True)
class ContainmentForest:
    """Labeled digraph over component indices, as the W3 stage leaves it.

    Labels partition the component index set; all components sharing a label
    are isomorphic; the graph is an arborescence forest (acyclic, out-degree
    at most one).
    """

    labels: tuple[frozenset[int], ...]
    classes: tuple[CanonicalCode, ...]
    arcs: frozenset[tuple[int, int]]

    def validate(self, situation: Situation | None = None):
        seen: set[int] = set()
        for lab in self.labels:
            if not lab or lab & seen:
                raise InternalInconsistencyError("labels must partition the index set")
            seen |= lab
        if situation is not None:
            if seen != set(range(situation.size)):
                raise InternalInconsistencyError("labels must cover all components")
            for lab, cls in zip(self.labels, self.classes):
                if any(situation.codes[i] != cls for i in lab):
                    raise InternalInconsistencyError("label merges non-isomorphic components")
        for x, y in self.arcs:
            if not (0 <= x < len(self.labels) and 0 <= y < len(self.labels)) or x == y:
                raise InternalInconsistencyError("arc endpoints out of range")
        out: dict[int, int] = {}
        for x, y in self.arcs:
            if x in out:
                raise InternalInconsistencyError("out-degree above one in a containment forest")
            out[x] = y
        for x in range(len(self.labels)):
            cur, seen_path = x, set()
            while cur in out:
                if cur in seen_path:
                    raise InternalInconsistencyError("cycle in a containment forest")
                seen_path.add(cur)
                cur = out[cur]

    def canonical_key(self):
        order = sorted(range(len(self.labels)), key=lambda i: sorted(self.labels[i]))
        pos = {old: new for new, old in enumerate(order)}
        labs = tuple(tuple(sorted(self.labels[i])) for i in order)
        arcs = tuple(sorted((pos[x], pos[y]) for x, y in self.arcs))
        return labs, arcs


def _feasible_pairs(tbl: ContainmentTable, codes) -> tuple[tuple[int, int], ...]:
    """Ordered index pairs (i, j), i != j, whose class i sits inside class j."""
    ids = range(len(codes))
    return tuple(
        (i, j) for i in ids for j in ids if i != j and tbl.count(codes[i], codes[j]) > 0
    )


def build_containment_forest(
    f, s: Situation, feasible_pairs: frozenset[tuple[int, int]] | None = None
) -> ContainmentForest | None:
    """Run the four-stage pipeline for one pair set; None if it forces nothing.

    Starts from one node per component with the given arcs, saturates common
    sources by vertex-count comparison, contracts directed cycles, and strips
    transitive arcs.  Returns None (the empty intersection) when a required
    containment is impossible for the component classes.  `feasible_pairs`
    holds the ordered index pairs (i, j) whose class i can sit inside class j,
    as read from a containment table; without it they are read from the
    table of the components themselves, since class-in-class counts do not
    depend on the host tree.
    """
    t = s.size
    arcs = set(f)
    for i, j in arcs:
        if not (0 <= i < t and 0 <= j < t) or i == j:
            raise TreeInputError(f"bad index pair ({i}, {j})")
    if feasible_pairs is None:
        comps = s.components
        tbl = build_containment_table(comps[0].tree, comps)
        feasible_pairs = frozenset(_feasible_pairs(tbl, s.codes))
    if not arcs <= feasible_pairs:
        return None

    # W1: if (x,y) and (x,z) are arcs and y,z unrelated, the smaller side
    # must sit inside the larger; infeasible forced arcs kill the whole set.
    # A rooted code holds two ints per vertex, so code lengths order sizes.
    size = [len(c.code) for c in s.codes]
    changed = True
    while changed:
        changed = False
        for x in range(t):
            outs = [y for (a, y) in arcs if a == x]
            for y, z in combinations(outs, 2):
                if (y, z) in arcs or (z, y) in arcs:
                    continue
                for a, b in ((y, z), (z, y)):
                    if size[a] <= size[b]:
                        if (a, b) not in feasible_pairs:
                            return None
                        arcs.add((a, b))
                        changed = True

    # W2: contract directed cycles.  reach[i] is every index i reaches; a
    # group is led by its least member, so groups keep index order.
    reach = [{i} | {b for a, b in arcs if a == i} for i in range(t)]
    for k in range(t):
        for i in range(t):
            if k in reach[i]:
                reach[i] |= reach[k]
    lead = [min(j for j in reach[i] if i in reach[j]) for i in range(t)]
    leaders = sorted(set(lead))
    group = [leaders.index(g) for g in lead]

    # W3: transitive reduction of the condensation: an arc goes when a third
    # group lies between its ends
    def between(x: int, y: int) -> bool:
        lx, ly = leaders[x], leaders[y]
        return any(group[z] not in (x, y) and ly in reach[z] for z in reach[lx])

    merged = {(group[a], group[b]) for a, b in arcs if group[a] != group[b]}
    forest = ContainmentForest(
        tuple(frozenset(i for i in range(t) if lead[i] == g) for g in leaders),
        tuple(s.codes[g] for g in leaders),
        frozenset((x, y) for x, y in merged if not between(x, y)),
    )
    forest.validate(s)
    return forest


def count_forest_assignments(host, forest: ContainmentForest, tbl: ContainmentTable) -> int:
    """Tuples assigning a hanging subtree of the host to each forest node.

    Nodes with equal labels share one assignment; an arc (x, y) requires the
    subtree at x to sit inside the one at y.  The empty forest counts one.
    Host is a rooted component class, or WHOLE_TREE for the full input tree.
    """
    host_key = rooted_code(host) if isinstance(host, RootedWeightedTree) else host
    if host_key is not WHOLE_TREE and not isinstance(host_key, CanonicalCode):
        raise TreeInputError(f"bad host {host!r}")
    # each root's class is counted in the host, and the nodes right below it
    # are assigned inside that class, and so on
    classes = forest.classes
    parents = dict(forest.arcs)
    below: dict[int | None, list[int]] = {}
    for x in range(len(classes)):
        below.setdefault(parents.get(x), []).append(x)

    def count(nodes, host) -> int:
        total = 1
        for x in nodes:
            total *= tbl.count(classes[x], host) * count(below.get(x, ()), classes[x])
        return total

    return count(below.get(None, ()), host_key)


def pattern_key(s, feasible_pairs) -> tuple:
    """Everything of s that the forest pipeline reads, as small ints.

    The component count, the feasible ordered pairs, each component's rank
    among the distinct vertex counts (W1 only compares them), and for each
    component the first index with the same class (W2 and validation only
    test classes for equality).  Situations with one key have one compile.
    """
    # a rooted code holds two ints per vertex
    sizes = sorted({len(c.code) for c in s.codes})
    ranks = tuple(sizes.index(len(c.code)) for c in s.codes)
    first_equal = tuple(s.codes.index(code) for code in s.codes)
    return s.size, feasible_pairs, ranks, first_equal


def compile_terms_all_pair_sets(s, feasible_pairs) -> tuple[tuple[int, tuple, tuple], ...]:
    """The inclusion-exclusion compile with one forest per nonempty subset of
    `feasible_pairs` (as read by `_feasible_pairs` from one table), no
    symmetry used: (net coefficient, labels, arcs) per canonical forest key."""
    feasible = frozenset(feasible_pairs)
    net: dict = {}
    for size in range(1, len(feasible_pairs) + 1):
        sign = 1 if size % 2 == 1 else -1
        for f in combinations(feasible_pairs, size):
            forest = build_containment_forest(f, s, feasible)
            if forest is not None:
                key = forest.canonical_key()
                net[key] = net.get(key, 0) + sign
    return tuple((coef, labs, arcs) for (labs, arcs), coef in net.items() if coef)


# pattern key -> compile_terms_all_pair_sets; four components of one class
# build 4,095 forests, so each key is compiled once per test session
_ALL_PAIR_SETS_TERMS: dict = {}


def occurrences_by_all_pair_sets(s, tbl) -> int:
    """Ordered occurrences of s by inclusion-exclusion over every nonempty
    set of feasible ordered pairs: the product of the components' counts in
    the tree, less the signed count of tuples with each forced containment,
    each term evaluated by the forest pipeline and `count_forest_assignments`."""
    feasible = _feasible_pairs(tbl, s.codes)
    key = pattern_key(s, feasible)
    if key not in _ALL_PAIR_SETS_TERMS:
        _ALL_PAIR_SETS_TERMS[key] = compile_terms_all_pair_sets(s, feasible)
    total = 1
    for code in s.codes:
        total *= tbl.count(code, WHOLE_TREE)
    for coef, labs, arcs in _ALL_PAIR_SETS_TERMS[key]:
        forest = ContainmentForest(
            tuple(map(frozenset, labs)), tuple(s.codes[lab[0]] for lab in labs), frozenset(arcs)
        )
        total -= coef * count_forest_assignments(WHOLE_TREE, forest, tbl)
    return total


# The ways the j-side of an expression splits over a situation's components,
# counted by a sub-multiset search over the components' own U-tables: the
# oracle for the split tables that `nonshaped_count` reads.
def _remove_indices(items: tuple[int, ...], chosen: tuple[int, ...]) -> tuple[int, ...]:
    picked = set(chosen)
    return tuple(items[i] for i in range(len(items)) if i not in picked)


def _decomposition_sum(s: Situation, side: tuple[int, ...], tbl: ContainmentTable) -> int:
    """Sum over ordered splits of `side` across components of the partition
    counts inside each component."""

    weights = s.weights
    tables = [tbl.u_table(code) for code in s.codes]

    def rec(slot: int, remaining: tuple[int, ...]) -> int:
        if slot == len(weights):
            return 1 if not remaining else 0
        total = 0
        for chosen in sub_multisets(remaining, weights[slot]):
            part = Expression.of(remaining[i] for i in chosen)
            ways = tables[slot].get(part, 0)
            if ways:
                total += ways * rec(slot + 1, _remove_indices(remaining, chosen))
        return total

    return rec(0, side)

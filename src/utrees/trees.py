"""Vertex-weighted trees, canonical codes, and hanging-subtree machinery.

Everything here is a pure function of immutable values, so all of it is safe
to call concurrently.  Vertex ids are 0-based and carry no meaning: every
observable output (codes, counts) is invariant under relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import TreeInputError

Edge = tuple[int, int]


@dataclass(frozen=True)
class WeightedTree:
    """An undirected tree on vertices 0..n-1 with positive integer weights."""

    n: int
    edges: tuple[Edge, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or n < 1:
            raise TreeInputError(f"vertex count must be a positive int, got {n!r}")
        if len(self.weights) != n:
            raise TreeInputError(f"expected {n} weights, got {len(self.weights)}")
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise TreeInputError(f"weights must be positive ints, got {w!r}")
        if len(self.edges) != n - 1:
            raise TreeInputError(f"a tree on {n} vertices needs {n - 1} edges")
        norm = []
        for e in self.edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise TreeInputError(f"bad edge {e!r}")
            norm.append((u, v) if u < v else (v, u))
        if len(set(norm)) != len(norm):
            raise TreeInputError("duplicate edge")
        object.__setattr__(self, "edges", tuple(norm))
        # n-1 distinct edges + connectivity == tree
        seen = {0}
        stack = [0]
        adj = self.adjacency
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            raise TreeInputError("graph is not connected")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class RootedWeightedTree:
    """A WeightedTree with a distinguished root vertex."""

    tree: WeightedTree
    root: int

    def __post_init__(self):
        if not 0 <= self.root < self.tree.n:
            raise TreeInputError(f"root {self.root} out of range")

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def weight(self) -> int:
        return self.tree.total_weight


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Total-order key for (rooted) weighted-tree isomorphism classes.

    The code is a flat integer sequence compared lexicographically.  Two
    rooted trees get equal codes iff they are isomorphic by a root- and
    weight-preserving map; the free variant (see free_code) does the same for
    unrooted trees.
    """

    code: tuple[int, ...]

    def as_text(self) -> str:
        return ".".join(str(x) for x in self.code)


@dataclass(frozen=True)
class HangingSubtree:
    """One side of T - e, rooted at the endvertex of e it contains.

    `vertices` and `root` are in the host tree's ids; `component` is the same
    subtree relabeled to 0..m-1 so it is a valid standalone tree.
    """

    detach_edge: Edge
    root: int
    vertices: frozenset[int]
    component: RootedWeightedTree


def relabel(t: WeightedTree, perm: list[int] | tuple[int, ...]) -> WeightedTree:
    """Apply perm (perm[old] = new) to vertex ids."""
    if sorted(perm) != list(range(t.n)):
        raise TreeInputError("perm must be a permutation of 0..n-1")
    weights = [0] * t.n
    for old, new in enumerate(perm):
        weights[new] = t.weights[old]
    edges = tuple((perm[u], perm[v]) for u, v in t.edges)
    return WeightedTree(t.n, edges, tuple(weights))


def _rooted_parent_order(tree: WeightedTree, root: int):
    """DFS parent array plus a traversal order (parents before children)."""
    parent = [-2] * tree.n
    parent[root] = -1
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for u in tree.adjacency[v]:
            if parent[u] == -2:
                parent[u] = v
                order.append(u)
                stack.append(u)
    return parent, order


def subtree_codes(t: RootedWeightedTree) -> tuple[tuple[int, ...], ...]:
    """Flat code of every vertex's downward subtree, indexed by vertex id.

    A vertex contributes (weight, child count) followed by its child codes
    sorted in code order; the flattening is prefix-parseable, so two entries
    are equal exactly for isomorphic rooted weighted subtrees.
    """
    tree = t.tree
    parent, order = _rooted_parent_order(tree, t.root)
    children: list[list[int]] = [[] for _ in range(tree.n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    codes: list[tuple[int, ...]] = [()] * tree.n
    for v in reversed(order):
        flat = (tree.weights[v], len(children[v]))
        for c in sorted(codes[u] for u in children[v]):
            flat += c
        codes[v] = flat
    return tuple(codes)


@lru_cache(maxsize=None)
def rooted_code(t: RootedWeightedTree) -> CanonicalCode:
    """Canonical code of a rooted weighted tree: its root's subtree code."""
    return CanonicalCode(subtree_codes(t)[t.root])


def code_to_rooted_tree(code: CanonicalCode) -> RootedWeightedTree:
    """Materialize the representative tree of a rooted code (root id 0)."""
    seq = code.code
    weights: list[int] = []
    edges: list[Edge] = []
    # [vertex id, children still to read] for each vertex on the current path
    pending: list[list[int]] = []
    pos = 0
    while pos == 0 or pending:
        if pos + 2 > len(seq):
            raise TreeInputError("truncated canonical code")
        vid = len(weights)
        weights.append(seq[pos])
        if pending:
            edges.append((pending[-1][0], vid))
            pending[-1][1] -= 1
        pending.append([vid, seq[pos + 1]])
        pos += 2
        while pending and pending[-1][1] <= 0:
            pending.pop()
    if pos != len(seq):
        raise TreeInputError("trailing data in canonical code")
    return RootedWeightedTree(WeightedTree(len(weights), tuple(edges), tuple(weights)), 0)


def centroids(t: WeightedTree) -> list[int]:
    """The one or two vertices minimizing the largest component of T - v."""
    if t.n == 1:
        return [0]
    parent, order = _rooted_parent_order(t, 0)
    size = [1] * t.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    best, out = t.n + 1, []
    for v in order:
        heaviest = t.n - size[v]
        for u in t.adjacency[v]:
            if parent[u] == v:
                heaviest = max(heaviest, size[u])
        if heaviest < best:
            best, out = heaviest, [v]
        elif heaviest == best:
            out.append(v)
    return sorted(out)


@lru_cache(maxsize=None)
def free_code(t: WeightedTree) -> CanonicalCode:
    """Canonical code of an unrooted weighted tree.

    Roots at the vertex-count centroid(s) and keeps the smaller rooted code.
    """
    return min(rooted_code(RootedWeightedTree(t, c)) for c in centroids(t))


def rooted_isomorphic(a: RootedWeightedTree, b: RootedWeightedTree) -> bool:
    return rooted_code(a) == rooted_code(b)


def isomorphic(a: WeightedTree, b: WeightedTree) -> bool:
    return free_code(a) == free_code(b)


def _component_vertices(t: WeightedTree, start: int, banned_edge: Edge) -> frozenset[int]:
    bu, bv = banned_edge
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in t.adjacency[v]:
            if (v, u) in ((bu, bv), (bv, bu)):
                continue
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


def extract_rooted(t: WeightedTree, vertices: frozenset[int], root: int) -> RootedWeightedTree:
    """Relabel the induced subtree on `vertices` to ids 0..m-1."""
    idx = {v: i for i, v in enumerate(sorted(vertices))}
    edges = tuple(
        (idx[u], idx[v]) for u, v in t.edges if u in vertices and v in vertices
    )
    weights = tuple(t.weights[v] for v in sorted(vertices))
    return RootedWeightedTree(WeightedTree(len(vertices), edges, weights), idx[root])


@lru_cache(maxsize=None)
def hanging_subtrees(t: WeightedTree) -> tuple[HangingSubtree, ...]:
    """Both sides of every edge removal: exactly 2(n-1) entries for n >= 2."""
    out = []
    for e in t.edges:
        u, v = e
        side_u = _component_vertices(t, u, e)
        side_v = frozenset(range(t.n)) - side_u
        out.append(HangingSubtree(e, u, side_u, extract_rooted(t, side_u, u)))
        out.append(HangingSubtree(e, v, side_v, extract_rooted(t, side_v, v)))
    return tuple(out)


def shapes(t: WeightedTree) -> tuple[HangingSubtree, ...]:
    """Hanging subtrees with between 2 and n-2 vertices."""
    return tuple(
        h for h in hanging_subtrees(t) if 2 <= len(h.vertices) <= t.n - 2
    )


def shape_count(s: RootedWeightedTree, t: WeightedTree) -> int:
    """How many shapes of t are rooted-isomorphic to s."""
    target = rooted_code(s)
    return sum(1 for h in shapes(t) if rooted_code(h.component) == target)


def hang_count(s: RootedWeightedTree, h: RootedWeightedTree) -> int:
    """Copies of s hanging below h's root, counting h itself when s == h.

    The hanging subtrees of h that avoid its root are exactly the downward
    subtrees of its non-root vertices; the root's own entry is the equality
    term.
    """
    return subtree_codes(h).count(rooted_code(s).code)


def alpha_vector(t: WeightedTree) -> tuple[int, ...]:
    """Strictly increasing distinct weights of the shapes of t."""
    return tuple(sorted({h.component.weight for h in shapes(t)}))


def render_rooted(t: RootedWeightedTree) -> str:
    """Compact nested text for a rooted weighted tree, e.g. '1(1,2(1))'.

    Children print in code order, read straight off the canonical code.
    """
    code = rooted_code(t).code
    parts: list[str] = []
    # children still to print below each vertex on the current path
    left: list[int] = []
    for w, k in zip(code[::2], code[1::2]):
        parts.append(f"{w}(" if k else str(w))
        left.append(k)
        while len(left) > 1 and left[-1] == 0:
            left.pop()
            left[-1] -= 1
            parts.append(")" if left[-1] == 0 else ",")
    return "".join(parts)

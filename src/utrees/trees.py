"""Vertex-weighted trees, canonical codes, and the index of hanging subtrees.

Trees, codes and the functions on them are immutable values, and nothing is
memoised at module level: rooted classes are interned (AHU) on a ClassTable,
and the edge sides of one tree are indexed on a table by a SideIndex; each
lives as long as its caller keeps it.  One table can hold the classes of
many trees, so equal ids mean isomorphic across all of them.  A rooted
tree computes its canonical code once and keeps it, and a code its nested
text.  A table makes the codes of many classes, each with its text, in
one children-first walk.  A side representative is born with only what
its table knows: its code and text, weight and vertex count, so reading
any of them takes no walk; its tree is built from the code by the
preorder builder (valid by construction) on the first read of `.tree`,
and kept.  A hanging subtree holds its tree's index and reads its vertex
set off it only when asked, so `shapes` costs what it returns: one class
walk for all its sides, and a representative per class.  Vertex ids are
0-based and carry no meaning: every observable output (codes, counts) is
invariant under relabeling.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter

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
        # exact ints, as documents require: a bool equals 0 or 1 but prints
        # and fingerprints as False or True
        if type(n) is not int or n < 1:
            raise TreeInputError(f"vertex count must be a positive int, got {n!r}")
        if len(self.weights) != n:
            raise TreeInputError(f"expected {n} weights, got {len(self.weights)}")
        for w in self.weights:
            if type(w) is not int or w < 1:
                raise TreeInputError(f"weights must be positive ints, got {w!r}")
        if len(self.edges) != n - 1:
            raise TreeInputError(f"a tree on {n} vertices needs {n - 1} edges")
        norm = []
        for e in self.edges:
            u, v = e
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n) or u == v:
                raise TreeInputError(f"bad edge {e!r}")
            norm.append((u, v) if u < v else (v, u))
        if len(set(norm)) != len(norm):
            raise TreeInputError("duplicate edge")
        object.__setattr__(self, "edges", tuple(norm))
        # n-1 distinct edges + connectivity == tree.  When every vertex but 0
        # has exactly one smaller neighbour, stepping down reaches 0 from
        # anywhere, so the graph is connected without a search.
        if {v for _, v in norm} == set(range(1, n)):
            return
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

    @cached_property
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
        if type(self.root) is not int or not 0 <= self.root < self.tree.n:
            raise TreeInputError(f"root {self.root} out of range")

    def __getattr__(self, name):
        # called only for a missing attribute: a side representative holds
        # its code until something reads its tree, which is then built once
        if name == "tree" and "code" in vars(self):
            tree = vars(self)["tree"] = _preorder_tree(self.code.code)
            return tree
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @cached_property
    def n(self) -> int:
        return self.tree.n

    @cached_property
    def weight(self) -> int:
        return self.tree.total_weight

    @cached_property
    def code(self) -> CanonicalCode:
        """The canonical code (see rooted_code), walked once and kept; not a
        field, so equality and hashing ignore it.  A child's code is dropped
        once its parent's is built: the codes still waiting belong to
        disjoint subtrees, so together they hold at most 2n ints.
        """
        tree = self.tree
        parent, order = _rooted_parent_order(tree, self.root)
        waiting: list[list[tuple[int, ...]]] = [[] for _ in range(tree.n)]
        for v in reversed(order):
            kids = sorted(waiting[v])
            waiting[v].clear()
            flat = tuple(chain((tree.weights[v], len(kids)), *kids))
            if parent[v] >= 0:
                waiting[parent[v]].append(flat)
        return CanonicalCode(flat)


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

    @cached_property
    def text(self) -> str:
        """The nested text of render_code, walked off the flat code once and
        kept, unless the ClassTable that made the code gave it; not a field,
        so equality, order and hashing ignore it."""
        return _code_text(self.code)


# a composed code's flat sequence, and its text
_flat, _text = attrgetter("code"), attrgetter("text")


def _code_text(flat: tuple[int, ...]) -> str:
    """Nested text of a flat rooted code, read in one pass."""
    parts: list[str] = []
    # children still to print below each vertex on the current path
    left: list[int] = []
    for w, k in zip(flat[::2], flat[1::2]):
        parts.append(f"{w}(" if k else str(w))
        left.append(k)
        while len(left) > 1 and left[-1] == 0:
            left.pop()
            left[-1] -= 1
            parts.append(")" if left[-1] == 0 else ",")
    return "".join(parts)


@dataclass(frozen=True)
class HangingSubtree:
    """One side of T - e, rooted at the endvertex of e it contains.

    The constructor takes (detach_edge, root, component, index); `root` is
    in the host tree's ids.  `component` is the representative of the
    side's rooted class (see ClassTable.rep): a standalone tree rooted at 0,
    isomorphic to the side but not numbered like it, and the same object
    for every isomorphic side of one call.  It carries its class code, the
    code's text, its weight and its vertex count, so rooted_code,
    render_rooted, `.weight` and `.n` read them without a walk; its tree is
    built from the code on the first read of `.tree`.  `index` is the
    host's SideIndex, which the side holds so that `vertices` is read on
    demand.  Equality and hashing cover the edge, the root and the
    component; the repr leaves out the index and the vertices.
    """

    detach_edge: Edge
    root: int
    component: RootedWeightedTree
    index: SideIndex = field(compare=False, repr=False)

    @cached_property
    def vertices(self) -> frozenset[int]:
        """The side's host vertex ids, read off the index on the first
        access and kept."""
        return self.index.vertices(self.detach_edge, self.root)


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
    """DFS parent array plus the preorder, in which every subtree is a run."""
    parent = [-2] * tree.n
    parent[root] = -1
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        # reversed, so that children are visited in adjacency order
        for u in reversed(tree.adjacency[v]):
            if parent[u] == -2:
                parent[u] = v
                stack.append(u)
    return parent, order


def rooted_code(t: RootedWeightedTree) -> CanonicalCode:
    """Canonical code of a rooted weighted tree: its root's subtree code.

    A vertex contributes (weight, child count) followed by its child codes
    sorted in code order; the flattening is prefix-parseable, so two codes
    are equal exactly for isomorphic rooted weighted trees.  The tree walks
    for it at most once (RootedWeightedTree.code).
    """
    return t.code


def code_to_rooted_tree(code: CanonicalCode) -> RootedWeightedTree:
    """Materialize the representative tree of a rooted code (root id 0)."""
    return RootedWeightedTree(_preorder_tree(code.code), 0)


def _preorder_tree(seq: tuple[int, ...]) -> WeightedTree:
    """The tree whose vertices, numbered in preorder, list (weight, child
    count) in turn; a rooted code is such a sequence, with children sorted.

    The entries are checked here, and the parents come from a stack with
    one entry per child still owed, so every vertex but 0 hangs from a
    smaller one: the result is a tree by construction and skips the
    constructor's checks.
    """
    if not seq or len(seq) % 2:
        raise TreeInputError("truncated canonical code")
    if set(map(type, seq)) != {int}:
        bad = next(x for x in seq if type(x) is not int)
        raise TreeInputError(f"canonical code entries must be ints, got {bad!r}")
    weights, kids = tuple(seq[0::2]), seq[1::2]
    if min(weights) < 1:
        raise TreeInputError(f"weights must be positive ints, got {min(weights)!r}")
    if min(kids) < 0:
        raise TreeInputError(f"child counts must be non-negative, got {min(kids)!r}")
    n = len(weights)
    # n - 1 owed children in all is necessary; with it, the stack can only
    # run dry early, and the code then ends in a second tree
    owing = sum(kids)
    if owing != n - 1:
        raise TreeInputError(
            "truncated canonical code" if owing > n - 1 else "trailing data in canonical code"
        )
    owed = [0] * kids[0]
    parents: list[int] = []
    try:
        for v, k in enumerate(kids[1:], 1):
            parents.append(owed.pop())
            if k:
                owed += [v] * k
    except IndexError:
        raise TreeInputError("trailing data in canonical code") from None
    return _trusted_tree(n, tuple(zip(parents, range(1, n))), weights)


def _trusted_tree(n: int, edges: tuple[Edge, ...], weights: tuple[int, ...]) -> WeightedTree:
    """A WeightedTree from parts that make one by construction, with every
    edge already (u, v) with u < v, skipping the constructor's checks."""
    tree = object.__new__(WeightedTree)
    vars(tree).update(n=n, edges=edges, weights=weights)
    return tree


def _subtree_sizes(parent: list[int], order: list[int]) -> list[int]:
    """Vertex count of each vertex's subtree, from a parent array and preorder."""
    size = [1] * len(order)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return size


def _centroids_of(t: WeightedTree, parent: list[int], size: list[int]) -> list[int]:
    """centroids(t), from t's parent array and subtree sizes under vertex 0.

    Step from vertex 0 into the child side holding more than half the
    vertices while there is one; at the vertex where that stops, every
    component of T - v holds at most half, and a child side of exactly half
    holds the other centroid.
    """
    adj = t.adjacency
    v = 0
    while True:
        for u in adj[v]:
            if 2 * size[u] > t.n and parent[u] == v:
                v = u
                break
        else:
            break
    return sorted([v] + [u for u in adj[v] if parent[u] == v and 2 * size[u] == t.n])


def centroids(t: WeightedTree) -> list[int]:
    """The one or two vertices minimizing the largest component of T - v."""
    parent, order = _rooted_parent_order(t, 0)
    return _centroids_of(t, parent, _subtree_sizes(parent, order))


def free_code(t: WeightedTree) -> CanonicalCode:
    """Canonical code of an unrooted weighted tree.

    Roots at the vertex-count centroid(s) and keeps the smaller rooted code.
    """
    return min(rooted_code(RootedWeightedTree(t, c)) for c in centroids(t))


def isomorphic(a: WeightedTree, b: WeightedTree) -> bool:
    return free_code(a) == free_code(b)


class ClassTable:
    """Rooted classes of any number of trees, interned (AHU): a class id
    stands for the key (root weight, sorted child class ids), so two rooted
    trees share an id exactly when they are isomorphic (Aho, Hopcroft &
    Ullman 1974), and a class's children have smaller ids than it.  Per
    class, `keys`, `size` and `weight` hold the key, the vertex count and
    the weight, which the interning walks measure.  Codes, each born with
    its text, are made on request in one walk (see compose), and
    representatives on request (see rep); both are kept.
    """

    def __init__(self):
        self.keys: list[tuple[int, tuple[int, ...]]] = []
        self.size: list[int] = []
        self.weight: list[int] = []
        self._ids: dict[tuple[int, tuple[int, ...]], int] = {}
        self._codes: dict[int, CanonicalCode] = {}
        self._reps: dict[int, RootedWeightedTree] = {}

    def _intern(self, root_weight: int, kids: tuple[int, ...], size: int, weight: int) -> int:
        """Id of the class (root weight, sorted child ids); a new class
        records the vertex count and weight the caller's walk measured."""
        key = (root_weight, kids)
        cid = self._ids.get(key)
        if cid is None:
            cid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.size.append(size)
            self.weight.append(weight)
        return cid

    def _down_pass(self, tree: WeightedTree, root: int):
        """Parent array, preorder, and the class of the subtree below each
        vertex when the tree hangs from `root`.  Each subtree's vertex
        count and weight add up along the walk, children before parents."""
        parent, pre = _rooted_parent_order(tree, root)
        down = [0] * tree.n
        size = [1] * tree.n
        weight = list(tree.weights)
        below: list[list[int]] = [[] for _ in pre]
        for v in reversed(pre):
            down[v] = self._intern(tree.weights[v], tuple(sorted(below[v])), size[v], weight[v])
            p = parent[v]
            if p >= 0:
                below[p].append(down[v])
                size[p] += size[v]
                weight[p] += weight[v]
        return parent, pre, down

    def add(self, t: RootedWeightedTree) -> int:
        """Id of t's class, interning it and its subtrees when they are new,
        by the down pass from t's root (a representative builds its tree)."""
        return self._down_pass(t.tree, t.root)[2][t.root]

    def _below(self, ids, known=()) -> list[int]:
        """The given classes and every class under them, children first,
        leaving out the `known` ones and what lies only under those."""
        seen = set(ids)
        stack = list(seen)
        while stack:
            for k in self.keys[stack.pop()][1]:
                if k not in seen and k not in known:
                    seen.add(k)
                    stack.append(k)
        return sorted(seen)

    def compose(self, ids) -> list[CanonicalCode]:
        """Canonical codes of the classes in the sequence `ids`, in its
        order; each equals rooted_code of every tree of its class.  The
        missing ones, and those under them, are made in one children-first
        walk: a class lists its root weight and child count, then its
        children's codes in code order, and is born with its text (see
        render_code), its children's texts joined in that order."""
        codes = self._codes
        todo = {c for c in ids if c not in codes}
        if todo:
            for c in self._below(todo, codes):
                weight, kids = self.keys[c]
                subs = sorted([codes[k] for k in kids], key=_flat)
                code = codes[c] = CanonicalCode(tuple(chain((weight, len(kids)), *map(_flat, subs))))
                vars(code)["text"] = f"{weight}({','.join(map(_text, subs))})" if kids else str(weight)
        return [codes[c] for c in ids]

    def code(self, cid: int) -> CanonicalCode:
        """Canonical code of a class (see compose)."""
        code = self._codes.get(cid)
        return self.compose([cid])[0] if code is None else code

    def text(self, cid: int) -> str:
        """Nested text of a class (see render_code), born with its code."""
        return self.code(cid).text

    def rep(self, cid: int) -> RootedWeightedTree:
        """Representative tree of a class, rooted at 0.  It is born with
        what the table knows: the class code and its text (which only the
        table knows are canonical), the weight and the vertex count.  Its
        tree is built from the code on the first read of `.tree`."""
        if cid not in self._reps:
            rep = object.__new__(RootedWeightedTree)
            vars(rep).update(root=0, code=self.code(cid), n=self.size[cid], weight=self.weight[cid])
            self._reps[cid] = rep
        return self._reps[cid]

    def inside(self, hosts) -> dict[int, Counter]:
        """Per host class, how many of its vertices root a tree of each class.

        The host's own root counts, so every class lies inside itself once.
        Read off the child ids, children before parents.
        """
        done: dict[int, Counter] = {}
        for c in self._below(hosts):
            done[c] = Counter({c: 1})
            for k in self.keys[c][1]:
                done[c].update(done[k])
        return {h: done[h] for h in hosts}


class SideIndex:
    """Every edge side of one tree, its class interned on `classes`: the
    caller's table, so that the sides of several trees share ids, or a
    fresh one.  A down pass from vertex 0 interns the side below each
    vertex; an up pass, parents first, the side above it from its parent's
    other neighbours.  `sides` lists (edge, root, class id) for both sides
    of every edge, in the order of hanging_subtrees.
    """

    def __init__(self, tree: WeightedTree, classes: ClassTable | None = None):
        self.tree = tree
        self.classes = classes = ClassTable() if classes is None else classes
        parent, pre, down = classes._down_pass(tree, 0)
        self._parent, self._pre = parent, pre
        size, weight, intern = classes.size, classes.weight, classes._intern
        # _span[v]: where v's down side starts and ends in the preorder
        self._span = [(0, 0)] * tree.n
        for i, v in enumerate(pre):
            self._span[v] = (i, i + size[down[v]])
        kids: list[list[int]] = [[] for _ in pre]
        for v in pre[1:]:
            kids[parent[v]].append(v)
        # up[v]: the side of (parent[v], v) that holds the parent, rooted
        # there; it is the rest of the tree, so its vertex count and weight
        # are the tree's less those of the side below v
        n, total = tree.n, tree.total_weight
        up = [0] * n
        for p in pre:
            if not kids[p]:
                continue
            nbrs = sorted([down[c] for c in kids[p]] + ([up[p]] if p else []))
            made: dict[int, int] = {}
            for c in kids[p]:
                d = down[c]
                if d not in made:
                    i = bisect_left(nbrs, d)
                    others = tuple(nbrs[:i] + nbrs[i + 1 :])
                    made[d] = intern(tree.weights[p], others, n - size[d], total - weight[d])
                up[c] = made[d]
        sides = []
        for e in tree.edges:
            u, v = e
            if parent[v] == u:
                sides += ((e, u, up[v]), (e, v, down[v]))
            else:
                sides += ((e, u, down[u]), (e, v, up[u]))
        self.sides: tuple[tuple[Edge, int, int], ...] = tuple(sides)

    @cached_property
    def side_classes(self) -> tuple[list[int], list[int]]:
        """The ids of the side classes sorted by (weight, code), and their
        weights.  The sides are fixed once the index is built, so the list
        is too, whatever is interned on the table later."""
        weight, code = self.classes.weight, self.classes.code
        ids = sorted({c for _, _, c in self.sides}, key=lambda c: (weight[c], code(c)))
        return ids, [weight[c] for c in ids]

    def shapes(self) -> tuple[tuple[Edge, int, int], ...]:
        """The sides with between 2 and n-2 vertices."""
        size, top = self.classes.size, self.tree.n - 2
        return tuple(s for s in self.sides if 2 <= size[s[2]] <= top)

    def vertices(self, edge: Edge, root: int) -> frozenset[int]:
        """Host vertex ids of the side of `edge` that holds `root`; raises
        TreeInputError unless `edge` is a tree edge (either way round) and
        `root` one of its ends."""
        u, v = edge
        parent, n = self._parent, self.tree.n
        if not (0 <= u < n and 0 <= v < n and root in edge):
            raise TreeInputError(f"no side of {edge!r} rooted at {root!r}")
        if parent[v] == u:
            low = v
        elif parent[u] == v:
            low = u
        else:
            raise TreeInputError(f"{edge!r} is not an edge of the tree")
        i, j = self._span[low]
        return frozenset(self._pre[i:j] if root == low else self._pre[:i] + self._pre[j:])


def _hanging(idx: SideIndex, sides) -> tuple[HangingSubtree, ...]:
    classes = idx.classes
    classes.compose([c for _, _, c in sides])
    return tuple(HangingSubtree(e, r, classes.rep(c), idx) for e, r, c in sides)


def hanging_subtrees(t: WeightedTree) -> tuple[HangingSubtree, ...]:
    """Both sides of every edge removal: exactly 2(n-1) entries for n >= 2."""
    idx = SideIndex(t)
    return _hanging(idx, idx.sides)


def shapes(t: WeightedTree) -> tuple[HangingSubtree, ...]:
    """Hanging subtrees with between 2 and n-2 vertices."""
    idx = SideIndex(t)
    return _hanging(idx, idx.shapes())


def alpha_vector(t: WeightedTree) -> tuple[int, ...]:
    """Strictly increasing distinct weights of the shapes of t."""
    idx = SideIndex(t)
    return tuple(sorted({idx.classes.weight[c] for _, _, c in idx.shapes()}))


def render_code(code: CanonicalCode) -> str:
    """Compact nested text of a rooted code, e.g. '1(1,2(1))'.

    Children print in code order.  The text is kept on the code: a code
    from a ClassTable representative already holds the table's composed
    text, and any other code reads its text off the flat sequence once.
    """
    return code.text


def render_rooted(t: RootedWeightedTree) -> str:
    """Compact nested text for a rooted weighted tree, e.g. '1(1,2(1))'."""
    return render_code(rooted_code(t))

"""Exhaustive small-tree generation and seeded random samplers."""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from .errors import TreeInputError
from .partitions import _FOLD_LOCK
from .trees import ClassTable, Edge, WeightedTree, _trusted_tree, relabel

MAX_ENUM_N = 12


def multisets_of_weight(weights: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing index tuples whose weights sum to total, lexicographically.

    Weights must be positive and nondecreasing: a weight above what is left
    ends the scan at that depth, and the last chosen index moves on.
    """
    chosen: list[int] = []
    i = 0
    while True:
        if total == 0:
            yield tuple(chosen)
        elif i < len(weights) and weights[i] <= total:
            chosen.append(i)
            total -= weights[i]
            continue
        if not chosen:
            return
        i = chosen.pop()
        total += weights[i]
        i += 1


def _hang(kids, sizes, edges, out: tuple[Edge, ...] = (), size: int = 1) -> tuple[Edge, ...]:
    """Edges of the tree (`out`, `size` vertices, vertex 0 its root) once the
    rooted classes `kids` are hung from vertex 0, numbered on in preorder."""
    for k in kids:
        out += ((0, size),) + tuple((size + u, size + v) for u, v in edges[k])
        size += sizes[k]
    return out


def free_trees(n: int) -> Iterator[WeightedTree]:
    """One unit-weight representative per free-tree isomorphism class.

    By Jordan's centroid theorem a tree has either one centroid, whose
    branches each have fewer than n/2 vertices, or two adjacent ones whose
    edge splits it into halves of n/2.  So each tree is exactly one multiset
    of small rooted classes hung from a centroid, or one unordered pair of
    classes of size n/2 joined at their roots: no isomorphism test is needed.
    Vertex 0 is a centroid and the other vertices are numbered in preorder.

    The walk interns its rooted classes on one ClassTable, and each tree it
    yields holds that table and its class there, rooted at vertex 0, as
    `_class`, so that u_polynomial folds each branch class once per walk
    into a memo on the table (see partitions._u_table_dp).  The table and
    its memo live while the walk or any tree of it does; a copy of a tree
    (pickle, copy) keeps neither.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise TreeInputError(f"free-tree enumeration supports 1 <= n <= {MAX_ENUM_N}")
    # rooted classes up to n/2 vertices, size by size, so `sizes` is sorted; a
    # class of size s is a multiset of class ids whose sizes sum to s - 1, and
    # is new, so the fresh table numbers the classes as they are listed
    classes = ClassTable()
    sizes = classes.size
    edges: list[tuple[Edge, ...]] = []
    for s in range(1, n // 2 + 1):
        for kids in list(multisets_of_weight(sizes, s - 1)):  # listed before `sizes` grows
            edges.append(_hang(kids, sizes, edges))
            classes._intern(1, kids, s, s)
    ones = (1,) * n
    # for even n the last classes have n/2 vertices: halves, too big for branches
    levels = len(sizes)  # the trees' own classes follow
    halves = sizes.index(n // 2) if n % 2 == 0 else levels

    def tree(kids, tree_edges):
        with _FOLD_LOCK:  # a thread may be closing an earlier tree on the table
            cid = classes._intern(1, kids, n, n)
        t = _trusted_tree(n, tree_edges, ones)
        vars(t)["_class"] = (classes, cid)
        return t

    for kids in multisets_of_weight(sizes[:halves], n - 1):
        yield tree(kids, _hang(kids, sizes, edges))
    for a in range(halves, levels):
        for b in range(a, levels):
            yield tree(classes.keys[a][1] + (b,), _hang((b,), sizes, edges, edges[a], n // 2))


def random_weighted_tree(n: int, weight_bound: int, rng: random.Random) -> WeightedTree:
    """Random parent-array tree with iid uniform weights in [1, weight_bound]."""
    if n < 1 or weight_bound < 1:
        raise TreeInputError("need n >= 1 and weight_bound >= 1")
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    weights = tuple(rng.randint(1, weight_bound) for _ in range(n))
    return WeightedTree(n, edges, weights)


def random_encodable_tree(n: int, rng: random.Random, weight_bound: int | None = None) -> WeightedTree:
    """Random weighted tree with weights below 2**n, the encoder's domain."""
    if n < 3:
        raise TreeInputError("encodable trees need n >= 3")
    cap = 2**n - 1
    bound = cap if weight_bound is None else min(weight_bound, cap)
    return random_weighted_tree(n, bound, rng)


def random_relabeling(t: WeightedTree, rng: random.Random) -> WeightedTree:
    perm = list(range(t.n))
    rng.shuffle(perm)
    return relabel(t, perm)

import copy
import pickle
import random

import networkx as nx
import pytest

from utrees import generate, trees
from utrees.errors import TreeInputError
from utrees.generate import free_trees, multisets_of_weight, random_weighted_tree
from utrees.partitions import u_polynomial
from utrees.trees import RootedWeightedTree, free_code, rooted_code

from helpers import level_sequence_to_tree, rooted_level_sequences

# counts of rooted trees for n = 1..9
ROOTED_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286]
# counts of free trees for n = 1..12 (OEIS A000055)
FREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def test_rooted_tree_counts():
    for n, expect in zip(range(1, 10), ROOTED_COUNTS):
        assert sum(1 for _ in rooted_level_sequences(n)) == expect


def test_free_tree_counts():
    for n, expect in zip(range(1, 13), FREE_COUNTS):
        assert sum(1 for _ in free_trees(n)) == expect


def test_free_trees_distinct_and_valid():
    seen = set()
    for t in free_trees(7):
        assert t.n == 7
        assert t.weights == (1,) * 7
        c = free_code(t)
        assert c not in seen
        seen.add(c)


def test_free_trees_match_level_sequence_oracle():
    for n in range(1, 11):
        oracle = {free_code(level_sequence_to_tree(s)) for s in rooted_level_sequences(n)}
        assert {free_code(t) for t in free_trees(n)} == oracle


def _degrees(g) -> tuple[int, ...]:
    return tuple(sorted(d for _, d in g.degree()))


def test_free_trees_match_networkx():
    # each generated tree is isomorphic to exactly one networkx tree, and no
    # two generated trees to the same one
    for n in range(1, 11):
        theirs = list(nx.nonisomorphic_trees(n))
        buckets: dict[tuple, list[int]] = {}
        for j, g in enumerate(theirs):
            buckets.setdefault(_degrees(g), []).append(j)
        matched = []
        for t in free_trees(n):
            g = nx.Graph(t.edges)
            g.add_nodes_from(range(n))
            hits = [j for j in buckets.get(_degrees(g), []) if nx.is_isomorphic(g, theirs[j])]
            assert len(hits) == 1, (n, t)
            matched.append(hits[0])
        assert sorted(matched) == list(range(len(theirs))), n


def _branch_sizes_at_zero(t):
    """Vertex counts of the components of T - 0, and the preorder check."""
    children: list[list[int]] = [[] for _ in range(t.n)]
    for u, v in t.edges:
        children[u].append(v)  # edges come as (smaller, larger)
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(sorted(children[v], reverse=True))
    assert order == list(range(t.n)), t  # labels are a preorder from vertex 0

    def size(v):
        return 1 + sum(size(c) for c in children[v])

    return [size(c) for c in children[0]]


def test_vertex_zero_is_a_centroid_and_labels_are_preorder():
    for n in range(1, 13):
        for t in free_trees(n):
            assert all(2 * s <= n for s in _branch_sizes_at_zero(t)), t


def test_free_trees_deterministic():
    for n in range(1, 13):
        a = [(t.edges, t.weights) for t in free_trees(n)]
        b = [(t.edges, t.weights) for t in free_trees(n)]
        assert a == b


def test_free_trees_need_no_canonical_codes(monkeypatch):
    def forbidden(*_):
        raise AssertionError("free_trees must not compute canonical codes")

    for module in (trees, generate):
        for name in ("free_code", "rooted_code"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert [sum(1 for _ in free_trees(n)) for n in range(1, 13)] == FREE_COUNTS


def test_walk_trees_carry_their_class_on_one_table():
    # the class of each tree rooted at vertex 0 is interned on its walk's
    # table, and the table codes it as the tree's own walk does
    for n in range(1, 13):
        walk = list(free_trees(n))
        assert len({id(vars(t)["_class"][0]) for t in walk}) == 1
        for t in walk:
            classes, cid = vars(t)["_class"]
            assert classes.code(cid) == rooted_code(RootedWeightedTree(t, 0))


def test_copies_of_walk_trees_keep_no_table():
    walk = list(free_trees(12))
    u_polynomial(walk[-1])  # the walk's table now holds a fold memo too
    for t in (walk[0], walk[-1]):
        data = pickle.dumps(t)
        assert b"ClassTable" not in data and len(data) < 1000
        for c in (pickle.loads(data), copy.copy(t), copy.deepcopy(t)):
            assert c == t and c.edges == t.edges and hash(c) == hash(t)
            assert "_class" not in vars(c)
        assert "_class" in vars(t)


def test_multisets_of_weight_order():
    # weights 1, 1, 2: index multisets of weight 3, lexicographically
    assert list(multisets_of_weight([1, 1, 2], 3)) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2), (1, 1, 1), (1, 2)
    ]
    assert list(multisets_of_weight([1, 2], 0)) == [()]
    assert list(multisets_of_weight([], 2)) == []
    assert list(multisets_of_weight([2, 3], 1)) == []


def test_level_sequence_to_tree_path_and_star():
    p = level_sequence_to_tree((1, 2, 3, 4))
    assert sorted(p.degree(v) for v in range(4)) == [1, 1, 2, 2]
    s = level_sequence_to_tree((1, 2, 2, 2))
    assert sorted(s.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_enumeration_bounds():
    with pytest.raises(TreeInputError):
        list(free_trees(0))
    with pytest.raises(TreeInputError):
        list(free_trees(13))


def test_random_weighted_tree_deterministic():
    a = random_weighted_tree(8, 5, random.Random(42))
    b = random_weighted_tree(8, 5, random.Random(42))
    assert a == b
    assert all(1 <= w <= 5 for w in a.weights)

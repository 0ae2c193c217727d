import copy
import pickle
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utrees import trees
from utrees.errors import TreeInputError
from utrees.generate import random_relabeling, random_weighted_tree
from utrees.io import parse_rooted_spec
from utrees.situations import Situation, hanging_classes
from utrees.trees import (
    CanonicalCode,
    ClassTable,
    RootedWeightedTree,
    SideIndex,
    WeightedTree,
    alpha_vector,
    centroids,
    code_to_rooted_tree,
    free_code,
    hanging_subtrees,
    relabel,
    render_code,
    render_rooted,
    rooted_code,
    shapes,
)

from helpers import (
    brute_hang_count,
    brute_isomorphic,
    brute_rooted_isomorphic,
    brute_sides,
    cut_side,
    hang_count,
    path,
    rooted,
    shape_count,
    star,
    weighted_trees,
)


def test_tree_validation():
    with pytest.raises(TreeInputError):
        WeightedTree(2, (), (1, 1))
    with pytest.raises(TreeInputError):
        WeightedTree(2, ((0, 0),), (1, 1))
    with pytest.raises(TreeInputError):
        WeightedTree(2, ((0, 1),), (1, 0))
    with pytest.raises(TreeInputError):
        WeightedTree(4, ((0, 1), (2, 3), (0, 1)), (1, 1, 1, 1))


def test_tree_refuses_bools_and_non_ints():
    # True == 1, but a bool weight would print and fingerprint as "True"
    for args in (
        (1, (), (True,)),
        (2, ((0, 1),), (1, True)),
        (True, (), (1,)),
        (2, ((False, True),), (1, 1)),
        (3, ((0, 1.0), (1, 2)), (1, 1, 1)),
    ):
        with pytest.raises(TreeInputError):
            WeightedTree(*args)
    with pytest.raises(TreeInputError):
        RootedWeightedTree(path(1, 2), True)


def _connected(n, edges):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for e in edges:
            if v in e and e[0] + e[1] - v not in seen:
                seen.add(e[0] + e[1] - v)
                stack.append(e[0] + e[1] - v)
    return len(seen) == n


def test_tree_validation_accepts_exactly_the_trees():
    # every set of n-1 distinct edges, so every labelling of every graph:
    # the ones numbered parents first and the others take different checks
    for n in range(1, 7):
        for edges in combinations(combinations(range(n), 2), n - 1):
            for es in (edges, tuple((v, u) for u, v in edges)):
                try:
                    WeightedTree(n, es, (1,) * n)
                    accepted = True
                except TreeInputError:
                    accepted = False
                assert accepted == _connected(n, edges), (n, es)


def test_rooted_code_single_vertex():
    a = rooted(WeightedTree(1, (), (5,)))
    b = rooted(WeightedTree(1, (), (5,)))
    assert rooted_code(a) == rooted_code(b)
    assert rooted_code(a) != rooted_code(rooted(WeightedTree(1, (), (4,))))


def test_rooted_code_relabeling_invariance():
    a = RootedWeightedTree(WeightedTree(2, ((0, 1),), (1, 1)), 0)
    b = RootedWeightedTree(WeightedTree(2, ((1, 0),), (1, 1)), 0)
    assert rooted_code(a) == rooted_code(b)


def test_rooted_code_distinguishes_roots():
    p3 = path(1, 1, 1)
    centre = rooted_code(rooted(p3, 1))
    end = rooted_code(rooted(p3, 0))
    assert centre != end
    assert not brute_rooted_isomorphic(rooted(p3, 1), rooted(p3, 0))


def _largest_component_without(t: WeightedTree, v: int) -> int:
    largest = 0
    seen = {v}
    for s in t.adjacency[v]:
        seen.add(s)
        comp = [s]
        for u in comp:
            for x in t.adjacency[u]:
                if x not in seen:
                    seen.add(x)
                    comp.append(x)
        largest = max(largest, len(comp))
    return largest


@settings(max_examples=200, deadline=None)
@given(weighted_trees(max_n=14, max_weight=1), st.randoms(use_true_random=False))
def test_centroids_minimize_the_largest_component(t, rng):
    for u in (t, random_relabeling(t, rng)):
        largest = [_largest_component_without(u, v) for v in range(u.n)]
        assert centroids(u) == [v for v in range(u.n) if largest[v] == min(largest)]
    assert centroids(WeightedTree(1, (), (4,))) == [0]


def test_free_code_star_relabelings():
    s = star(1, 1, 1, 1)
    perm = [2, 0, 3, 1]
    assert free_code(s) == free_code(relabel(s, perm))


def test_free_code_path_vs_star():
    assert free_code(path(1, 1, 1, 1)) != free_code(star(1, 1, 1, 1))


def test_free_code_weight_placement():
    a = path(1, 3, 1)
    b = path(3, 1, 1)
    assert free_code(a) != free_code(b)
    assert not brute_isomorphic(a, b)


def test_code_roundtrip():
    t = rooted(path(2, 7, 1, 4), 2)
    back = code_to_rooted_tree(rooted_code(t))
    assert rooted_code(back) == rooted_code(t)


def test_code_roundtrip_deep_path():
    t = rooted(path(*range(1, 3001)))
    code = rooted_code(t)
    assert rooted_code(code_to_rooted_tree(code)) == code


def test_code_to_rooted_tree_rejects_malformed_codes():
    code = rooted_code(rooted(path(2, 7, 1)))
    with pytest.raises(TreeInputError, match="truncated"):
        code_to_rooted_tree(CanonicalCode(code.code[:-1]))
    with pytest.raises(TreeInputError, match="truncated"):
        code_to_rooted_tree(CanonicalCode((1, 2, 1, 0)))
    with pytest.raises(TreeInputError, match="trailing"):
        code_to_rooted_tree(CanonicalCode(code.code + (1, 0)))
    with pytest.raises(TreeInputError, match="positive"):
        code_to_rooted_tree(CanonicalCode((1, 1, 0, 0)))
    with pytest.raises(TreeInputError, match="positive"):
        code_to_rooted_tree(CanonicalCode((1, 1, -2, 0)))
    with pytest.raises(TreeInputError, match="non-negative"):
        code_to_rooted_tree(CanonicalCode((1, -1)))
    with pytest.raises(TreeInputError, match="non-negative"):
        code_to_rooted_tree(CanonicalCode((1, 2, 1, -1, 1, 0, 1, 0)))
    # exact ints only, in weights and child counts alike
    for bad in ((True, 0), (1, 1, 1, False), (1.0, 0), (1, 1.0, 1, 0), (1, 1, 2, 0.0)):
        with pytest.raises(TreeInputError, match="must be ints"):
            code_to_rooted_tree(CanonicalCode(bad))


@settings(max_examples=80, deadline=None)
@given(weighted_trees(max_n=12, max_weight=4), st.data())
def test_preorder_builder_makes_valid_trees(t, data):
    # the builder skips the constructor's checks: rebuilding through them
    # must give the same tree, and the code must read back unchanged
    root = data.draw(st.integers(0, t.n - 1))
    code = rooted_code(rooted(t, root))
    back = code_to_rooted_tree(code)
    assert WeightedTree(back.n, back.tree.edges, back.tree.weights) == back.tree
    assert all(u < v for u, v in back.tree.edges)
    assert rooted_code(RootedWeightedTree(back.tree, 0)) == code


def test_hanging_subtrees_two_path():
    hs = hanging_subtrees(path(1, 1))
    assert len(hs) == 2
    assert all(h.component.n == 1 for h in hs)


def test_hanging_subtrees_three_path():
    hs = hanging_subtrees(path(1, 1, 1))
    assert len(hs) == 4
    sides = sorted((sorted(h.vertices), h.root) for h in hs)
    assert sides == [([0], 0), ([0, 1], 1), ([1, 2], 1), ([2], 2)]


def test_hanging_subtrees_four_star():
    hs = hanging_subtrees(star(1, 1, 1, 1))
    assert len(hs) == 6
    assert sorted(len(h.vertices) for h in hs) == [1, 1, 1, 3, 3, 3]
    assert hanging_subtrees(WeightedTree(1, (), (1,))) == ()


def test_shapes_four_path():
    sh = shapes(path(1, 1, 1, 1))
    assert len(sh) == 2
    c = rooted_code(rooted(path(1, 1), 0))
    assert all(rooted_code(h.component) == c for h in sh)


def test_shapes_four_star_empty():
    assert shapes(star(1, 1, 1, 1)) == ()


def test_shapes_five_path():
    sh = shapes(path(1, 1, 1, 1, 1))
    assert sorted(len(h.vertices) for h in sh) == [2, 2, 3, 3]


def test_shape_count():
    p2 = rooted(path(1, 1), 0)
    assert shape_count(p2, path(1, 1, 1, 1)) == 2
    assert shape_count(p2, star(1, 1, 1, 1)) == 0
    single = rooted(WeightedTree(1, (), (1,)))
    assert shape_count(single, path(1, 1, 1, 1, 1)) == 0


def test_hang_count():
    p2 = rooted(path(1, 1), 0)
    assert hang_count(p2, p2) == 1
    single = rooted(WeightedTree(1, (), (1,)))
    assert hang_count(single, rooted(path(1, 1, 1), 0)) == 1
    assert hang_count(p2, rooted(path(1, 1, 1, 1), 0)) == 1


def test_alpha_vector():
    assert alpha_vector(path(1, 1, 1, 1)) == (2,)
    assert alpha_vector(path(1, 1, 1, 1, 1)) == (2, 3)
    assert alpha_vector(star(1, 1, 1, 1)) == ()
    five = path(1, 1, 1, 1, 1)
    w = five.total_weight
    assert all(2 <= a <= w - 1 for a in alpha_vector(five))


def test_shapes_subset_of_hangings():
    for t in (path(1, 2, 1, 3), star(2, 1, 1), path(1, 1, 1, 1, 1)):
        hs = set((h.detach_edge, h.root) for h in hanging_subtrees(t))
        for s in shapes(t):
            assert (s.detach_edge, s.root) in hs
            assert 2 <= len(s.vertices) <= t.n - 2


def test_render_rooted():
    assert render_rooted(rooted(path(1, 1), 0)) == "1(1)"
    assert render_rooted(rooted(star(2, 1, 3), 0)) == "2(1,3)"
    assert render_rooted(rooted(WeightedTree(1, (), (7,)))) == "7"
    assert render_rooted(rooted(path(1, 2, 1, 3), 1)) == "2(1,1(3))"


def test_render_rooted_deep_path():
    text = render_rooted(rooted(path(*([1] * 3000)), 0))
    assert text == "1(" * 2999 + "1" + ")" * 2999


def test_render_rooted_deep_path_memory():
    # the codes of finished children are dropped, so the peak stays linear
    p = rooted(path(*([1] * 3000)), 0)
    tracemalloc.start()
    try:
        render_rooted(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_isomorphic_sides_share_one_representative():
    sides = hanging_subtrees(path(1, 2, 1))
    by_root = {(h.detach_edge, h.root): h.component for h in sides}
    assert by_root[((0, 1), 0)] is by_root[((1, 2), 2)]
    assert render_rooted(by_root[((0, 1), 1)]) == "2(1)"
    assert sorted(len(h.vertices) for h in sides) == [1, 1, 2, 2]


def test_representatives_read_their_code_without_a_walk(monkeypatch):
    rng = random.Random(15)
    comps = []
    for n in (2, 5, 9, 14, 23):
        t = random_weighted_tree(n, 3, rng)
        comps += [h.component for h in hanging_subtrees(t) + shapes(t)]
        comps += list(hanging_classes(t))
    # what the walk gives, read off copies that carry no code
    fresh = [RootedWeightedTree(c.tree, c.root) for c in comps]
    codes = [rooted_code(f) for f in fresh]
    texts = [render_rooted(f) for f in fresh]
    pairs = list(zip(comps, comps[1:]))
    sits = [Situation.of(RootedWeightedTree(a.tree, a.root) for a in p) for p in pairs]

    def no_walk(*args):
        raise AssertionError("a representative walked for its code or text")

    # neither the tree walk for a code nor the code walk for a text
    monkeypatch.setattr(trees, "_rooted_parent_order", no_walk)
    monkeypatch.setattr(trees, "_code_text", no_walk)
    assert [rooted_code(c) for c in comps] == codes
    assert [render_rooted(c) for c in comps] == texts
    assert [render_code(rooted_code(c)) for c in comps] == texts
    assert [Situation.of(p) for p in pairs] == sits
    with pytest.raises(AssertionError, match="walked"):
        rooted_code(RootedWeightedTree(comps[0].tree, comps[0].root))
    with pytest.raises(AssertionError, match="walked"):
        render_code(CanonicalCode(codes[0].code))


@settings(max_examples=60, deadline=None)
@given(weighted_trees(max_n=14, max_weight=3), st.randoms(use_true_random=False))
def test_representatives_build_their_tree_only_when_read(t, rng):
    def no_build(*args):
        raise AssertionError("a representative built its tree")

    for tree in (t, random_relabeling(t, rng)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "_preorder_tree", no_build)
            comps = [h.component for h in hanging_subtrees(tree) + shapes(tree)]
            comps += hanging_classes(tree)
            seen = [(rooted_code(c), render_rooted(c), c.weight, c.n) for c in comps]
            # copies of a representative whose tree is still unbuilt
            copies = [(pickle.loads(pickle.dumps(c)), copy.deepcopy(c)) for c in comps]
        for c, (code, text, weight, n), kept in zip(comps, seen, copies):
            built = code_to_rooted_tree(code)
            assert c == built and hash(c) == hash(built)
            assert text == render_rooted(built)
            assert (weight, n) == (built.weight, built.n) == (c.tree.total_weight, c.tree.n)
            for other in kept + (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
                assert other == c and hash(other) == hash(c)
                assert rooted_code(other) == code and (other.weight, other.n) == (weight, n)


@settings(max_examples=60, deadline=None)
@given(weighted_trees(max_n=14, max_weight=3), st.data())
def test_index_texts_match_the_walk(t, data):
    idx = SideIndex(t)
    extra = rooted(t, data.draw(st.integers(0, t.n - 1)))
    idx.add(extra)
    for c in range(len(idx.keys)):
        # a copy of the code that the index never gave a text to
        assert idx.text(c) == render_code(CanonicalCode(idx.code(c).code))
    assert idx.text(idx.add(extra)) == render_rooted(extra)


def test_only_the_index_seeds_a_code():
    # children out of order: not canonical, so the tree must walk for its code
    t = code_to_rooted_tree(CanonicalCode((1, 2, 2, 0, 1, 0)))
    assert rooted_code(t) == CanonicalCode((1, 2, 1, 0, 2, 0))
    assert render_rooted(t) == "1(1,2)"
    # the kept code is not a field: a seeded representative equals, and
    # hashes like, the same tree without it
    for h in hanging_subtrees(path(1, 2, 3, 1)):
        rep = h.component
        bare = RootedWeightedTree(rep.tree, rep.root)
        assert "code" in vars(rep) and "code" not in vars(bare)
        assert rep == bare and hash(rep) == hash(bare)


@settings(max_examples=60, deadline=None)
@given(weighted_trees(max_n=8, max_weight=3), st.randoms(use_true_random=False))
def test_side_index_matches_bfs_oracle(t, rng):
    for tree in (t, random_relabeling(t, rng)):
        idx = SideIndex(tree)
        oracle = {(e, r): (vs, cut_side(tree, vs, r)) for e, r, vs in brute_sides(tree)}
        assert [(e, root) for e, root, _ in idx.sides] == list(oracle)
        sides = []
        for e, root, c in idx.sides:
            vertices, side = oracle[(e, root)]
            assert idx.vertices(e, root) == vertices
            rep = idx.rep(c)
            # the representative is born with idx.code(c), so walk a copy
            # that is not, as well as the BFS side
            fresh = RootedWeightedTree(rep.tree, rep.root)
            assert idx.code(c) == rooted_code(side) == rooted_code(fresh)
            # built by the preorder builder, which skips the constructor's
            # checks: rebuilding through them changes nothing
            assert rep.tree == WeightedTree(rep.n, rep.tree.edges, rep.tree.weights)
            sides.append((c, side))
        for (c, a), (d, b) in combinations(sides, 2):
            assert (c == d) == brute_rooted_isomorphic(a, b)
        reps = dict(sides)
        inside = idx.inside(list(reps))
        for d, host in reps.items():
            for c, s in reps.items():
                assert inside[d][c] == brute_hang_count(s, host)


@settings(max_examples=100, deadline=None)
@given(weighted_trees(max_n=7), st.data())
def test_subtree_code_counts_match_brute_oracle(t, data):
    rng = data.draw(st.randoms(use_true_random=False))
    sides = [side.component for side in hanging_subtrees(t)]
    for host_tree in (t, random_relabeling(t, rng)):
        n = host_tree.n
        hosts = [rooted(host_tree, r) for r in range(n)]
        s = data.draw(st.sampled_from(sides + hosts))
        counts = [brute_hang_count(s, h) for h in hosts]
        assert [hang_count(s, h) for h in hosts] == counts
        # an m-vertex side avoids exactly n - m of the n roots
        if 2 <= s.n <= n - 2:
            assert shape_count(s, host_tree) * (n - s.n) == sum(counts)
        else:
            assert shape_count(s, host_tree) == 0
        for h in hosts:
            # the shape classes properly below h's root, by code
            table = ClassTable()
            root = table.add(h)
            inside = {
                table.code(c): k
                for c, k in table.inside([root])[root].items()
                if c != root and table.size[c] >= 2
            }
            below = [
                side.component
                for side in hanging_subtrees(host_tree)
                if h.root not in side.vertices and len(side.vertices) >= 2
            ]
            assert sum(inside.values()) == len(below)
            for c in below:
                assert inside[rooted_code(c)] == brute_hang_count(c, h)
            assert rooted_code(parse_rooted_spec(render_rooted(h))) == rooted_code(h)


def _random_tree(rng, n, wmax):
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    return WeightedTree(n, edges, weights)


def test_code_soundness_against_brute_force():
    """Equal free codes exactly when a weight-preserving bijection exists."""
    rng = random.Random(7)
    pool = []
    for _ in range(60):
        n = rng.randint(2, 6)
        pool.append(_random_tree(rng, n, 4))
    for i in range(len(pool)):
        for j in range(i, min(i + 8, len(pool))):
            a, b = pool[i], pool[j]
            assert (free_code(a) == free_code(b)) == brute_isomorphic(a, b)


def test_code_soundness_exhaustive_unit_trees():
    from utrees.generate import free_trees

    pool = [t for n in range(2, 7) for t in free_trees(n)]
    for i, a in enumerate(pool):
        for b in pool[i:]:
            assert (free_code(a) == free_code(b)) == brute_isomorphic(a, b)


def test_shape_count_mass():
    for t in (path(1, 1, 1, 1, 1), star(2, 1, 1, 3), path(1, 2, 1, 2, 1, 2)):
        by_class = {}
        for h in shapes(t):
            code = rooted_code(h.component)
            by_class.setdefault(code, h.component)
        total = sum(shape_count(rep, t) for rep in by_class.values())
        assert total == len(shapes(t))


def test_rooted_code_soundness_against_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = _random_tree(rng, n, 3)
        b = _random_tree(rng, n, 3)
        ra, rb = rooted(a, rng.randrange(n)), rooted(b, rng.randrange(n))
        assert (rooted_code(ra) == rooted_code(rb)) == brute_rooted_isomorphic(ra, rb)
    # relabeled copies must agree
    for _ in range(20):
        n = rng.randint(2, 7)
        t = _random_tree(rng, n, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        r = rng.randrange(n)
        assert rooted_code(rooted(t, r)) == rooted_code(rooted(relabel(t, perm), perm[r]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_side_index_sizes_and_weights_add_up(data):
    max_weight = data.draw(st.sampled_from([1, 3, 2**40]))
    t = data.draw(weighted_trees(max_n=40, max_weight=max_weight))
    other = data.draw(weighted_trees(max_n=12, max_weight=max_weight))
    idx = SideIndex(t)
    for e, r, c in idx.sides:
        vertices = idx.vertices(e, r)
        assert idx.size[c] == len(vertices)
        assert idx.weight[c] == sum(t.weights[v] for v in vertices)
    # classes interned after construction: the host and another tree, rooted
    for host in (t, other):
        extra = rooted(host, data.draw(st.integers(0, host.n - 1)))
        c = idx.add(extra)
        assert (idx.size[c], idx.weight[c]) == (host.n, host.total_weight)
    for c, (weight, kids) in enumerate(idx.keys):
        assert idx.size[c] == 1 + sum(idx.size[k] for k in kids)
        assert idx.weight[c] == weight + sum(idx.weight[k] for k in kids)


# repeated weights, so that classes recur, up to 2^40
_ADD_WEIGHTS = (1, 2, 2**40, 2**40 + 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_add_interns_any_rooted_tree(data):
    def draw_tree():
        t = data.draw(weighted_trees(max_n=20, max_weight=len(_ADD_WEIGHTS)))
        return WeightedTree(t.n, t.edges, tuple(_ADD_WEIGHTS[w - 1] for w in t.weights))

    t, other = draw_tree(), draw_tree()
    # representatives of another tree, and plain trees: the two drawn,
    # rooted anywhere, and the other's classes rebuilt from their codes
    reps = hanging_classes(other)
    plain = [rooted(h, data.draw(st.integers(0, h.n - 1))) for h in (t, other)]
    plain += [code_to_rooted_tree(rooted_code(r)) for r in reps]
    for x in list(reps) + plain:
        idx = SideIndex(t)
        c = idx.add(x)
        assert (idx.code(c), idx.size[c], idx.weight[c]) == (rooted_code(x), x.n, x.weight)
        # a second add finds the class it made: the same id, no new class
        made = len(idx.keys)
        assert idx.add(x) == c and len(idx.keys) == made

import copy
import pickle
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utrees import trees
from utrees.embedding import good_encode
from utrees.errors import TreeInputError
from utrees.generate import random_encodable_tree, random_relabeling, random_weighted_tree
from utrees.io import parse_rooted_spec
from utrees.shapecount import shaped_count
from utrees.situations import WHOLE_TREE, Situation, build_containment_table, hanging_classes
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
    encodable_trees,
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


@settings(max_examples=80, deadline=None)
@given(
    weighted_trees(max_n=14, max_weight=3)
    | weighted_trees(max_n=14, max_weight=2**40)
    | encodable_trees(max_n=7).map(lambda t: good_encode(t).t_prime)
)
def test_hanging_subtrees_and_shapes_match_the_bfs_sides(t):
    want = []
    for e, r, vertices in brute_sides(t):
        side = cut_side(t, vertices, r)
        want.append((e, r, vertices, rooted_code(side), render_rooted(side)))
    shaped = [w for w in want if 2 <= len(w[2]) <= t.n - 2]
    for got, expected in ((hanging_subtrees(t), want), (shapes(t), shaped)):
        assert [
            (h.detach_edge, h.root, h.vertices, rooted_code(h.component), render_rooted(h.component))
            for h in got
        ] == expected


@pytest.mark.parametrize(
    "edge, root",
    [
        pytest.param((0, 4), 0, id="not-an-edge"),
        pytest.param((0, 3), 0, id="not-an-edge-below-the-root"),
        pytest.param((1, 2), 4, id="root-off-the-edge"),
        pytest.param((4, 5), 4, id="end-out-of-range"),
        pytest.param((-1, 0), 0, id="negative-end"),
    ],
)
def test_side_index_refuses_what_is_not_a_side(edge, root):
    idx = SideIndex(path(1, 1, 1, 1, 1))
    with pytest.raises(TreeInputError):
        idx.vertices(edge, root)
    # either orientation of a tree edge is one
    assert idx.vertices((2, 1), 1) == idx.vertices((1, 2), 1) == {0, 1}
    assert idx.vertices((2, 1), 2) == {2, 3, 4}


def test_shapes_read_no_vertex_set_until_asked(monkeypatch):
    calls = []
    read = SideIndex.vertices

    def counted(self, edge, root):
        calls.append((edge, root))
        return read(self, edge, root)

    monkeypatch.setattr(SideIndex, "vertices", counted)
    rng = random.Random(26)
    for n in (5, 9, 14, 23):
        for t in (random_weighted_tree(n, 3, rng), good_encode(random_encodable_tree(n, rng)).t_prime):
            sides = shapes(t) + hanging_subtrees(t)
            assert all(render_rooted(h.component) for h in sides)
    assert calls == []
    h = sides[0]
    first = h.vertices
    assert calls == [(h.detach_edge, h.root)]
    assert h.vertices is first and len(calls) == 1


def test_shapes_compose_their_classes_in_one_walk(monkeypatch):
    walks = []
    below = ClassTable._below

    def counted(self, *args):
        walks.append(args)
        return below(self, *args)

    monkeypatch.setattr(ClassTable, "_below", counted)
    rng = random.Random(27)
    shaped = 0
    for n in (5, 9, 14, 23):
        for t in (random_weighted_tree(n, 3, rng), good_encode(random_encodable_tree(n, rng)).t_prime):
            walks.clear()
            sides = shapes(t)
            assert all(render_rooted(h.component) for h in sides)
            # a tree without shapes has no class to compose
            assert len(walks) == (1 if sides else 0)
            shaped += bool(sides)
    assert shaped >= 6


def test_hanging_subtrees_survive_pickle_and_deepcopy():
    t = random_weighted_tree(12, 3, random.Random(28))
    for h in hanging_subtrees(t):
        unread = [pickle.loads(pickle.dumps(h)), copy.deepcopy(h)]
        vertices = h.vertices
        read = [pickle.loads(pickle.dumps(h)), copy.deepcopy(h)]
        for other in unread + read:
            assert other == h and hash(other) == hash(h)
            assert other.vertices == vertices
        # equality, hashing and the repr leave out the index and the vertices
        assert "index" not in repr(h) and "vertices" not in repr(h)
    assert hanging_subtrees(t) == hanging_subtrees(t)


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
    idx.classes.add(extra)
    for c in range(len(idx.classes.keys)):
        # a copy of the code that the index never gave a text to
        assert idx.classes.text(c) == render_code(CanonicalCode(idx.classes.code(c).code))
    assert idx.classes.text(idx.classes.add(extra)) == render_rooted(extra)


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


@settings(max_examples=80, deadline=None)
@given(
    weighted_trees(max_n=14, max_weight=1)
    | weighted_trees(max_n=14, max_weight=2)
    | encodable_trees(max_n=7).map(lambda t: good_encode(t).t_prime),
    st.randoms(use_true_random=False),
)
def test_side_texts_match_the_walked_codes(t, rng):
    # weights <= 2 give siblings that tie on root weight and child count
    for tree in (t, random_relabeling(t, rng)):
        idx = SideIndex(tree)
        texts = idx.classes.texts([c for _, _, c in idx.sides])
        for (e, r, _), text in zip(idx.sides, texts):
            side = cut_side(tree, idx.vertices(e, r), r)
            assert text == trees._code_text(rooted_code(side).code)


def test_deep_spider_sides_render_without_recursion():
    # the legs of 1,200 and 1,201 unit vertices tie on root weight and child
    # count all the way down, so the centre's sides order them by codes,
    # whose nested form would recurse past the interpreter's limit
    edges, nxt = [], 1
    for length in (1200, 1201, 3):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    t = WeightedTree(nxt, tuple(edges), (1,) * nxt)
    sides = shapes(t)
    texts = [render_rooted(h.component) for h in sides]
    # every side but the three leaves' and their complements
    assert len(sides) == 2 * (t.n - 1) - 6
    at_centre = [i for i, h in enumerate(sides) if h.root == 0]
    assert len(at_centre) == 3
    for i in at_centre + list(range(0, len(sides), 251)):
        h = sides[i]
        side = cut_side(t, h.vertices, h.root)
        assert texts[i] == trees._code_text(rooted_code(side).code)
        assert rooted_code(h.component) == rooted_code(side)


def test_shapes_of_encodings_make_no_code(monkeypatch):
    made = []
    init = CanonicalCode.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(CanonicalCode, "__init__", counted)
    rng = random.Random(29)
    for n in (5, 12, 20, 33):
        t = good_encode(random_encodable_tree(n, rng)).t_prime
        texts = [render_rooted(h.component) for h in shapes(t)]
        assert texts and not made
    # a code is made once something reads it
    rooted_code(shapes(t)[0].component)
    assert made


def test_shaped_pipeline_makes_no_text(monkeypatch):
    def no_text(*args):
        raise AssertionError("a class text was made")

    monkeypatch.setattr(ClassTable, "text", no_text)
    monkeypatch.setattr(ClassTable, "texts", no_text)
    t = random_weighted_tree(12, 3, random.Random(12))
    classes = hanging_classes(t)
    tbl = build_containment_table(t, classes)
    w = t.total_weight
    queries = 0
    for j in range(1, (w + 1) // 2 + 1):
        for e in tbl.u_table(WHOLE_TREE):
            if e.is_j_expression(j, w):
                shaped_count(t, j, e, tbl)
                queries += 1
    assert queries > 100
    # the table's codes were made without their texts
    assert tbl.ids and not any("text" in vars(code) for code in tbl.ids)
    assert not any("text" in vars(rep) for rep in classes)


def test_copied_representatives_keep_their_code_not_their_table():
    t = random_weighted_tree(12, 3, random.Random(30))
    # shapes' representatives are born with texts, hanging_classes' with
    # codes only; neither has read its code or built its tree yet
    for comps in ([h.component for h in shapes(t)], list(hanging_classes(t))):
        assert comps and not any("code" in vars(c) or "tree" in vars(c) for c in comps)
        for rep in comps:
            pickled = pickle.dumps(rep)
            assert b"ClassTable" not in pickled
            for other in (pickle.loads(pickled), copy.deepcopy(rep)):
                assert "_class" not in vars(other)
                assert not any(isinstance(v, ClassTable) for v in vars(other).values())
                assert vars(other)["code"] == rooted_code(rep)
                assert other == rep and hash(other) == hash(rep)
                assert render_rooted(other) == render_rooted(rep)


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
            rep = idx.classes.rep(c)
            # the representative is born with idx.classes.code(c), so walk a copy
            # that is not, as well as the BFS side
            fresh = RootedWeightedTree(rep.tree, rep.root)
            assert idx.classes.code(c) == rooted_code(side) == rooted_code(fresh)
            # built by the preorder builder, which skips the constructor's
            # checks: rebuilding through them changes nothing
            assert rep.tree == WeightedTree(rep.n, rep.tree.edges, rep.tree.weights)
            sides.append((c, side))
        for (c, a), (d, b) in combinations(sides, 2):
            assert (c == d) == brute_rooted_isomorphic(a, b)
        reps = dict(sides)
        inside = idx.classes.inside(list(reps))
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
        assert idx.classes.size[c] == len(vertices)
        assert idx.classes.weight[c] == sum(t.weights[v] for v in vertices)
    # classes interned after construction: the host and another tree, rooted
    for host in (t, other):
        extra = rooted(host, data.draw(st.integers(0, host.n - 1)))
        c = idx.classes.add(extra)
        assert (idx.classes.size[c], idx.classes.weight[c]) == (host.n, host.total_weight)
    for c, (weight, kids) in enumerate(idx.classes.keys):
        assert idx.classes.size[c] == 1 + sum(idx.classes.size[k] for k in kids)
        assert idx.classes.weight[c] == weight + sum(idx.classes.weight[k] for k in kids)


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
        classes = SideIndex(t).classes
        c = classes.add(x)
        assert (classes.code(c), classes.size[c], classes.weight[c]) == (rooted_code(x), x.n, x.weight)
        # a second add finds the class it made: the same id, no new class
        made = len(classes.keys)
        assert classes.add(x) == c and len(classes.keys) == made

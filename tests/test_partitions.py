import random
import sys
import threading
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utrees import partitions
from utrees.census import fingerprint
from utrees.embedding import good_encode
from utrees.errors import ResourceBoundError, TreeInputError
from utrees.generate import free_trees, random_relabeling
from utrees.partitions import (
    Expression,
    ExpressionCounts,
    count_partitions,
    count_shaped_partitions,
    is_refinement,
    potts_dichromate,
    q_chromatic,
    q_dichromate,
    q_integer,
    u_polynomial,
)
from utrees.situations import WHOLE_TREE, build_containment_table, hanging_classes
from utrees.trees import ClassTable, SideIndex, WeightedTree, centroids, relabel

from helpers import (
    ConnectedPartition,
    brute_subset_sum,
    characteristic,
    encodable_trees,
    path,
    sorted_pairs_text,
    spider,
    star,
    table_evaluate,
    vertex_dp_table,
    weighted_trees,
)


def E(*parts):
    return Expression.of(parts)


def cp(*parts):
    return ConnectedPartition(tuple(frozenset(p) for p in parts))


def test_expression_normalization():
    assert Expression.of([1, 3, 2]).parts == (3, 2, 1)
    with pytest.raises(TreeInputError):
        Expression.of([0, 2])
    assert E(2, 2, 1).j_side(3, 5) == (2, 1)
    assert E(2, 2, 1).is_j_expression(3, 5)
    assert not E(2, 3).is_j_expression(1, 5)


def test_expression_refuses_bools():
    for make in (
        lambda: Expression((True,)),
        lambda: Expression((2, False)),
        lambda: Expression.of([True, 2]),
    ):
        with pytest.raises(TreeInputError, match="positive ints"):
            make()


def test_characteristic():
    p3 = path(1, 1, 1)
    assert characteristic(cp({0, 1}, {2}), p3) == E(2, 1)
    assert characteristic(cp({0, 1, 2}), p3) == E(3)
    assert characteristic(cp({0}, {1}, {2}), path(1, 3, 1)) == E(3, 1, 1)
    with pytest.raises(TreeInputError):
        characteristic(cp({0, 2}, {1}), p3)  # disconnected part
    with pytest.raises(TreeInputError):
        characteristic(cp({0, 1}), p3)  # not covering


def test_u_polynomial_two_path():
    t = path(1, 1)
    for mode in ("brute", "dp"):
        u = u_polynomial(t, mode)
        assert dict(u.counts) == {E(2): 1, E(1, 1): 1}
        assert u.z_exponent == 0


def test_u_polynomial_three_path():
    u = u_polynomial(path(1, 1, 1), "brute")
    assert dict(u.counts) == {E(3): 1, E(2, 1): 2, E(1, 1, 1): 1}


def test_u_polynomial_distinguishes_path_star():
    up = u_polynomial(path(1, 1, 1, 1), "dp")
    us = u_polynomial(star(1, 1, 1, 1), "dp")
    assert dict(up.counts) == {
        E(4): 1, E(3, 1): 2, E(2, 2): 1, E(2, 1, 1): 3, E(1, 1, 1, 1): 1,
    }
    assert dict(us.counts) == {
        E(4): 1, E(3, 1): 3, E(2, 1, 1): 3, E(1, 1, 1, 1): 1,
    }
    assert up.canonical_text() != us.canonical_text()
    assert up.canonical_text() == "n=4 w=4 z=0\n4: 1\n3,1: 2\n2,2: 1\n2,1,1: 3\n1,1,1,1: 1\n"


def test_u_polynomial_mass_invariants():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 7)
        t = WeightedTree(
            n,
            tuple((rng.randrange(i), i) for i in range(1, n)),
            tuple(rng.randint(1, 5) for _ in range(n)),
        )
        u = u_polynomial(t, "brute")
        assert sum(u.counts.values()) == 2 ** (n - 1)
        assert u.count(E(t.total_weight)) == 1
        assert u.count(Expression.of(t.weights)) == 1
        assert all(len(e.parts) <= n for e in u.counts)
        assert dict(u.counts) == dict(u_polynomial(t, "dp").counts)


@settings(max_examples=150, deadline=None)
@given(weighted_trees(max_n=10, max_weight=4), st.randoms(use_true_random=False))
def test_dp_table_matches_brute(t, rng):
    for u in (t, random_relabeling(t, rng)):
        dp, brute = u_polynomial(u, "dp"), u_polynomial(u, "brute")
        assert dict(dp.counts) == dict(brute.counts)
        assert dp.canonical_text() == brute.canonical_text()
        for e, count in dp.counts.items():
            checked = Expression(e.parts)
            assert e == checked and hash(e) == hash(checked)
            assert count_partitions(u, Expression.of(reversed(e.parts))) == count


def _assert_dp_is_brute(t: WeightedTree):
    dp, brute = u_polynomial(t), u_polynomial(t, "brute")
    assert dp.counts == brute.counts
    assert dp.canonical_text() == brute.canonical_text()


@settings(max_examples=60, deadline=None)
@given(
    weighted_trees(max_n=10, max_weight=1),
    st.lists(st.sampled_from([1, 2, 2**40, 2**40 + 1, 3 * 2**41, 2**62 - 1]), min_size=10, max_size=10),
)
def test_dp_matches_brute_on_huge_weights(shape, weights):
    # fields go only to weights that close, so keys stay short although
    # w(T) passes 2^40
    _assert_dp_is_brute(WeightedTree(shape.n, shape.edges, tuple(weights[: shape.n])))


@settings(max_examples=15, deadline=None)
@given(encodable_trees(max_n=5))
def test_dp_matches_brute_on_encoded_trees(t):
    _assert_dp_is_brute(good_encode(t).t_prime)


def test_dp_matches_brute_on_unit_stars_and_brooms():
    # the n singletons fill the weight-1 field; its width changes as n
    # passes each power of two
    for n in range(1, 17):
        _assert_dp_is_brute(star(*([1] * n)))
    for n, handle in ((8, 3), (12, 5), (16, 6)):
        edges = tuple((i, i + 1) for i in range(handle - 1))
        edges += tuple((handle - 1, v) for v in range(handle, n))
        _assert_dp_is_brute(WeightedTree(n, edges, (1,) * n))


def test_dp_matches_brute_on_one_and_two_vertices():
    for w in (1, 5, 2**40, 2**62 + 3):
        _assert_dp_is_brute(WeightedTree(1, (), (w,)))
        for u in (1, w, 2**41):
            _assert_dp_is_brute(path(w, u))


def test_canonical_text_sorts_parts_as_integers():
    # as strings, "10,9,1" would sort above "10,10"
    u = u_polynomial(path(10, 9, 1))
    assert u.canonical_text() == "n=3 w=20 z=-17\n20: 1\n19,1: 1\n10,10: 1\n10,9,1: 1\n"


def test_unit_three_path_table():
    # rooted at its centre, the entry 2,1 comes once from the closing edge's
    # cut half (the other edge kept) and once from its kept half (the other
    # edge cut)
    u = u_polynomial(path(1, 1, 1))
    assert dict(u.counts) == {E(3): 1, E(2, 1): 2, E(1, 1, 1): 1}
    assert u.canonical_text() == "n=3 w=3 z=0\n3: 1\n2,1: 2\n1,1,1: 1\n"


@settings(max_examples=60, deadline=None)
@given(st.one_of(weighted_trees(max_n=12, max_weight=3), weighted_trees(max_n=12, max_weight=2**40)))
def test_closing_merge_matches_brute_and_the_containment_table(t):
    u = u_polynomial(t)
    assert u.counts == u_polynomial(t, "brute").counts
    assert u.canonical_text() == sorted_pairs_text(u)
    assert build_containment_table(t, hanging_classes(t)).u_table(WHOLE_TREE) == u.counts


@settings(max_examples=100, deadline=None)
@given(weighted_trees(max_n=9, max_weight=15))
def test_canonical_text_matches_sorted_pairs_rendering(t):
    u = u_polynomial(t)
    assert u.canonical_text() == sorted_pairs_text(u)


@settings(max_examples=100, deadline=None)
@given(weighted_trees(max_n=9, max_weight=6))
def test_counts_view_contract(t):
    u = u_polynomial(t)
    rebuilt = ExpressionCounts(u.n, u.total_weight, u.z_exponent, dict(u.counts))
    assert rebuilt == u
    assert rebuilt == ExpressionCounts(u.n, u.total_weight, u.z_exponent, u_polynomial(t, "brute").counts)
    assert rebuilt.canonical_text() == u.canonical_text() == sorted_pairs_text(u) == sorted_pairs_text(rebuilt)
    assert dict(rebuilt.counts) == dict(u.counts)
    assert rebuilt.counts == dict(u.counts) and dict(u.counts) == u.counts
    assert len(u.counts) == len(rebuilt.counts) == len(set(u.counts))
    assert sum(u.counts.values()) == 2 ** (t.n - 1)
    for e, c in u.counts.items():
        assert type(e) is Expression and e == Expression(e.parts)
        assert rebuilt.count(e) == u.count(e) == u.counts[e] == rebuilt.counts.get(e) == c
        assert e in u.counts and e in rebuilt.counts
    # a key that is not an Expression misses without raising, as does an
    # absent expression
    missing = E(t.total_weight + 1)
    for counts in (u.counts, rebuilt.counts):
        assert counts.get((2, 1)) is None and counts.get((2, 1), 0) == 0
        assert (2, 1) not in counts and E(t.total_weight).parts not in counts
        assert missing not in counts and counts.get(missing) is None
        with pytest.raises(KeyError):
            counts[(t.total_weight,)]
        with pytest.raises(TypeError):
            counts[E(t.total_weight)] = 2
    assert u.count(missing) == rebuilt.count(missing) == u.count((2, 1)) == 0
    assert u.count(E(t.total_weight)) == 1


def test_counts_need_expression_keys():
    with pytest.raises(TreeInputError, match="Expressions"):
        ExpressionCounts(2, 2, 0, {(2,): 1, (1, 1): 1})


def test_counts_must_be_exact_ints():
    for bad in (True, 1.0, "1"):
        with pytest.raises(TreeInputError, match="counts must be ints"):
            ExpressionCounts(2, 2, 0, {E(2): 1, E(1, 1): bad})


@st.composite
def bicentroidal_trees(draw):
    """Two trees of k vertices each, joined by an edge between a vertex of
    each: both ends of that edge are centroids."""
    k = draw(st.integers(1, 4))
    edges = []
    for base in (0, k):
        edges += [(base + draw(st.integers(0, v - 1)), base + v) for v in range(1, k)]
    edges.append((draw(st.integers(0, k - 1)), k + draw(st.integers(0, k - 1))))
    weights = tuple(draw(st.integers(1, 4)) for _ in range(2 * k))
    return WeightedTree(2 * k, tuple(edges), weights)


def _rooting_cases():
    """n = 1 and 2, trees whose only centroid is not vertex 0, and trees
    with two centroids."""
    yield WeightedTree(1, (), (3,))
    yield path(2, 5)
    yield path(1, 1, 1, 1, 1)  # centroid 2
    yield path(3, 1, 2, 1, 4, 1)  # centroids 2 and 3
    yield relabel(star(2, 1, 3, 1, 1), [4, 0, 1, 2, 3])  # centre 4
    yield WeightedTree(7, ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)), (1, 2, 1, 1, 3, 1, 2))


def _closing_edge(t: WeightedTree) -> tuple:
    """The rooted codes of the two side classes of each edge that
    u_polynomial(t) closes across, and u_polynomial(t)."""
    closed, close_edge = [], partitions._close_edge

    def spy(pk, classes, states, a, b):
        closed.append((classes.code(a), classes.code(b)))
        return close_edge(pk, classes, states, a, b)

    with mock.patch.object(partitions, "_close_edge", spy):
        return closed, u_polynomial(t)


def _check_rooting_independent(t: WeightedTree):
    brute = u_polynomial(t, "brute")
    closed, dp = _closing_edge(t)
    assert dp.counts == brute.counts
    assert dp.canonical_text() == brute.canonical_text()
    for k in (1, 2):
        assert q_chromatic(t, k, 2, "subsets") == q_chromatic(t, k, 2, "colourings")
        assert potts_dichromate(t, 1, k, 2, 2, "subsets") == potts_dichromate(t, 1, k, 2, 2, "colourings")
        assert q_dichromate(t, 1, k, 2) == brute_subset_sum(t, 1, lambda p: q_integer(k, 2**p))
    # the closing edge joins centroids(t)[0] to a largest branch: its sides
    # are the centroid's and that branch's
    root, idx = centroids(t)[0], SideIndex(t)
    code, size, sides = idx.classes.code, idx.classes.size, idx.sides
    at_root = [(x[2], y[2]) if x[1] == root else (y[2], x[2])
               for x, y in zip(sides[::2], sides[1::2]) if root in x[0]]
    largest = max([size[b] for _, b in at_root], default=0)
    assert len(closed) == (t.n > 1)
    assert set(closed) <= {(code(a), code(b)) for a, b in at_root if size[b] == largest}
    return brute.canonical_text()


@settings(max_examples=40, deadline=None)
@given(bicentroidal_trees(), st.randoms(use_true_random=False))
def test_rooting_independence_bicentroidal(t, rng):
    assert len(centroids(t)) == 2
    text = _check_rooting_independent(t)
    assert _check_rooting_independent(random_relabeling(t, rng)) == text


def test_rooting_independence_fixed_trees():
    rng = random.Random(17)
    cases = list(_rooting_cases())
    assert [len(centroids(t)) for t in cases] == [1, 2, 1, 2, 1, 1]
    assert all(0 not in centroids(t) for t in cases[2:])
    for t in cases:
        text = _check_rooting_independent(t)
        for _ in range(3):
            assert _check_rooting_independent(random_relabeling(t, rng)) == text


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        weighted_trees(max_n=24, max_weight=3),
        weighted_trees(max_n=24, max_weight=2).map(
            lambda t: WeightedTree(t.n, t.edges, tuple(2**40 if w == 2 else w for w in t.weights))
        ),
        weighted_trees(max_n=12, max_weight=2**40),
    ),
    st.randoms(use_true_random=False),
)
def test_u_polynomial_equals_the_vertex_dp(t, rng):
    # the plain per-vertex DP shares no code with u_polynomial, whose class
    # fold the containment tables share
    want = vertex_dp_table(t)
    assert u_polynomial(t).counts == want
    assert u_polynomial(random_relabeling(t, rng)).counts == want


def test_u_polynomial_folds_each_leg_class_once(monkeypatch):
    # the spider's six legs of three vertices share one class, as do their
    # tails: the leaf, 2-leg and 3-leg classes take 0, 1 and 1 merges, and
    # the centre less one leg 5, where a merge per vertex below the root
    # took n - 2 = 17; a tail's state is dropped once its leg is folded, so
    # the fold hands back only the two sides' states
    t = spider(6, 3)
    merges, folded = [], []
    merge, fold = partitions._merge, partitions._fold

    def counted_merge(*args):
        merges.append(args)
        return merge(*args)

    def kept_fold(pk, classes, states, ids):
        states = fold(pk, classes, states, ids)
        folded.append((set(states), set(ids)))
        return states

    monkeypatch.setattr(partitions, "_merge", counted_merge)
    monkeypatch.setattr(partitions, "_fold", kept_fold)
    assert u_polynomial(t).counts == vertex_dp_table(t)
    assert t.n == 19 and len(merges) == 7
    assert len(folded) == 1 and folded[0][0] == folded[0][1] and len(folded[0][1]) == 2


# trees of a free-tree walk carry their class on the walk's table, and are
# closed off the fold memo that lives there


def _walk_memo(t):
    classes = vars(t)["_class"][0]
    return classes, vars(classes)["_fold_memo"][1]


def _plain(t):
    return WeightedTree(t.n, t.edges, t.weights)


def test_walk_trees_have_their_plain_copies_tables():
    # all 987 trees to n = 12; a plain copy is interned on a fresh table
    for n in range(1, 13):
        for t in free_trees(n):
            plain = _plain(t)
            assert "_class" in vars(t) and "_class" not in vars(plain)
            got, want = u_polynomial(t), u_polynomial(plain)
            assert got.counts._table == want.counts._table
            assert got.canonical_text() == want.canonical_text()
            if n <= 10:
                assert got.counts == vertex_dp_table(t)


def test_a_walk_folds_each_level_class_once(monkeypatch):
    # no tree of the walk is interned again, and each class of at most n/2
    # vertices is folded once for the whole walk; every other class folded
    # is a tree's side without its largest branch, dropped after the close
    def forbidden(*args):
        raise AssertionError("a tree of the walk was interned again")

    fold, added = partitions._fold, Counter()

    def counted_fold(pk, classes, states, ids):
        before = set(states)
        states = fold(pk, classes, states, ids)
        added.update(set(states) - before)
        return states

    monkeypatch.setattr(ClassTable, "_down_pass", forbidden)
    monkeypatch.setattr(partitions, "_fold", counted_fold)
    walk = list(free_trees(10))
    for t in walk:
        u_polynomial(t)
    classes, states = _walk_memo(walk[0])
    levels = [c for c, size in enumerate(classes.size) if 2 * size <= 10]
    assert levels == list(range(17))  # 1 + 1 + 2 + 4 + 9 rooted classes
    assert {c: added[c] for c in levels} == dict.fromkeys(levels, 1)
    assert all(2 * classes.size[c] > 10 for c in set(added) - set(levels))
    assert sorted(states) == levels


def test_a_walk_memo_keeps_only_classes_of_half_the_vertices():
    walk = list(free_trees(12))
    assert "_fold_memo" not in vars(vars(walk[0])["_class"][0])  # made on the first close
    for t in walk:
        fingerprint(t)
    classes, states = _walk_memo(walk[0])
    assert len(states) == 37  # 1 + 1 + 2 + 4 + 9 + 20 rooted classes
    assert all(2 * classes.size[c] <= 12 for c in states)


def test_threads_closing_trees_of_one_walk_read_the_single_thread_texts(monkeypatch):
    # the walk's memo shares one packing and its table one id count: both
    # grow under the fold lock, as one thread drives the walk on and the
    # others close its first trees, half of them last tree first
    walk = free_trees(10)
    head = [next(walk) for _ in range(60)]
    want = [fingerprint(_plain(t)) for t in head]
    fold, intern, unlocked = partitions._fold, ClassTable._intern, []

    def locked_fold(pk, classes, states, ids):
        if not partitions._FOLD_LOCK.locked():
            unlocked.append(ids)
        return fold(pk, classes, states, ids)

    def locked_intern(classes, *key):
        if not partitions._FOLD_LOCK.locked():
            unlocked.append(key)
        return intern(classes, *key)

    monkeypatch.setattr(partitions, "_fold", locked_fold)
    monkeypatch.setattr(ClassTable, "_intern", locked_intern)
    orders = [range(len(head)), range(len(head))[::-1]] * 2
    got: list[dict] = [{} for _ in orders]
    tail: list = []
    start = threading.Barrier(len(orders) + 1)

    def read(out, order):
        start.wait(timeout=60)
        for i in order:
            out[i] = fingerprint(head[i])

    def drive():
        start.wait(timeout=60)
        tail.extend(walk)

    threads = [threading.Thread(target=read, args=(g, order)) for g, order in zip(got, orders)]
    threads.append(threading.Thread(target=drive))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert all([g[i] for i in range(len(head))] == want for g in got)
    assert len(head) + len(tail) == 106 and not unlocked
    classes, states = _walk_memo(head[0])
    assert states and all(classes._ids[key] == c for c, key in enumerate(classes.keys))
    assert [fingerprint(t) for t in tail] == [fingerprint(_plain(t)) for t in tail]


def test_expression_refuses_parts_that_are_not_a_tuple():
    # a sorted list is refused as a list, not as unsorted
    for parts in ([2, 1], [], range(2, 0, -1)):
        with pytest.raises(TreeInputError, match="^expression parts must be a tuple, got"):
            Expression(parts)
    assert Expression.of([1, 2]).parts == (2, 1)


def test_count_partitions():
    assert count_partitions(path(1, 1, 1, 1), E(2, 2)) == 1
    assert count_partitions(star(1, 1, 1, 1), E(2, 2)) == 0
    t = path(2, 3, 1)
    assert count_partitions(t, E(t.total_weight)) == 1
    assert count_partitions(t, E(5)) == 0  # wrong total


def test_count_shaped_partitions_five_path():
    five = path(1, 1, 1, 1, 1)
    assert count_shaped_partitions(five, 3, E(2, 2, 1)) == 4
    assert count_shaped_partitions(five, 3, E(2, 1, 1, 1)) == 2
    assert count_shaped_partitions(five, 2, E(3, 1, 1)) == 2
    assert count_partitions(five, E(3, 1, 1)) == 3
    with pytest.raises(TreeInputError):
        count_shaped_partitions(five, 3, E(3, 1, 1))  # lacks a 2-part


def test_is_refinement():
    assert is_refinement(E(2, 1, 1, 1), E(2, 2, 1), 3, 5)
    assert is_refinement(E(2, 2, 1), E(2, 2, 1), 3, 5)
    assert not is_refinement(E(2, 3), E(2, 2, 1), 3, 5)
    with pytest.raises(TreeInputError):
        is_refinement(E(2, 2), E(2, 2, 1), 3, 5)


def test_is_refinement_partial_order():
    exprs = [E(3, 2, 2), E(3, 2, 1, 1), E(3, 1, 1, 1, 1), E(3, 2, 2) ]
    js = 4
    w = 7
    # reflexive, antisymmetric, transitive on 4-expressions of 7
    pool = [e for e in exprs if e.is_j_expression(js, w)]
    for a in pool:
        assert is_refinement(a, a, js, w)
    assert is_refinement(E(3, 1, 1, 1, 1), E(3, 2, 2), js, w)
    assert is_refinement(E(3, 2, 1, 1), E(3, 2, 2), js, w)
    assert not is_refinement(E(3, 2, 2), E(3, 2, 1, 1), js, w)
    assert is_refinement(E(3, 1, 1, 1, 1), E(3, 2, 1, 1), js, w)


def test_is_refinement_deep_multisets():
    # 1,500 parts: neither the grouping search nor the sub-multiset walk
    # may recurse once per part
    ones = E(*([1] * 1500), 1500)
    assert is_refinement(ones, E(1500, 1500), 1500, 3000)
    assert is_refinement(ones, ones, 1500, 3000)
    assert not is_refinement(E(*([2] * 750), 1500), E(1500, 1499, 1), 1500, 3000)


def test_is_refinement_refuses_fewer_or_larger_parts_without_search(monkeypatch):
    calls = []
    search = partitions.sub_multisets
    monkeypatch.setattr(partitions, "sub_multisets", lambda *a: calls.append(a) or search(*a))
    # the side (20, 1x16) against sides of 36 with fewer parts; (10, 10)
    # against (11, 9), whose largest part no coarse part can hold
    coarse = E(36, 20, *[1] * 16)
    for fine in (E(36, 36), E(36, 35, 1), E(36, 20, *[2] * 8), E(36, 21, *[1] * 15)):
        assert not is_refinement(fine, coarse, 36, 72)
    assert not is_refinement(E(20, 11, 9), E(20, 10, 10), 20, 40)
    assert calls == []
    assert is_refinement(E(36, *[1] * 36), coarse, 36, 72)
    assert calls


def _groupable_brute(fine, coarse):
    """Try every assignment of fine parts to coarse parts."""
    return any(
        all(sum(f for f, g in zip(fine, groups) if g == i) == c for i, c in enumerate(coarse))
        for groups in product(range(len(coarse)), repeat=len(fine))
    )


@st.composite
def fine_and_coarse(draw):
    """Coarse parts and a random composition of their sum into at most 8 parts."""
    coarse = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    total, fine = sum(coarse), []
    while total and len(fine) < 7:
        fine.append(draw(st.integers(1, total)))
        total -= fine[-1]
    if total:
        fine.append(total)
    return fine, coarse


@settings(max_examples=200, deadline=None)
@given(fine_and_coarse())
def test_is_refinement_matches_assignment_oracle(pair):
    fine, coarse = pair
    # a shared part of weight 7 is the designated (w - j)-part
    w = sum(fine) + 7
    assert is_refinement(E(7, *fine), E(7, *coarse), w - 7, w) == _groupable_brute(fine, coarse)


def test_q_integer_matches_its_sum():
    for k in range(-1, 8):
        for base in range(-4, 9):
            assert q_integer(k, base) == sum(base**i for i in range(k)), (k, base)
    assert q_integer(3, 2**40) == 1 + 2**40 + 2**80


def test_q_chromatic_hand_values():
    single = WeightedTree(1, (), (1,))
    assert q_chromatic(single, 2, 2, "colourings") == 3
    assert q_chromatic(single, 2, 2, "subsets") == 3
    two = path(1, 1)
    assert q_chromatic(two, 2, 2, "colourings") == 4
    assert q_chromatic(two, 2, 2, "subsets") == 4
    assert q_chromatic(path(1, 1, 1), 1, 2, "colourings") == 0
    assert q_chromatic(path(1, 1, 1), 1, 2, "subsets") == 0


def test_q_dichromate_hand_values():
    single = WeightedTree(1, (), (1,))
    for x in (-1, 0, 3):
        assert q_dichromate(single, x, 2, 2) == 3
    two = path(1, 1)
    assert q_dichromate(two, 1, 1, 2) == 2
    assert q_dichromate(two, 0, 2, 2) == 9


def test_potts_dichromate_hand_values():
    two = path(1, 1)
    assert potts_dichromate(two, 1, 1, 2, 2, "subsets") == 8
    assert potts_dichromate(two, 1, 1, 2, 2, "colourings") == 8
    single = WeightedTree(1, (), (1,))
    for x in (0, 1, 5):
        assert potts_dichromate(single, x, 2, 2, 2, "subsets") == 6
    assert potts_dichromate(two, 0, 2, 2, 2, "subsets") == 36
    assert potts_dichromate(two, 0, 2, 2, 2, "colourings") == 36


def test_potts_modes_agree_on_random_weighted_trees():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        t = WeightedTree(
            n,
            tuple((rng.randrange(i), i) for i in range(1, n)),
            tuple(rng.randint(1, 3) for _ in range(n)),
        )
        for k in (1, 2, 3):
            for q in (2, 3):
                assert q_chromatic(t, k, q, "subsets") == q_chromatic(t, k, q, "colourings")
                for x in (0, 1, 2):
                    assert potts_dichromate(t, x, k, q, 2, "subsets") == potts_dichromate(
                        t, x, k, q, 2, "colourings"
                    )


@settings(max_examples=100, deadline=None)
@given(
    weighted_trees(max_n=9),
    st.sampled_from((-1, 0, 1, 2)),
    st.sampled_from((1, 2, 3)),
    st.sampled_from((2, 3)),
    st.sampled_from((2, 3)),
    st.randoms(use_true_random=False),
)
def test_evaluators_match_subset_oracle(t, x, k, q, r, rng):
    m = brute_subset_sum(t, -1, lambda p: q_integer(k, q**p))
    b = brute_subset_sum(t, x, lambda p: q_integer(k, q**p))
    br = brute_subset_sum(t, x, lambda p: sum(r ** (p * q**i) for i in range(k)))
    for u in (t, random_relabeling(t, rng)):
        assert q_chromatic(u, k, q, "subsets") == m
        assert q_dichromate(u, x, k, q) == b
        assert potts_dichromate(u, x, k, q, r, "subsets") == br


def test_count_partitions_reads_the_dp_table(monkeypatch):
    def no_wrap(*_):
        raise AssertionError("count_partitions wrapped a table term")

    def no_brute(*_):
        raise AssertionError("count_partitions left the DP")

    e311, e22 = E(3, 1, 1), E(2, 2)
    monkeypatch.setattr(Expression, "_trusted", classmethod(no_wrap))
    monkeypatch.setattr(partitions, "_u_table_brute", no_brute)
    assert count_partitions(path(1, 1, 1, 1, 1), e311) == 3
    assert count_partitions(star(1, 1, 1, 1), e22) == 0


@settings(max_examples=60, deadline=None)
@given(
    weighted_trees(max_n=14, max_weight=4),
    st.sampled_from((-1, 0, 1, 2)),
    st.sampled_from((1, 2, 3)),
    st.sampled_from((2, 3)),
    st.sampled_from((2, 3)),
    st.randoms(use_true_random=False),
)
def test_evaluators_match_table_route(t, x, k, q, r, rng):
    m = table_evaluate(t, -1, lambda p: q_integer(k, q**p))
    b = table_evaluate(t, x, lambda p: q_integer(k, q**p))
    br = table_evaluate(t, x, lambda p: sum(r ** (p * q**i) for i in range(k)))
    for u in (t, random_relabeling(t, rng)):
        assert q_chromatic(u, k, q, "subsets") == m
        assert q_dichromate(u, x, k, q) == b
        assert potts_dichromate(u, x, k, q, r, "subsets") == br


def test_value_bits_cap():
    # w(T) = 2^16: at k = y = 1 every part contributes 1 and no power of q is
    # built; from k = 2 on a part's value would reach 2^16 bits
    t = star(1, *(2**i for i in range(16)))
    assert q_chromatic(t, 1, 2) == 0
    assert q_dichromate(t, 1, 1, 2) == 2**16
    refused = (
        lambda: q_chromatic(t, 2, 2),
        lambda: q_chromatic(t, 2, 2, "colourings"),
        lambda: q_dichromate(t, 0, 2, 2),
        lambda: potts_dichromate(t, 0, 1, 2, 2),
        lambda: potts_dichromate(t, 0, 1, 2, 2, "colourings"),
    )
    for call in refused:
        with pytest.raises(ResourceBoundError, match="estimated 65536 bits; cap is VALUE_BITS_CAP=32768"):
            call()
    # q**(k-1) alone passes the cap, and is not built, for a huge k
    with pytest.raises(ResourceBoundError, match="VALUE_BITS_CAP"):
        potts_dichromate(path(1, 1), 0, 10**9, 2, 2)


def test_dp_state_cap(monkeypatch):
    monkeypatch.setattr(partitions, "DP_STATE_CAP", 1000)
    with pytest.raises(ResourceBoundError, match="cap is 1000"):
        u_polynomial(path(*([1] * 60)))


def test_merge_refuses_the_key_that_would_pass_the_cap(monkeypatch):
    # with the cap at half a unit 30-path's largest state below the closing
    # merge, a merge below it refuses the key that would pass the cap
    t = path(*([1] * 30))
    sizes = []
    merge = partitions._merge

    def counted_merge(*args):
        st = merge(*args)
        sizes.append(len(st))
        return st

    monkeypatch.setattr(partitions, "_merge", counted_merge)
    u_polynomial(t)
    top = max(sizes)
    assert top < len(u_polynomial(t).counts)
    monkeypatch.setattr(partitions, "_merge", merge)
    cap = top // 2
    monkeypatch.setattr(partitions, "DP_STATE_CAP", cap)
    with pytest.raises(ResourceBoundError, match=f"reached {cap + 1} states at one vertex; cap is {cap}$") as info:
        u_polynomial(t)
    assert info.traceback[-1].name == "_merge"


def test_evaluator_refuses_the_open_weight_that_would_pass_the_cap(monkeypatch):
    # each leaf of a new power-of-two weight doubles the centre's open
    # weights: 64 after six leaves, 128 after seven, so a cap of 100 is
    # passed inside the seventh merge, at its 101st open weight
    t = star(1, *(2**i for i in range(10)))
    monkeypatch.setattr(partitions, "DP_STATE_CAP", 100)
    for evaluate in (lambda: q_dichromate(t, 1, 2, 2), lambda: q_chromatic(t, 2, 2)):
        with pytest.raises(ResourceBoundError, match="reached 101 open weights at one vertex; cap is 100$"):
            evaluate()
    # six leaves make exactly 64 open weights, which a cap of 64 admits
    six = star(1, *(2**i for i in range(6)))
    monkeypatch.setattr(partitions, "DP_STATE_CAP", 64)
    assert q_dichromate(six, 1, 2, 2) == brute_subset_sum(six, 1, lambda w: 1 + 2**w)


def test_enumeration_caps_name_the_cap_and_the_size():
    with pytest.raises(
        ResourceBoundError,
        match=r"walks 2\^22 edge subsets; cap is BRUTE_VERTEX_CAP=22 vertices, got n=23",
    ):
        count_shaped_partitions(path(*[1] * 23), 11, E(12, 11))
    with pytest.raises(ResourceBoundError, match=r"3\^13 colourings exceed COLOURING_ENUM_CAP=1048576"):
        q_chromatic(path(*[1] * 13), 3, 2, "colourings")
    with pytest.raises(ResourceBoundError, match=r"2\^21 colourings exceed COLOURING_ENUM_CAP=1048576"):
        potts_dichromate(path(*[1] * 21), 0, 2, 2, 2, "colourings")

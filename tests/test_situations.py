import random
import sys
import threading
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utrees import partitions, situations
from utrees.embedding import good_encode
from utrees.errors import (
    InternalInconsistencyError,
    MissingTableEntryError,
    ResourceBoundError,
    TreeInputError,
)
from utrees.generate import free_trees, random_relabeling, random_weighted_tree
from utrees.partitions import Expression, u_polynomial
from utrees.shapecount import shaped_count
from utrees.situations import (
    WHOLE_TREE,
    Situation,
    build_containment_table,
    enumerate_situations,
    hanging_classes,
    occurrences_by_inclusion_exclusion,
)
from utrees.trees import WeightedTree, code_to_rooted_tree, hanging_subtrees, rooted_code

import helpers
from helpers import (
    ContainmentForest,
    _feasible_pairs,
    brute_hang_count,
    brute_rooted_isomorphic,
    brute_sides,
    build_containment_forest,
    count_forest_assignments,
    cut_side,
    encodable_trees,
    occurrences_by_all_pair_sets,
    occurrences_by_enumeration,
    occurring_by_enumeration,
    path,
    rooted,
    spider,
    star,
    weighted_trees,
)


def vertex(w=1):
    return rooted(WeightedTree(1, (), (w,)))


def p2():
    return rooted(path(1, 1), 0)


def test_situation_sorting():
    s = Situation.of([p2(), vertex()])
    assert [c.weight for c in s.components] == [1, 2]
    with pytest.raises(TreeInputError):
        Situation((p2(),))


def test_situation_codes_computed_once(monkeypatch):
    calls = []
    real = situations.rooted_code
    monkeypatch.setattr(situations, "rooted_code", lambda c: calls.append(c) or real(c))
    s = Situation.of([p2(), vertex(), p2()])
    assert len(calls) == 3
    assert s.codes == (real(vertex()), real(p2()), real(p2()))
    assert s.weights == (1, 2, 2) and s.components == (vertex(), p2(), p2())
    assert Situation(s.codes) == s and len(calls) == 3
    with pytest.raises(TreeInputError, match="sorted"):
        Situation(s.codes[::-1])
    with pytest.raises(TreeInputError, match="rooted codes"):
        Situation((vertex(), p2()))
    # enumeration reads its codes off the tree's index
    sits = enumerate_situations(path(1, 1, 1, 1, 1, 1), 3)
    assert sits and len(calls) == 3
    assert all(s.codes == tuple(real(c) for c in s.components) for s in sits)


def test_enumerate_situations_five_path():
    five = path(1, 1, 1, 1, 1)
    sits = enumerate_situations(five, 3)
    keys = sorted(tuple(c.weight for c in s.components) for s in sits)
    assert keys == [(1, 1, 1), (1, 2)]
    sits2 = enumerate_situations(five, 2)
    assert [tuple(c.weight for c in s.components) for s in sits2] == [(1, 1)]
    with pytest.raises(TreeInputError):
        enumerate_situations(five, 4)


def test_enumerate_situations_four_star():
    sits = enumerate_situations(star(1, 1, 1, 1), 2)
    assert len(sits) == 1
    assert tuple(c.weight for c in sits[0].components) == (1, 1)


def test_occurrences_oracle_five_path():
    five = path(1, 1, 1, 1, 1)
    assert occurrences_by_enumeration(five, Situation.of([vertex(), p2()])) == 2
    assert occurrences_by_enumeration(five, Situation.of([vertex()] * 3)) == 0


def test_occurrences_oracle_spider():
    sp = spider(3, 3)
    assert sp.n == 10
    s = Situation.of([p2(), p2()])
    assert occurrences_by_enumeration(sp, s) == 6


def test_forest_single_arc():
    s = Situation.of([p2(), p2()])
    # one arc is no cycle, whichever way it points between equal classes
    for arc in ((0, 1), (1, 0)):
        forest = build_containment_forest({arc}, s)
        assert forest is not None
        assert forest.labels == (frozenset({0}), frozenset({1}))
        assert forest.arcs == frozenset({arc})
        forest.validate(s)


def test_forest_two_cycle_contracts():
    s = Situation.of([p2(), p2()])
    forest = build_containment_forest({(0, 1), (1, 0)}, s)
    assert forest is not None
    assert len(forest.labels) == 1
    assert forest.labels[0] == frozenset({0, 1})
    assert not forest.arcs


def test_forest_saturation_rejects_incomparable_equal_sizes():
    # two equal-size, non-isomorphic targets forced to contain a common vertex
    a = rooted(path(1, 2), 0)
    b = rooted(path(1, 3), 0)
    s = Situation.of([vertex(), a, b])
    i_v = s.components.index(vertex())
    others = [i for i in range(3) if i != i_v]
    f = {(i_v, others[0]), (i_v, others[1])}
    assert build_containment_forest(f, s) is None


def test_forest_infeasible_pair():
    s = Situation.of([vertex(), p2()])
    i_v = 0 if s.components[0].n == 1 else 1
    # the 2-path cannot sit inside the single vertex
    assert build_containment_forest({(1 - i_v, i_v)}, s) is None


def test_count_forest_assignments_spider():
    sp = spider(3, 3)
    code = rooted_code(p2())
    tbl = build_containment_table(sp, [p2()])
    empty = ContainmentForest((), (), frozenset())
    assert count_forest_assignments(WHOLE_TREE, empty, tbl) == 1
    single = ContainmentForest((frozenset({0}),), (code,), frozenset())
    assert count_forest_assignments(WHOLE_TREE, single, tbl) == 3
    chain = ContainmentForest(
        (frozenset({0}), frozenset({1})), (code, code), frozenset({(0, 1)})
    )
    assert count_forest_assignments(WHOLE_TREE, chain, tbl) == 3
    with pytest.raises(MissingTableEntryError):
        count_forest_assignments(WHOLE_TREE, single, build_containment_table(sp, []))


def test_inclusion_exclusion_spider():
    sp = spider(3, 3)
    s = Situation.of([p2(), p2()])
    tbl = build_containment_table(sp, s.components)
    assert tbl.count(rooted_code(p2()), WHOLE_TREE) == 3
    assert occurrences_by_inclusion_exclusion(sp, s, tbl) == 6


def test_inclusion_exclusion_five_path():
    five = path(1, 1, 1, 1, 1)
    assert occurrences_by_inclusion_exclusion(five, Situation.of([vertex(), p2()])) == 2
    assert occurrences_by_inclusion_exclusion(five, Situation.of([vertex()] * 3)) == 0


def test_unrealizable_component_gives_zero():
    five = path(1, 1, 1, 1, 1)
    s = Situation.of([vertex(), vertex(2)])  # no weight-2 vertex in the tree
    assert occurrences_by_inclusion_exclusion(five, s) == 0


def test_situations_of_five_or_more_components():
    # k single vertices on a star with m unit leaves: m!/(m-k)! ordered choices
    five = Situation.of([vertex()] * 5)
    big = star(1, *[1] * 11)
    assert occurrences_by_inclusion_exclusion(big, five) == 11 * 10 * 9 * 8 * 7
    assert occurrences_by_enumeration(big, five) == 55_440
    # 1,771,561 tuples of leaves, of which the disjoint ones are filled in
    six = Situation.of([vertex()] * 6)
    assert occurrences_by_enumeration(big, six) == occurrences_by_inclusion_exclusion(big, six) == 332_640
    heavy = star(6, *[1] * 6)
    for k in (5, 6):
        s = Situation.of([vertex()] * k)
        want = occurrences_by_enumeration(heavy, s)
        assert occurrences_by_inclusion_exclusion(heavy, s) == want == 720
    # leaves nest in the 2-paths at the ends of the legs
    sp = spider(5, 3)
    mixed = Situation.of([vertex()] * 3 + [p2()] * 2)
    want = occurrences_by_enumeration(sp, mixed)
    assert occurrences_by_inclusion_exclusion(sp, mixed) == want == 120
    # the unit 12-path has two leaves: factors 2, 1, 0, and the fourth would be -1
    assert occurrences_by_inclusion_exclusion(path(*[1] * 12), five) == 0


def test_negative_factor_is_an_inconsistency():
    t = spider(3, 3)
    tbl = build_containment_table(t, [vertex(), p2()])
    tbl.class_counts[(tbl.ids[rooted_code(vertex())], tbl.ids[rooted_code(p2())])] = 4
    with pytest.raises(InternalInconsistencyError):
        occurrences_by_inclusion_exclusion(t, Situation.of([vertex(), p2()]), tbl)


@settings(max_examples=60, deadline=None)
@given(weighted_trees(max_n=12, max_weight=3), st.randoms(use_true_random=False))
def test_walk_lists_the_nonzero_products_in_enumeration_order(t, rng):
    # the pruned walk against every situation's heaviest-first product: the
    # same situations, m and symmetry factors, in the same order, on the
    # tree as drawn and relabelled
    w = t.total_weight
    for tree in (t, random_relabeling(t, rng)):
        tbl = build_containment_table(tree, hanging_classes(tree))
        for j in range(1, (w + 1) // 2 + 1):
            got = [(m, sym) for m, sym, _ in tbl.occurring_of(j)]
            assert got == [(m, sym) for _, m, sym in occurring_by_enumeration(tree, j, tbl)]


def test_walk_refuses_a_negative_factor():
    # the unit star's three leaves: two leaves take 3 * 2 ordered pairs
    t = star(1, 1, 1, 1)
    leaf = rooted_code(vertex())
    tbl = build_containment_table(t, hanging_classes(t))
    assert [(m, sym) for m, sym, _ in tbl.occurring_of(2)] == [(6, 2)]
    # a leaf counted 3 times inside a leaf leaves 0 sides for the second:
    # the branch is cut, as the product stops at a zero factor
    tbl = build_containment_table(t, hanging_classes(t))
    tbl.class_counts[(tbl.ids[leaf], tbl.ids[leaf])] = 3
    assert tbl.occurring_of(2) == ()
    # 5 times leaves -2, which no consistent table gives
    tbl = build_containment_table(t, hanging_classes(t))
    tbl.class_counts[(tbl.ids[leaf], tbl.ids[leaf])] = 5
    with pytest.raises(InternalInconsistencyError, match="-2 sides"):
        tbl.occurring_of(2)
    with pytest.raises(InternalInconsistencyError, match="-2 sides"):
        occurrences_by_inclusion_exclusion(t, Situation.of([vertex(), vertex()]), tbl)


def test_walk_below_the_recursion_limit():
    # 1,050 of the 1,100 unit leaves around a centre of weight 1,000: one
    # situation, deeper than the interpreter's default recursion limit
    t = star(1000, *[1] * 1100)
    tbl = build_containment_table(t, hanging_classes(t))
    [(m, sym, splits)] = tbl.occurring_of(1050)
    assert m == factorial(1100) // factorial(50)
    assert sym == factorial(1050)
    assert splits == {(1,) * 1050: 1}


def test_occurring_situations_past_the_cap(monkeypatch):
    # the 2,1 path of eight vertices has 3 occurring situations of weight 6
    # among 14 (tests/test_cli.py runs it under a cap of 5)
    t = path(1, 2, 1, 2, 1, 2, 1, 2)
    monkeypatch.setattr(situations, "MAX_SITUATIONS", 2)
    tbl = build_containment_table(t, hanging_classes(t))
    with pytest.raises(ResourceBoundError, match="weight 6 exceed MAX_SITUATIONS=2: reached 3"):
        tbl.occurring_of(6)


def test_pipeline_matches_oracle_four_components():
    # four-legged weighted spider: all four components interchangeable
    sp = WeightedTree(
        9,
        ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)),
        (8, 1, 1, 1, 1, 1, 1, 1, 1),
    )
    s = Situation.of([p2()] * 4)
    assert occurrences_by_enumeration(sp, s) == 24
    assert occurrences_by_inclusion_exclusion(sp, s) == 24
    # mixed component sizes with nesting opportunities
    host = path(*([1] * 10), 4)
    mixed = Situation.of([vertex(), vertex(), p2(), rooted(path(1, 1, 1), 0)])
    assert occurrences_by_inclusion_exclusion(
        host, mixed
    ) == occurrences_by_enumeration(host, mixed)


def _every_situation(t: WeightedTree):
    for target in range(2, (t.total_weight + 1) // 2 + 1):
        yield from enumerate_situations(t, target)


def test_pipeline_matches_oracle_exhaustive_small():
    for n in range(2, 7):
        for t in free_trees(n):
            for s in _every_situation(t):
                assert occurrences_by_inclusion_exclusion(t, s) == occurrences_by_enumeration(t, s)


def test_pipeline_matches_oracle_random_weighted():
    rng = random.Random(31)
    for _ in range(25):
        t = random_weighted_tree(rng.randint(3, 7), 3, rng)
        for s in _every_situation(t):
            assert occurrences_by_inclusion_exclusion(t, s) == occurrences_by_enumeration(t, s)


def _small_situations(t: WeightedTree):
    for target in range(2, t.total_weight // 2 + 1):
        for s in enumerate_situations(t, target):
            if s.size <= 3:
                yield s


@settings(max_examples=100, deadline=None)
@given(weighted_trees(max_n=7, max_weight=3), st.randoms(use_true_random=False))
def test_compiled_route_matches_oracle(t, rng):
    t2 = random_relabeling(t, rng)
    for s in _every_situation(t):
        want = occurrences_by_enumeration(t, s)
        assert occurrences_by_inclusion_exclusion(t, s) == want
        assert occurrences_by_inclusion_exclusion(t2, s) == want


@settings(max_examples=40, deadline=None)
@given(weighted_trees(max_n=6))
def test_containment_table_matches_brute_counts(t):
    classes = hanging_classes(t)
    tbl = build_containment_table(t, classes)
    for s in classes:
        code = rooted_code(s)
        hangs = [h for h in hanging_subtrees(t) if brute_rooted_isomorphic(s, h.component)]
        assert tbl.count(code, WHOLE_TREE) == len(hangs)
        for h in classes:
            assert tbl.count(code, rooted_code(h)) == brute_hang_count(s, h)


@settings(max_examples=60, deadline=None)
@given(weighted_trees(max_n=12, max_weight=3), st.randoms(use_true_random=False))
def test_reused_and_fresh_indexes_build_the_same_table(t, rng):
    # the table of hanging_classes(t) reuses their index; a plain list of
    # the same classes, or the classes with an equal but distinct tree,
    # interns them on a fresh index, and all three count alike
    for tree in (t, random_relabeling(t, rng)):
        classes = hanging_classes(tree)
        reused = build_containment_table(tree, classes)
        listed = build_containment_table(tree, list(classes))
        equal = build_containment_table(WeightedTree(tree.n, tree.edges, tree.weights), classes)
        assert reused.index is classes.index
        assert listed.index is not classes.index and equal.index is not classes.index
        # the representatives hold no reference to the index
        assert not any(v is classes.index for r in classes for v in vars(r).values())
        codes = [rooted_code(c) for c in classes]
        w = tree.total_weight
        for tbl in (listed, equal):
            assert len(tbl.tree_counts) == len(reused.tree_counts) == len(codes)
            assert len(tbl.class_counts) == len(reused.class_counts) == len(codes) ** 2
            for j in range(1, (w + 1) // 2 + 1):
                assert tbl.occurring_of(j) == reused.occurring_of(j)
            for code in codes:
                for host in [WHOLE_TREE] + codes:
                    assert tbl.count(code, host) == reused.count(code, host)


def test_table_route_makes_no_hang_count_call(monkeypatch):
    sp = spider(3, 3)
    # the table is built from fresh trees, so s has built no component tree
    tbl = build_containment_table(sp, [p2(), vertex()])
    s = Situation.of([p2(), p2(), vertex()])

    def forbidden(*args):
        raise AssertionError("hang_count called or a tree built on the table route")

    monkeypatch.setattr(helpers, "hang_count", forbidden)
    monkeypatch.setattr(situations, "code_to_rooted_tree", forbidden)
    assert occurrences_by_inclusion_exclusion(sp, s, tbl) == occurrences_by_enumeration(sp, s)


def _forest_key(forest):
    return None if forest is None else forest.canonical_key()


def test_table_feasibility_matches_hang_count_route():
    # criterion 10's corpus: every pair set of every small situation
    rng = random.Random(110)
    trees = [t for n in range(2, 7) for t in free_trees(n)]
    for _ in range(30):
        trees.append(random_weighted_tree(rng.randint(2, 6), 3, rng))
    compared = 0
    for t in trees:
        tbl = build_containment_table(t, hanging_classes(t))
        for s in _small_situations(t):
            feasible = frozenset(_feasible_pairs(tbl, s.codes))
            pairs = [(i, j) for i in range(s.size) for j in range(s.size) if i != j]
            for size in range(1, len(pairs) + 1):
                for f in combinations(pairs, size):
                    from_table = build_containment_forest(f, s, feasible)
                    from_trees = build_containment_forest(f, s)
                    assert _forest_key(from_table) == _forest_key(from_trees), (t, s, f)
                    compared += 1
    assert compared > 1000


def test_each_pair_set_forest_matches_brute_count():
    # one intersection term of the inclusion-exclusion at a time, against the
    # tuples of sides, one of each component's class, with side i inside side
    # j for every (i, j) in the pair set; sides are cut by breadth-first search
    rng = random.Random(108)
    trees = [t for n in range(2, 8) for t in free_trees(n)]
    trees += [random_weighted_tree(rng.randint(2, 7), 3, rng) for _ in range(40)]
    checked = nonzero = 0
    for t in trees:
        tbl = build_containment_table(t, hanging_classes(t))
        sides = [(rooted_code(cut_side(t, vs, r)), vs) for _, r, vs in brute_sides(t)]
        for s in _small_situations(t):
            tuples = list(product(*([vs for code, vs in sides if code == c] for c in s.codes)))
            feasible = frozenset(_feasible_pairs(tbl, s.codes))
            pairs = [(i, j) for i in range(s.size) for j in range(s.size) if i != j]
            for size in range(1, len(pairs) + 1):
                for f in combinations(pairs, size):
                    want = sum(all(tup[i] <= tup[j] for i, j in f) for tup in tuples)
                    forest = build_containment_forest(f, s, feasible)
                    got = 0 if forest is None else count_forest_assignments(WHOLE_TREE, forest, tbl)
                    assert got == want, (t, s, f)
                    checked += 1
                    nonzero += got > 0
    assert checked > 6000 and nonzero > 3000


def _check_all_pair_sets(t: WeightedTree) -> int:
    """Compare the heaviest-first product with the all-pair-sets sum on every
    situation of t with at most four components; returns how many."""
    tbl = build_containment_table(t, hanging_classes(t))
    checked = 0
    for s in _every_situation(t):
        if s.size <= 4:
            got = occurrences_by_inclusion_exclusion(t, s, tbl)
            assert got == occurrences_by_all_pair_sets(s, tbl), (t, s)
            checked += 1
    return checked


# The two tests below keep the names they had when the compiled route summed
# over orbits of pair sets; the route they check is now the product.
def test_orbit_compile_matches_all_pair_sets_on_criterion_6_corpus():
    rng = random.Random(105)
    trees = [t for n in range(2, 8) for t in free_trees(n)]
    trees += [random_weighted_tree(rng.randint(2, 7), 3, rng) for _ in range(100)]
    assert sum(_check_all_pair_sets(t) for t in trees) > 1000


@settings(max_examples=60, deadline=None)
@given(weighted_trees(max_n=7, max_weight=3), st.randoms(use_true_random=False))
def test_orbit_compile_matches_all_pair_sets(t, rng):
    _check_all_pair_sets(t)
    _check_all_pair_sets(random_relabeling(t, rng))


# The table's class U-tables come from one DP state per class, built from
# the states of its children; each must equal the tree DP on the class's
# representative.


def _tree_dp_tables(idx, ids) -> dict:
    return {c: u_polynomial(idx.classes.rep(c).tree).counts for c in ids}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 2**40]).flatmap(lambda w: weighted_trees(max_n=12, max_weight=w)),
    st.randoms(use_true_random=False),
)
def test_class_tables_equal_the_tree_dp(t, rng):
    t = random_relabeling(t, rng)
    classes = hanging_classes(t)
    want = _tree_dp_tables(classes.index, classes.ids)
    # states are built in any order: a class may find its children's
    # states there, or build them first
    by_id = build_containment_table(t, classes)
    ids = list(classes.ids)
    rng.shuffle(ids)
    for c in ids:
        assert by_id._u_table(c) == want[c]
    by_code = build_containment_table(t, classes)
    for c, rep in reversed(list(zip(classes.ids, classes))):
        assert by_code.u_table(rep.code) == want[c]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 2**40]).flatmap(lambda w: weighted_trees(max_n=4, max_weight=w)),
    st.lists(weighted_trees(max_n=12, max_weight=2**40), min_size=1, max_size=3),
)
def test_class_tables_of_foreign_components_equal_the_tree_dp(t, others):
    # components from other trees can weigh more, and have more vertices,
    # than the table's tree; every packed field must still hold their parts
    tbl = build_containment_table(t, [rooted(o, 0) for o in others])
    want = _tree_dp_tables(tbl.index, tbl.ids.values())
    for code, c in tbl.ids.items():
        assert tbl.u_table(code) == want[c]


def test_class_tables_larger_than_the_tree():
    # the tree weighs 10, 10, so fields sized by it alone hold 3 parts of
    # one weight; a 6-vertex component closing four unit leaves and then a
    # leaf of weight 4 would carry the ones into the 4's field, packing
    # {1,1,1,1} and {4} alike
    t = path(10, 10)
    comps = [rooted(star(1, 4, 1, 1, 1, 1), 0), rooted(path(1, 1, 1, 1, 1), 0)]
    tbl = build_containment_table(t, comps)
    for code in tbl.ids:
        assert tbl.u_table(code) == u_polynomial(code_to_rooted_tree(code).tree).counts
    star_table = tbl.u_table(rooted_code(comps[0]))
    assert star_table[Expression.of([5, 4])] == star_table[Expression.of([5, 1, 1, 1, 1])] == 1


def test_threads_sharing_a_table_read_the_single_thread_tables(monkeypatch):
    # the class states share one packing; its fields are handed out under
    # the fold lock, so threads never give two part weights one field; the
    # tree's own table (WHOLE_TREE) closes two of those states
    t = random_weighted_tree(16, 2**40, random.Random(7))
    classes = hanging_classes(t)
    ids = [*classes.ids, WHOLE_TREE]
    want = {c: build_containment_table(t, classes)._u_table(c) for c in ids}
    shared = build_containment_table(t, classes)
    fold, unlocked = situations.ContainmentTable._fold, []

    def locked_fold(self, cid):
        if not situations._FOLD_LOCK.locked():
            unlocked.append(cid)
        return fold(self, cid)

    monkeypatch.setattr(situations.ContainmentTable, "_fold", locked_fold)
    # more threads than cores, half reading heaviest first
    orders = [ids, ids[::-1]] * 2
    got: list[dict] = [{} for _ in orders]
    start = threading.Barrier(len(orders))

    def read(out, ids):
        start.wait(timeout=60)
        for c in ids:
            out[c] = shared._u_table(c)

    threads = [threading.Thread(target=read, args=(g, ids)) for g, ids in zip(got, orders)]
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
    assert all(g == want for g in got)
    assert shared.states and not unlocked


def test_classes_above_the_fold_size_take_the_tree_dp(monkeypatch):
    k = 20
    arm = tuple((i, i + 1) for i in range(1, k))
    t = WeightedTree(k + 2, ((0, 1), *arm, (0, k + 1)), (k,) + (1,) * (k + 1))
    classes = hanging_classes(t)
    tbl = build_containment_table(t, classes)
    want = _tree_dp_tables(classes.index, classes.ids)
    for c, rep in zip(classes.ids, classes):
        assert tbl.u_table(rep.code) == want[c]
    size = classes.index.classes.size
    assert max(size[c] for c in classes.ids) > situations.FOLD_MAX_SIZE
    assert tbl.states and all(size[c] <= situations.FOLD_MAX_SIZE for c in tbl.states)
    # from its end, the 20-vertex unit path's state holds every partition
    # of each weight below 20, 2,087 keys, where the tree DP, rooted at its
    # centroid, holds at most p(20) = 627; unfolded, a cap between the two
    # does not refuse it, and folded it does
    monkeypatch.setattr(partitions, "DP_STATE_CAP", 1000)
    code = rooted_code(rooted(path(*[1] * k), 0))
    assert build_containment_table(t, classes).u_table(code) == want[tbl.ids[code]]
    monkeypatch.setattr(situations, "FOLD_MAX_SIZE", k)
    with pytest.raises(ResourceBoundError, match="cap is 1000"):
        build_containment_table(t, classes).u_table(code)


# The tree's own table closes the states of the two side classes of its most
# balanced edge in one merge; a tree with one vertex, or whose most balanced
# edge has a side of more than FOLD_MAX_SIZE vertices, takes the tree DP.


# weights up to 2^40 that repeat, so that 20-vertex tables stay small;
# distinct ones are drawn on up to 14 vertices
_LARGE_WEIGHTS = (1, 2, 2**40 - 1, 2**40)


def _large_weights(t: WeightedTree) -> WeightedTree:
    return WeightedTree(t.n, t.edges, tuple(_LARGE_WEIGHTS[w - 1] for w in t.weights))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        weighted_trees(max_n=20, max_weight=3),
        weighted_trees(max_n=20, max_weight=len(_LARGE_WEIGHTS)).map(_large_weights),
        weighted_trees(max_n=14, max_weight=2**40),
        encodable_trees(max_n=8).map(lambda t: good_encode(t).t_prime),
    ),
    st.randoms(use_true_random=False),
)
def test_tree_table_equals_the_tree_dp(t, rng):
    t = random_relabeling(t, rng)
    classes = hanging_classes(t)
    tbl = build_containment_table(t, classes)
    # some class states may be there already, folded for class tables
    for c in rng.sample(classes.ids, rng.randint(0, len(classes.ids))):
        tbl._u_table(c)
    got = tbl.u_table(WHOLE_TREE)
    assert got == u_polynomial(t).counts
    if t.n <= 12:
        assert got == u_polynomial(t, "brute").counts


def _two_stars(k: int) -> WeightedTree:
    # centres 0 and k, each with k - 1 leaves, joined by the edge (0, k)
    edges = [(0, k)] + [(0, v) for v in range(1, k)] + [(k, v) for v in range(k + 1, 2 * k)]
    return WeightedTree(2 * k, tuple(edges), (2,) + (1,) * (2 * k - 1))


def test_tree_table_takes_the_tree_dp_only_past_the_fold_size(monkeypatch):
    # the 20-vertex unit star's sides have 1 and 19 vertices, two 10-vertex
    # stars split 10/10, and one vertex has no edge
    trees = [star(1, *[1] * 19), _two_stars(10), WeightedTree(1, (), (5,))]
    want = [u_polynomial(t).counts for t in trees]
    dps = []
    dp = partitions._u_table_dp

    def counted_dp(t):
        dps.append(t.n)
        return dp(t)

    monkeypatch.setattr(partitions, "_u_table_dp", counted_dp)
    got = [build_containment_table(t, hanging_classes(t)).u_table(WHOLE_TREE) for t in trees]
    assert got == want
    assert dps == [20, 1]


def test_both_tree_table_routes_refuse_past_the_state_cap(monkeypatch):
    # the star's table comes from the tree DP, the two stars' from their
    # sides' states; each refuses a cap one below its table's size
    trees = [star(1, *[1] * 19), _two_stars(10)]
    for t, size in [(t, len(u_polynomial(t).counts)) for t in trees]:
        tbl = build_containment_table(t, hanging_classes(t))
        monkeypatch.setattr(partitions, "DP_STATE_CAP", size - 1)
        with pytest.raises(ResourceBoundError, match=f"cap is {size - 1}$"):
            tbl.u_table(WHOLE_TREE)
        with pytest.raises(ResourceBoundError, match=f"cap is {size - 1}$"):
            u_polynomial(t)
        monkeypatch.setattr(partitions, "DP_STATE_CAP", size)
        assert tbl.u_table(WHOLE_TREE) == u_polynomial(t).counts


def test_shaped_queries_build_no_representative_tree():
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
    assert queries > 100 and len(tbl.states) > 5
    assert not any("tree" in vars(rep) for rep in classes)

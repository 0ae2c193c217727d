import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utrees.errors import ReconstructionError, TreeInputError
from utrees.generate import free_trees, random_relabeling, random_weighted_tree
from utrees import partitions, situations, trees
from utrees.partitions import (
    Expression,
    count_partitions,
    count_shaped_partitions,
    is_refinement,
    u_polynomial,
)
from utrees.shapecount import (
    ShapeCensus,
    analyze_expression,
    nonshaped_count,
    reconstruct_from_census,
    shape_census,
    shaped_count,
)
from utrees.embedding import good_encode
from utrees.situations import (
    Situation,
    build_containment_table,
    enumerate_situations,
    hanging_classes,
    occurrences_by_inclusion_exclusion,
)
from utrees.trees import WeightedTree, isomorphic, rooted_code

from helpers import (
    _decomposition_sum,
    occurrences_by_enumeration,
    occurring_by_enumeration,
    path,
    rooted,
    shape_count,
    situation_corpus,
    star,
    weighted_trees,
)


def E(*parts):
    return Expression.of(parts)


FIVE = path(1, 1, 1, 1, 1)


def test_nonshaped_five_path_j3():
    assert nonshaped_count(FIVE, 3, E(2, 2, 1)) == 2
    assert count_partitions(FIVE, E(2, 2, 1)) == 3


def test_nonshaped_five_path_j2():
    assert nonshaped_count(FIVE, 2, E(3, 1, 1)) == 1


def test_nonshaped_requires_j_expression():
    with pytest.raises(TreeInputError):
        nonshaped_count(FIVE, 3, E(3, 1, 1))


def test_shaped_five_path_pinned_triples():
    # designated totals: (6, 2, 4) at j=3 and (3, 1, 2) at j=2
    e, j = E(2, 2, 1), 3
    assert count_partitions(FIVE, e) * e.parts.count(2) == 6
    assert nonshaped_count(FIVE, j, e) == 2
    assert shaped_count(FIVE, j, e) == 4

    e, j = E(3, 1, 1), 2
    assert count_partitions(FIVE, e) * e.parts.count(3) == 3
    assert nonshaped_count(FIVE, j, e) == 1
    assert shaped_count(FIVE, j, e) == 2


def test_shaped_five_path_two_three():
    assert shaped_count(FIVE, 3, E(3, 2)) == 2
    assert nonshaped_count(FIVE, 3, E(3, 2)) == 0


def test_shaped_matches_enumeration_exhaustive():
    from utrees.partitions import u_polynomial

    for n in range(2, 7):
        for t in free_trees(n):
            w = t.total_weight
            counts = u_polynomial(t).counts
            for j in range(1, (w + 1) // 2 + 1):
                for e in counts:
                    if not e.is_j_expression(j, w):
                        continue
                    assert shaped_count(t, j, e) == count_shaped_partitions(t, j, e), (
                        t,
                        j,
                        e,
                    )


def test_shaped_matches_enumeration_random_weighted():
    rng = random.Random(41)
    from utrees.partitions import u_polynomial

    for _ in range(20):
        n = rng.randint(2, 6)
        t = random_weighted_tree(n, 3, rng)
        w = t.total_weight
        for j in range(1, (w + 1) // 2 + 1):
            for e in u_polynomial(t).counts:
                if not e.is_j_expression(j, w):
                    continue
                assert shaped_count(t, j, e) == count_shaped_partitions(t, j, e)


def test_shaped_isomorphism_invariance():
    from utrees.generate import random_relabeling

    rng = random.Random(43)
    t = random_weighted_tree(6, 2, rng)
    t2 = random_relabeling(t, rng)
    w = t.total_weight
    from utrees.partitions import u_polynomial

    for j in range(1, (w + 1) // 2 + 1):
        for e in u_polynomial(t).counts:
            if e.is_j_expression(j, w):
                assert shaped_count(t, j, e) == shaped_count(t2, j, e)
                assert nonshaped_count(t, j, e) == nonshaped_count(t2, j, e)


def test_analyze_expression_examples():
    a = analyze_expression(FIVE, 3, E(2, 1, 1, 1))
    assert a.valid and a.minimal
    assert a.resolved_shape == rooted_code(rooted(path(1, 1, 1), 0))

    b = analyze_expression(FIVE, 3, E(2, 2, 1))
    assert b.valid and not b.minimal
    assert b.resolved_shape is None

    c = analyze_expression(star(1, 1, 1, 1), 2, E(2, 1, 1))
    assert not c.valid


def test_minimal_links_to_census_count():
    a = analyze_expression(FIVE, 3, E(2, 1, 1, 1))
    census = shape_census(FIVE)
    # one minimal valid expression counts exactly the shapes of its class
    assert shaped_count(FIVE, 3, E(2, 1, 1, 1)) == 2
    three_path_code = rooted_code(rooted(path(1, 1, 1), 0))
    assert census.entries.get(three_path_code, 0) == 0  # weight 3 > 5/2
    # the identity holds against the unrestricted shape count
    assert shaped_count(FIVE, 3, E(2, 1, 1, 1)) == shape_count(
        rooted(path(1, 1, 1), 0), FIVE
    )


def test_shape_census_examples():
    two_path_code = rooted_code(rooted(path(1, 1), 0))
    c5 = shape_census(FIVE)
    assert dict(c5.entries) == {two_path_code: 2}
    c4 = shape_census(path(1, 1, 1, 1))
    assert dict(c4.entries) == {two_path_code: 2}
    assert dict(shape_census(star(1, 1, 1, 1)).entries) == {}


def test_reconstruct_worked_examples():
    two_path_code = rooted_code(rooted(path(1, 1), 0))
    t5 = reconstruct_from_census(ShapeCensus(5, {two_path_code: 2}), 5)
    assert isomorphic(t5, FIVE)
    t4 = reconstruct_from_census(ShapeCensus(4, {two_path_code: 2}), 4)
    assert isomorphic(t4, path(1, 1, 1, 1))
    t_star = reconstruct_from_census(ShapeCensus(4, {}), 4)
    assert isomorphic(t_star, star(1, 1, 1, 1))


def test_reconstruct_failure_surfaces():
    with pytest.raises(ReconstructionError):
        reconstruct_from_census(ShapeCensus(7, {}), 4)
    two_path_code = rooted_code(rooted(path(1, 1), 0))
    with pytest.raises(ReconstructionError):
        reconstruct_from_census(ShapeCensus(5, {two_path_code: 2}), 9)


def test_reconstruct_unit_trees_where_descent_applies():
    ok = fail = 0
    for n in range(2, 9):
        for t in free_trees(n):
            census = shape_census(t)
            try:
                back = reconstruct_from_census(census, t.n)
            except ReconstructionError:
                fail += 1
                continue
            ok += 1
            assert isomorphic(back, t)
    assert ok > 20  # the descent covers most small trees


def test_reconstruct_encoded_trees():
    rng = random.Random(47)
    sources = [t for n in range(3, 6) for t in free_trees(n)]
    for _ in range(6):
        sources.append(random_weighted_tree(rng.randint(3, 5), 6, rng))
    for t in sources:
        tp = good_encode(t).t_prime if max(t.weights) < 2**t.n else None
        if tp is None:
            continue
        back = reconstruct_from_census(shape_census(tp), tp.n)
        assert isomorphic(back, tp)


def test_reconstruct_interns_on_one_class_table(monkeypatch):
    # one table holds every census class and the final verification's index
    made = Counter()
    for cls in (trees.ClassTable, trees.SideIndex):
        init = cls.__init__

        def counted(self, *args, init=init, name=cls.__name__):
            made[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    sources = [t for n in range(2, 10) for t in free_trees(n)]
    sources += [good_encode(t).t_prime for n in range(3, 6) for t in free_trees(n)]
    done = 0
    for t in sources:
        census = shape_census(t)
        made.clear()
        try:
            back = reconstruct_from_census(census, t.n)
        except ReconstructionError:
            assert made["ClassTable"] == 1 and made["SideIndex"] <= 1
            continue
        assert made == {"ClassTable": 1, "SideIndex": 1}
        assert isomorphic(back, t)
        done += 1
    assert done > 40


def test_foreign_table_is_refused():
    # the path's table once made the star's count 2; enumeration gives 0
    t, other = star(1, 1, 1, 1), path(1, 1, 1, 1)
    tbl = build_containment_table(other, hanging_classes(other))
    e = E(2, 1, 1)
    assert shaped_count(t, 2, e) == count_shaped_partitions(t, 2, e) == 0
    for count in (shaped_count, nonshaped_count, analyze_expression):
        with pytest.raises(TreeInputError, match="another tree"):
            count(t, 2, e, tbl)
    s = Situation.of([rooted(path(1), 0), rooted(path(1), 0)])
    with pytest.raises(TreeInputError, match="another tree"):
        occurrences_by_inclusion_exclusion(t, s, tbl)
    # an equal tree built anew is the same tree, and the table's memos serve it
    same = path(1, 1, 1, 1)
    assert shaped_count(same, 2, e, tbl) == count_shaped_partitions(same, 2, e)
    assert tbl.u_tables and tbl.occurring


def _partitions(n, cap):
    """Descending tuples of positive ints at most cap, summing to n."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1) for rest in _partitions(n - k, k)]


def _refinements_by_product(side):
    """Oracle: one partition per part, every combination, duplicates dropped."""
    original = tuple(sorted(side, reverse=True))
    out = {tuple(sorted(sum(combo, ()), reverse=True)) for combo in product(*(_partitions(p, p) for p in side))}
    return out - {original}


@pytest.mark.parametrize(
    "side", [(), (1,), (2,), (3, 2), (2, 1, 1), (4, 4), (5, 3, 1), (6, 2, 2, 1), (1,) * 8, (20,) + (1,) * 16]
)
def test_proper_refinements_match_product_oracle(side):
    # is_refinement, the one refinement test, picks exactly the oracle's
    # refinements out of the multisets of the same total with more parts (a
    # proper refinement splits some part); the designated part weighs j + 1
    j = sum(side)
    coarse = E(*side, j + 1)
    got = {
        f for f in _partitions(j, j)
        if len(f) > len(side) and is_refinement(E(*f, j + 1), coarse, j, 2 * j + 1)
    }
    assert got == _refinements_by_product(side)


def test_minimality_matches_refinement_oracle():
    # criterion 6's corpus: minimal means valid and no refinement of the
    # j-side, built part by part, has a shaped partition
    checked = 0
    for t in situation_corpus(random.Random(105)):
        w = t.total_weight
        tbl = build_containment_table(t, hanging_classes(t))
        for j in range(1, (w + 1) // 2 + 1):
            for e in u_polynomial(t).counts:
                if not e.is_j_expression(j, w):
                    continue
                a = analyze_expression(t, j, e, tbl)
                finer = _refinements_by_product(e.j_side(j, w))
                want = a.valid and not any(
                    shaped_count(t, j, Expression.of(f + (w - j,)), tbl) > 0 for f in finer
                )
                assert a.minimal == want, (t, j, e)
                checked += 1
    assert checked > 900
    # a side of one part of 60 has 966,465 proper refinements; none is a
    # key of the three-vertex path's table, so none is tried
    a = analyze_expression(path(60, 1, 60), 60, E(61, 60))
    assert (a.valid, a.minimal, a.resolved_shape) == (True, True, None)


def test_minimality_with_many_unit_parts():
    # 20, sixteen 1s, 40 along a path: the side (20, 1 x 16) has 626 proper
    # refinements among the 17,293 partitions of 36 into parts of at most 20
    t = path(20, *[1] * 16, 40)
    a = analyze_expression(t, 36, E(40, 20, *[1] * 16))
    assert (a.valid, a.minimal, a.resolved_shape) == (True, True, None)


def _hang_from(center_weight, branches):
    """A vertex of the given weight joined to the root of every branch."""
    weights, edges = [center_weight], []
    for b in branches:
        off = len(weights)
        weights.extend(b.tree.weights)
        edges.extend((u + off, v + off) for u, v in b.tree.edges)
        edges.append((0, b.root + off))
    return WeightedTree(len(weights), tuple(edges), tuple(weights))


@settings(max_examples=40, deadline=None)
@given(weighted_trees(max_n=7, max_weight=3), st.randoms(use_true_random=False))
def test_contracted_tree_counts_the_splits_over_components(t, rng):
    # the table's memo lists the occurring situations of each weight; for
    # every j-side of two or more parts, an entry's split count is the
    # contracted tree's U-table entry (a vertex of weight w - j with the
    # components hung from it) and the sub-multiset search
    # over the components' U-tables; summed over occurrences it is the
    # non-shaped count, which a one-part j-side leaves at 0
    w = t.total_weight
    for tree in (t, random_relabeling(t, rng)):
        tbl = build_containment_table(tree, hanging_classes(tree))
        for j in range(1, (w + 1) // 2 + 1):
            occurring = occurring_by_enumeration(tree, j, tbl)
            entries = tbl.occurring_of(j)
            assert [(m, sym) for m, sym, _ in entries] == [(m, sym) for _, m, sym in occurring]
            expected = {}
            for (s, m, _), (_, sym, splits) in zip(occurring, entries):
                contracted = u_polynomial(_hang_from(w - j, s.components)).counts
                for side in _partitions(j, j):
                    e = E(w - j, *side)
                    d = _decomposition_sum(s, side, tbl)
                    if len(side) >= 2:
                        assert splits.get(side, 0) == contracted.get(e, 0) == d, (tree, j, s, e)
                    expected[e] = expected.get(e, 0) + m * d // sym
            for side in _partitions(j, j):
                e = E(w - j, *side)
                assert nonshaped_count(tree, j, e, tbl) == expected.get(e, 0), (tree, j, e)


def test_each_situation_and_class_table_is_built_once(monkeypatch):
    # every j-expression of one tree at one j: the walk lists the occurring
    # situations without an occurrence product per situation, and there is
    # no U-table DP: one state fold for each distinct component class of the
    # situations that occur, and for the sides of the tree's most balanced
    # edge (0, 1), 1(1(2,2(2))) and 2(2(1,2)), and the class 1(2,2(2)) under
    # the first, whose states close the tree's table
    t = random_weighted_tree(9, 2, random.Random(19))
    w, j = t.total_weight, 7
    calls = {"ie": 0, "dps": 0}
    folds = Counter()
    ie, dp = situations.occurrences_by_inclusion_exclusion, partitions._u_table_dp
    fold = partitions._fold

    def counted_ie(*args):
        calls["ie"] += 1
        return ie(*args)

    def counted_dp(tree):
        calls["dps"] += 1
        return dp(tree)

    def counted_fold(pk, classes, states, ids):
        before = set(states)
        states = fold(pk, classes, states, ids)
        folds.update(classes.text(c) for c in states.keys() - before)
        return states

    tbl = build_containment_table(t, hanging_classes(t))
    sits = enumerate_situations(t, j)
    classes = {c for s in sits if occurrences_by_enumeration(t, s) for c in s.codes}
    expressions = [e for e in u_polynomial(t).counts if e.is_j_expression(j, w)]
    monkeypatch.setattr(situations, "occurrences_by_inclusion_exclusion", counted_ie)
    monkeypatch.setattr(partitions, "_u_table_dp", counted_dp)
    monkeypatch.setattr(partitions, "_fold", counted_fold)
    got = {e: shaped_count(t, j, e, tbl) for e in expressions}
    assert got == {e: count_shaped_partitions(t, j, e) for e in expressions}
    assert any(len(e.parts) > 2 for e in expressions) and len(classes) >= 2
    assert len(sits) > len(tbl.occurring_of(j))
    assert calls == {"ie": 0, "dps": 0}
    split = {"1(1(2,2(2)))", "2(2(1,2))", "1(2,2(2))"}
    assert folds == Counter(dict.fromkeys({c.text for c in classes} | split, 1))

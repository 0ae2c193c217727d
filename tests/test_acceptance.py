"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact integer equality; there are no tolerances anywhere.
Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import random
from itertools import product

from utrees.census import run_census
from utrees.embedding import check_good, embedding_isomorphic, good_decode, good_encode
from utrees.errors import ReconstructionError, ResourceBoundError
from utrees.generate import (
    free_trees,
    random_encodable_tree,
    random_relabeling,
    random_weighted_tree,
)
from utrees.partitions import (
    Expression,
    count_partitions,
    count_shaped_partitions,
    potts_dichromate,
    q_chromatic,
    u_polynomial,
)
from utrees.shapecount import (
    ShapeCensus,
    reconstruct_from_census,
    shape_census,
    shaped_count,
)
from utrees.situations import (
    WHOLE_TREE,
    Situation,
    build_containment_table,
    enumerate_situations,
    hanging_classes,
    occurrences_by_inclusion_exclusion,
)
from utrees.trees import isomorphic, rooted_code

from helpers import (
    ContainmentForest,
    brute_sides,
    build_containment_forest,
    count_forest_assignments,
    cut_side,
    occurrences_by_enumeration,
    path,
    rooted,
    situation_corpus,
    spider,
    star,
)


def _report(num: int, ok: bool, desc: str):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")


def test_criterion_01_u_polynomial_oracle_equivalence():
    ok = False
    try:
        for n in range(1, 10):
            for t in free_trees(n):
                assert dict(u_polynomial(t, "brute").counts) == dict(
                    u_polynomial(t, "dp").counts
                )
        rng = random.Random(101)
        for _ in range(200):
            t = random_weighted_tree(rng.randint(1, 9), 8, rng)
            assert dict(u_polynomial(t, "brute").counts) == dict(
                u_polynomial(t, "dp").counts
            )
        ok = True
    finally:
        _report(1, ok, "dp equals brute on all free trees n<=9 and 200 random weighted")


def test_criterion_02_stanley_census_desk_scale():
    ok = False
    try:
        report = run_census(n_max=10, mode="stanley")
        assert report.tree_count == 201
        assert not report.collisions
        assert report.fingerprint_count == 201
        ok = True
    finally:
        _report(2, ok, "U fingerprint separates all 201 free trees up to 10 vertices")


def test_criterion_03_embedding_round_trip():
    ok = False
    try:
        rng = random.Random(103)
        sample = []
        for _ in range(500):
            t = random_encodable_tree(rng.randint(3, 8), rng)
            sample.append(t)
            g = good_encode(t)
            assert isomorphic(good_decode(g), t)
            assert embedding_isomorphic(g, good_encode(random_relabeling(t, rng)))
        checked = 0
        i = 0
        while checked < 120 and i + 1 < len(sample):
            a, b = sample[i], sample[i + 1]
            i += 2
            if isomorphic(a, b):
                continue
            checked += 1
            assert not embedding_isomorphic(good_encode(a), good_encode(b))
        assert checked >= 100
        ok = True
    finally:
        _report(3, ok, "500 random round trips exact; isomorphism transfers both ways")


def test_criterion_04_goodness_of_encodings():
    ok = False
    try:
        rng = random.Random(104)
        encoded = []
        for _ in range(55):
            t = random_encodable_tree(rng.randint(3, 7), rng)
            encoded.append(good_encode(t).t_prime)
        report = check_good(encoded)
        assert report.ok
        ok = True
    finally:
        _report(4, ok, "55 encoder outputs satisfy all three good-set properties")


def test_criterion_05_occurrence_pipeline():
    ok = False
    try:
        sp = spider(3, 3)
        two = rooted(path(1, 1), 0)
        s = Situation.of([two, two])
        tbl = build_containment_table(sp, s.components)
        assert tbl.count(rooted_code(two), WHOLE_TREE) == 3
        chain = ContainmentForest(
            (frozenset({0}), frozenset({1})),
            (rooted_code(two), rooted_code(two)),
            frozenset({(0, 1)}),
        )
        lam0 = tbl.count(rooted_code(two), WHOLE_TREE) ** 2
        assert lam0 == 9
        assert count_forest_assignments(WHOLE_TREE, chain, tbl) == 3
        assert occurrences_by_inclusion_exclusion(sp, s, tbl) == 6
        assert occurrences_by_enumeration(sp, s) == 6

        rng = random.Random(105)
        for t in situation_corpus(rng):
            w = t.total_weight
            for target in range(2, w // 2 + 1):
                for sit in enumerate_situations(t, target):
                    if sit.size > 3:
                        continue
                    assert occurrences_by_inclusion_exclusion(
                        t, sit
                    ) == occurrences_by_enumeration(t, sit)
        ok = True
    finally:
        _report(5, ok, "table route equals enumeration on every situation; spider 9/6/3")


def test_criterion_06_shaped_counts():
    ok = False
    try:
        five = path(1, 1, 1, 1, 1)
        e, j = Expression.of((2, 2, 1)), 3
        assert count_partitions(five, e) * e.parts.count(2) == 6
        from utrees.shapecount import nonshaped_count

        assert nonshaped_count(five, j, e) == 2
        assert shaped_count(five, j, e) == 4
        e2, j2 = Expression.of((3, 1, 1)), 2
        assert count_partitions(five, e2) * e2.parts.count(3) == 3
        assert nonshaped_count(five, j2, e2) == 1
        assert shaped_count(five, j2, e2) == 2

        rng = random.Random(105)
        checked = capped = 0
        for t in situation_corpus(rng):
            w = t.total_weight
            tbl = build_containment_table(t, hanging_classes(t))
            for j in range(1, (w + 1) // 2 + 1):
                for e in u_polynomial(t).counts:
                    if not e.is_j_expression(j, w):
                        continue
                    try:
                        got = shaped_count(t, j, e, tbl)
                    except ResourceBoundError:
                        capped += 1
                        continue
                    checked += 1
                    assert got == count_shaped_partitions(t, j, e), (t, j, e)
        assert checked > 900
        assert capped == 0
        ok = True
    finally:
        _report(6, ok, "shaped counts equal enumeration everywhere; 5-path (6,2,4)/(3,1,2)")


def _instances_in(host, forest_class_code, t):
    if host is WHOLE_TREE:
        return [
            vertices
            for _, root, vertices in brute_sides(t)
            if rooted_code(cut_side(t, vertices, root)) == forest_class_code
        ]
    out = []
    if rooted_code(host) == forest_class_code:
        out.append(frozenset(range(host.tree.n)))
    for _, root, vertices in brute_sides(host.tree):
        side = cut_side(host.tree, vertices, root)
        if host.root not in vertices and rooted_code(side) == forest_class_code:
            out.append(vertices)
    return out


def _direct_assignment_count(host, forest, t):
    node_candidates = [
        _instances_in(host, forest.classes[i], t) for i in range(len(forest.labels))
    ]
    total = 0
    for combo in product(*node_candidates):
        if all(combo[x] <= combo[y] for x, y in forest.arcs):
            total += 1
    return total


def test_criterion_07_forest_assignment_recursion():
    ok = False
    try:
        rng = random.Random(107)
        done = 0
        while done < 200:
            t = random_weighted_tree(rng.randint(4, 7), 2, rng)
            classes = hanging_classes(t)
            k = rng.randint(1, 4)
            node_classes = [rng.choice(classes) for _ in range(k)]
            arcs = set()
            for i in range(k):
                if rng.random() < 0.55:
                    j = rng.randrange(k)
                    if j != i and (j, i) not in arcs:
                        arcs.add((i, j)) if j > i else arcs.add((j, i))
            # out-degree at most one, arcs point to later nodes: acyclic
            outs = {}
            arcs = {(a, b) for a, b in arcs if outs.setdefault(a, b) == b}
            forest = ContainmentForest(
                tuple(frozenset({i}) for i in range(k)),
                tuple(rooted_code(c) for c in node_classes),
                frozenset(arcs),
            )
            forest.validate()
            tbl = build_containment_table(t, classes)
            if rng.random() < 0.5:
                host = WHOLE_TREE
            else:
                host = rng.choice(classes)
            expected = _direct_assignment_count(host, forest, t)
            got = count_forest_assignments(host, forest, tbl)
            assert got == expected, (t, forest, host)
            done += 1
        ok = True
    finally:
        _report(7, ok, "assignment recursion equals direct enumeration on 200 forests")


def test_criterion_08_potts_identities():
    ok = False
    try:
        two = path(1, 1)
        assert q_chromatic(two, 2, 2, "colourings") == 4
        assert potts_dichromate(two, 1, 1, 2, 2, "subsets") == 8
        assert potts_dichromate(two, 1, 1, 2, 2, "colourings") == 8
        assert potts_dichromate(two, 0, 2, 2, 2, "subsets") == 36
        assert potts_dichromate(two, 0, 2, 2, 2, "colourings") == 36
        for n in range(1, 7):
            for t in free_trees(n):
                for k in (1, 2, 3):
                    for q in (2, 3):
                        assert q_chromatic(t, k, q, "subsets") == q_chromatic(
                            t, k, q, "colourings"
                        )
                        for x in (0, 1, 2):
                            assert potts_dichromate(
                                t, x, k, q, 2, "subsets"
                            ) == potts_dichromate(t, x, k, q, 2, "colourings")
        ok = True
    finally:
        _report(8, ok, "subset and colouring evaluations agree on all trees n<=6")


def test_criterion_09_census_reconstruction():
    ok = False
    try:
        five = path(1, 1, 1, 1, 1)
        two_code = rooted_code(rooted(path(1, 1), 0))
        assert isomorphic(
            reconstruct_from_census(ShapeCensus(5, {two_code: 2}), 5), five
        )
        assert isomorphic(
            reconstruct_from_census(ShapeCensus(4, {two_code: 2}), 4),
            path(1, 1, 1, 1),
        )
        assert isomorphic(
            reconstruct_from_census(ShapeCensus(4, {}), 4), star(1, 1, 1, 1)
        )

        rng = random.Random(109)
        sources = [t for n in range(3, 7) for t in free_trees(n)]
        for _ in range(20):
            sources.append(random_encodable_tree(rng.randint(3, 6), rng))
        for src in sources:
            tp = good_encode(src).t_prime
            assert isomorphic(reconstruct_from_census(shape_census(tp), tp.n), tp)

        succeeded = 0
        for n in range(2, 10):
            for t in free_trees(n):
                try:
                    back = reconstruct_from_census(shape_census(t), t.n)
                except ReconstructionError:
                    continue
                succeeded += 1
                assert isomorphic(back, t)
        assert succeeded >= 40
        ok = True
    finally:
        _report(9, ok, "census round trips on encodings and unit trees; worked examples")


def test_criterion_10_structural_invariants():
    ok = False
    try:
        rng = random.Random(110)
        trees = [t for n in range(2, 7) for t in free_trees(n)]
        for _ in range(30):
            trees.append(random_weighted_tree(rng.randint(2, 6), 3, rng))
        forests_checked = 0
        for t in trees:
            w = t.total_weight
            for target in range(2, w // 2 + 1):
                for sit in enumerate_situations(t, target):
                    if sit.size > 3:
                        continue
                    # enumeration asserts the nested-or-disjoint dichotomy
                    occurrences_by_enumeration(t, sit)
                    indices = range(sit.size)
                    pairs = [(i, j) for i in indices for j in indices if i != j]
                    for size in (1, 2):
                        from itertools import combinations

                        for f in combinations(pairs, size):
                            forest = build_containment_forest(set(f), sit)
                            if forest is not None:
                                forest.validate(sit)
                                forests_checked += 1
        assert forests_checked > 200
        ok = True
    finally:
        _report(10, ok, "all forests are arborescence forests; dichotomy never violated")

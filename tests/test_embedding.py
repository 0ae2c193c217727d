import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from utrees.embedding import (
    BitCode,
    GoodEmbedding,
    _coding_run,
    _concat,
    check_good,
    embedding_isomorphic,
    good_decode,
    good_encode,
)
from utrees.errors import MalformedEmbeddingError, TreeInputError
from utrees.generate import random_encodable_tree, random_relabeling
from utrees.trees import (
    ClassTable,
    SideIndex,
    WeightedTree,
    hanging_subtrees,
    isomorphic,
    render_code,
    rooted_code,
)

from helpers import (
    brute_sides,
    check_good_by_buckets,
    coding_run_by_scan,
    cut_side,
    encodable_trees,
    path,
    spider,
    star,
    weighted_trees,
)


def test_encode_three_path_unit():
    g = good_encode(path(1, 1, 1))
    tp = g.t_prime
    assert tp.n == 7
    assert g.root == 1
    assert tp.weights[1] == 7
    assert tp.weights[0] == tp.weights[2] == 1
    assert sorted(tp.weights) == [1, 1, 1, 1, 1, 1, 7]


def test_encode_four_path_unit():
    g = good_encode(path(1, 1, 1, 1))
    tp = g.t_prime
    assert tp.n == 8
    assert tp.weights[1] == 49  # 0b00110001
    assert g.root == 2
    assert tp.weights[2] == 56
    assert tp.weights[0] == tp.weights[3] == 1


def test_encode_domain_errors():
    with pytest.raises(TreeInputError):
        good_encode(path(1, 1))
    with pytest.raises(TreeInputError):
        good_encode(path(2**3 + 1, 1, 1))
    with pytest.raises(TreeInputError):
        good_encode(path(2**3, 1, 1))


def test_decode_worked_examples():
    for t in (path(1, 1, 1), path(1, 1, 1, 1)):
        assert isomorphic(good_decode(good_encode(t)), t)


def test_decode_rejects_ambiguous_maximum():
    t = star(1, 1, 1, 1)
    with pytest.raises(MalformedEmbeddingError):
        good_decode(GoodEmbedding(t, 0, 4))


def test_roundtrip_preserves_nonunit_leaf_weights():
    # leaf weights must survive even when every leaf is adjacent to r
    t = path(5, 1, 6)
    back = good_decode(good_encode(t))
    assert isomorphic(back, t)
    t2 = star(1, 4, 4, 7)
    assert isomorphic(good_decode(good_encode(t2)), t2)


def test_roundtrip_random():
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randint(3, 8)
        t = random_encodable_tree(n, rng)
        g = good_encode(t)
        assert isomorphic(good_decode(g), t)


def _checked(t: WeightedTree) -> WeightedTree:
    return WeightedTree(t.n, t.edges, t.weights)


@settings(max_examples=150, deadline=None)
@given(encodable_trees(max_n=24), st.randoms(use_true_random=False))
def test_codec_outputs_pass_the_constructor_checks(t, rng):
    # both ends build their trees without the constructor's checks; each
    # output is one the constructor accepts, with the same normalised edges
    for tree in (t, random_relabeling(t, rng)):
        tp = good_encode(tree).t_prime
        back = good_decode(good_encode(tree))
        for out in (tp, back):
            again = _checked(out)
            assert again == out and hash(again) == hash(out)
        assert isomorphic(back, tree)


def test_isomorphism_transfer():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(3, 7)
        t = random_encodable_tree(n, rng)
        t_rel = random_relabeling(t, rng)
        assert embedding_isomorphic(good_encode(t), good_encode(t_rel))
    # non-isomorphic sources give non-isomorphic embeddings
    pairs = 0
    while pairs < 40:
        n = rng.randint(3, 7)
        a = random_encodable_tree(n, rng)
        b = random_encodable_tree(n, rng)
        if isomorphic(a, b):
            continue
        pairs += 1
        assert not embedding_isomorphic(good_encode(a), good_encode(b))


def test_monotone_codes():
    rng = random.Random(22)
    for _ in range(30):
        t = random_encodable_tree(rng.randint(3, 8), rng)
        codes, order, r = _coding_run(t)
        pos = {v: i for i, v in enumerate(order)}
        leaf_count = sum(1 for v in range(t.n) if t.degree(v) == 1)
        for v in order[leaf_count:]:
            for u in t.adjacency[v]:
                if u in pos and pos[u] < pos[v]:
                    assert codes[v].value > codes[u].value


def _bits(run):
    codes, order, r = run
    return {v: (c.value, c.length) for v, c in codes.items()}, order, r


@settings(max_examples=150, deadline=None)
@given(encodable_trees(), st.randoms(use_true_random=False))
# a star (r found before any step), paths and a unit spider
@example(star(3, 1, 1, 1), random.Random(0))
@example(path(5, 1, 6), random.Random(0))
@example(path(*range(1, 11)), random.Random(0))
@example(spider(3, 3), random.Random(0))
def test_coding_run_matches_scan_oracle(t, rng):
    # the heap keeps each code from the step its vertex reached the frontier;
    # the scan rebuilds every frontier code at every step
    for tree in (t, random_relabeling(t, rng)):
        assert _bits(_coding_run(tree)) == _bits(coding_run_by_scan(tree))


def test_unique_pending_shape():
    # each newly coded vertex closes off exactly one fully coded hanging subtree
    rng = random.Random(23)
    for _ in range(20):
        t = random_encodable_tree(rng.randint(3, 7), rng)
        codes, order, r = _coding_run(t)
        leaf_count = sum(1 for v in range(t.n) if t.degree(v) == 1)
        hangs = hanging_subtrees(t)
        for i, v in enumerate(order):
            if i < leaf_count:
                continue
            coded_before = set(order[:i])
            pending = [
                h
                for h in hangs
                if h.root == v and h.vertices - {v} <= coded_before
            ]
            assert len(pending) == 1


def test_check_good_on_encodings():
    rng = random.Random(24)
    sample = []
    for _ in range(30):
        t = random_encodable_tree(rng.randint(3, 7), rng)
        sample.append(good_encode(t).t_prime)
    report = check_good(sample)
    assert report.ok


def test_check_good_weight_violation():
    report = check_good([path(2, 1, 1)])
    tr = report.trees[0]
    assert not tr.leaf_weight_ok
    assert tr.leaf_weight_witness == 0


def test_check_good_structure_violation():
    # centre with one leaf child and two longer legs
    t = WeightedTree(
        6,
        ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5)),
        (1, 1, 1, 1, 1, 1),
    )
    report = check_good([t])
    tr = report.trees[0]
    assert not tr.leaf_structure_ok
    assert tr.leaf_structure_witness == 0


# two trees with equal-multiset but non-isomorphic half-weight shapes
SHAPE_PAIR = (
    path(1, 1, 1, 1, 1, 1, 1, 1),  # has a 3-path shape, weights {1,1,1}
    WeightedTree(
        8,
        ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7)),
        (1,) * 8,
    ),  # has a star shape with weights {1,1,1}
)


def test_check_good_shape_property_violation():
    a, b = SHAPE_PAIR
    report = check_good([a, b])
    assert report.shape_violation is not None
    # the witness is the bucket's first restricted shape and the first shape
    # with another code; b alone holds both shapes
    for trees, want in (([a, b], (0, 1, "1(1(1))", "1(1,1)")), ([b, a], (0, 0, "1(1,1)", "1(1(1))"))):
        v = check_good(trees).shape_violation
        assert v.weights == (1, 1, 1)
        assert (v.tree_a, v.tree_b, render_code(v.code_a), render_code(v.code_b)) == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            encodable_trees(max_n=10).map(lambda t: good_encode(t).t_prime),
            weighted_trees(max_n=8, max_weight=3),
            st.sampled_from(SHAPE_PAIR),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_check_good_matches_the_bucket_oracle(batch):
    report, oracle = check_good(batch), check_good_by_buckets(batch)
    assert report.ok == oracle.ok
    assert report.trees == oracle.trees
    v, w = report.shape_violation, oracle.shape_violation
    if w is None:
        assert v is None
    else:
        assert (v.tree_a, v.tree_b, v.weights) == (w.tree_a, w.tree_b, w.weights)
        assert (v.code_a, v.code_b) == (w.code_a, w.code_b)
    assert report == oracle


def test_check_good_reads_one_class_table_across_trees():
    # the unit leaf's class is interned first in the unit path but only on
    # the up pass in the other, so shared shapes have other ids in each index
    batch = [path(1, 1, 1, 1, 1, 1), path(1, 1, 1, 1, 1, 2)]
    ids = []
    for t in batch:
        idx = SideIndex(t)
        ids.append({idx.code(c): c for _, _, c in idx.shapes()})
    shared = ids[0].keys() & ids[1].keys()
    assert shared and any(ids[0][code] != ids[1][code] for code in shared)
    # indexed on one table, the same shapes get one id in both trees
    table = ClassTable()
    on_table = []
    for t, fresh in zip(batch, ids):
        idx = SideIndex(t, table)
        assert idx.classes is table
        on_table.append({table.code(c): c for _, _, c in idx.shapes()})
        assert on_table[-1].keys() == fresh.keys()
    assert all(on_table[0][code] == on_table[1][code] for code in shared)
    report = check_good(batch)
    assert report.shape_violation is None
    assert report == check_good_by_buckets(batch)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            weighted_trees(max_n=8, max_weight=3),
            encodable_trees(max_n=7).map(lambda t: good_encode(t).t_prime),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_one_class_table_shares_ids_exactly_across_trees(batch):
    # two sides of any trees share an id iff their cut-out subtrees have
    # equal rooted codes, and each tree's sides read as on a fresh index
    table = ClassTable()
    ids_of: dict = {}
    codes_of: dict = {}
    for t in batch:
        idx, fresh = SideIndex(t, table), SideIndex(t)
        assert [table.code(c) for *_, c in idx.sides] == [fresh.code(c) for *_, c in fresh.sides]
        for (e, r, vertices), (f, root, c) in zip(brute_sides(t), idx.sides, strict=True):
            assert (e, r) == (f, root)
            code = rooted_code(cut_side(t, vertices, r))
            ids_of.setdefault(code, set()).add(c)
            codes_of.setdefault(c, set()).add(code)
    assert all(len(ids) == 1 for ids in ids_of.values())
    assert all(len(codes) == 1 for codes in codes_of.values())


@st.composite
def bit_codes(draw):
    # short codes, codes with leading zeros, and codes wider than 64 bits
    length = draw(st.sampled_from([0, 1, 2, 7, 64, 65, 130]))
    value = draw(st.integers(0, 2**length - 1)) >> draw(st.integers(0, length))
    return BitCode(value, length)


@settings(max_examples=200, deadline=None)
@given(st.lists(bit_codes(), max_size=8))
def test_concat_is_the_left_fold_of_concat(parts):
    want = reduce(BitCode.concat, parts, BitCode(0, 0))
    got = _concat(parts)
    assert type(got) is BitCode and got == want
    assert got.bits() == "".join(p.bits() for p in parts)

"""Situations and occurrence counting by the table route.

A situation is a weight-sorted tuple of at least two rooted weighted trees,
held as their rooted codes.  It occurs in T when all components hang off one
connected subtree by distinct edges.  Occurrences are counted as ordered
tuples.  The table route reads the count off a containment table as a
product over the components, heaviest first, of the sides each has left
once the heavier ones are chosen.

The oracles live in the tests: direct enumeration, and the paper's W1-W3
construction of the same count (inclusion-exclusion over forced-containment
pairs, cycle contraction, and a product recursion over the resulting
arborescence forest), summed there over every pair set.  Counting uses
hanging subtrees of every size, with containment of a class in a host
including the host itself; the spider example in the tests shows why the
equality term is required for either route to close.  A containment table
lists the situations of a weight that occur by a walk that reads the same
factors, heaviest component first, and cuts a branch at its first zero
factor; it memoises two things: per weight, those occurring situations with
what `shapecount` reads of them, and U-tables, its tree's and those of the
component classes.  U-tables come from the class fold that u_polynomial
runs too (partitions._fold): a class's state is its child classes' states
merged, built once per table, and a class's table is closed off it; the
tree's is closed off the states of its most balanced edge's two sides, of
any size.  A class of more than FOLD_MAX_SIZE vertices, whose state from
its own root can outgrow the one from its centroid, takes u_polynomial on
its representative.  Inside a table every count, state and U-table is keyed
by the class id of the tree's SideIndex; rooted codes appear only at
`count` and `u_table`.  A table built from `hanging_classes(t)` for the same
t reuses the index those classes were interned on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, prod
from typing import Mapping

from .errors import (
    InternalInconsistencyError,
    MissingTableEntryError,
    ResourceBoundError,
    TreeInputError,
)
from .generate import multisets_of_weight
from .partitions import _FOLD_LOCK, Expression, _close, _close_edge, _CountsView, _Packing, u_polynomial
from .trees import (
    CanonicalCode,
    RootedWeightedTree,
    SideIndex,
    WeightedTree,
    code_to_rooted_tree,
    rooted_code,
)

# situations one enumerate_situations call may list, and occurring situations
# one ContainmentTable.occurring_of walk may list: far above what the
# benchmark corpora and seeded trees of a few dozen vertices list, and far
# below what one weight of a long unit path has (CHANGES.md keeps the counts)
MAX_SITUATIONS = 10_000

# host key for the whole input tree in tables and assignment counting
WHOLE_TREE = None

# the most vertices of a component class whose U-table a containment table
# closes off its state folded from its own root, which has at most 2^15 edge
# subsets and so at most 32,768 keys.  A larger class takes u_polynomial on
# its representative, which folds from its centroid: from a long unit path's
# end the state outgrows DP_STATE_CAP while the U-table stays under it
# (CHANGES.md keeps the measurements).  The tree's own table needs no bound:
# its most balanced edge's sides are rooted at a centroid and its neighbour
FOLD_MAX_SIZE = 16

# an occurring situation as non-shaped counts read it: (ordered occurrence
# count, symmetry factor, part weights -> ways the components split so)
Occurring = tuple[int, int, dict[tuple[int, ...], int]]


def _weight_bound_ok(target: int, total: int) -> bool:
    # admits ceil(total/2); every consumer needs at most that
    return 1 <= target and 2 * target <= total + 1


def _code_weight(code: CanonicalCode) -> int:
    # a rooted code lists (weight, child count) for each vertex in turn
    return sum(code.code[0::2])


@dataclass(frozen=True)
class Situation:
    """The rooted codes of at least two components, sorted by (weight, code).

    The component trees are the codes' representatives, built on request.
    """

    codes: tuple[CanonicalCode, ...]

    def __post_init__(self):
        if len(self.codes) < 2:
            raise TreeInputError("a situation needs at least two components")
        if not all(isinstance(c, CanonicalCode) for c in self.codes):
            raise TreeInputError("situation components are given by their rooted codes")
        keys = list(zip(self.weights, self.codes))
        if keys != sorted(keys):
            raise TreeInputError("situation components must be sorted by weight then code")

    @classmethod
    def of(cls, components) -> "Situation":
        codes = (rooted_code(c) for c in components)
        return cls(tuple(sorted(codes, key=lambda c: (_code_weight(c), c))))

    @cached_property
    def components(self) -> tuple[RootedWeightedTree, ...]:
        return tuple(code_to_rooted_tree(c) for c in self.codes)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(map(_code_weight, self.codes))

    @property
    def size(self) -> int:
        return len(self.codes)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)


@dataclass(eq=False)
class ContainmentTable:
    """Counts of each component class inside the tree and inside each class.

    A table belongs to the tree it was built for, and carries that tree's
    SideIndex; its classes are keyed by their ids there.  `tree_counts` maps
    a class id to N(c), its sides in the tree, and `class_counts` an id pair
    (c, h) to M(c, h), its sides inside the host class h; `ids` maps each
    class's rooted code to its id, so `count` and `u_table` take codes.  The
    table route fills two memos on it: the situations of each weight that
    occur, with what a non-shaped count reads of each (`occurring_of`); and
    U-tables, the tree's (key WHOLE_TREE) and those of the component classes
    of the occurring situations (key: the class id).  A class of at most
    FOLD_MAX_SIZE vertices has its U-table closed off its DP state in
    `states`, folded by partitions._fold as u_polynomial folds its own, and
    the tree's is closed off two such states (see _tree_table); only a
    larger class takes u_polynomial on its representative.  The states share
    one packing, sized by the largest class or tree in the index, and are
    filled under a module lock, so that two threads never hand out one
    packed field twice.  The memos live exactly as long as the
    caller keeps the table.
    """

    index: SideIndex
    tree_counts: dict[int, int]
    class_counts: dict[tuple[int, int], int]
    ids: dict[CanonicalCode, int]
    occurring: dict[int, tuple[Occurring, ...]] = field(default_factory=dict)
    u_tables: dict[int | None, Mapping[Expression, int]] = field(default_factory=dict)
    states: dict[int, dict[int, int]] = field(init=False, default_factory=dict, repr=False)
    _packing: _Packing = field(init=False, repr=False)

    def __post_init__(self):
        # the index's classes are all the table can fold; a side is smaller
        # than the tree, but a class added to the index can be larger
        idx = self.index
        size, weight = idx.classes.size, idx.classes.weight
        self._packing = _Packing(max([idx.tree.n, *size]), max([idx.tree.total_weight, *weight]))

    def count(self, component: CanonicalCode, host) -> int:
        ids = self.ids
        if component not in ids or not (host is WHOLE_TREE or host in ids):
            raise MissingTableEntryError((component, "tree" if host is WHOLE_TREE else host))
        return self._count(ids[component], host if host is WHOLE_TREE else ids[host])

    def _count(self, c: int, h: int | None) -> int:
        """N(c) for host WHOLE_TREE, else M(c, h), by class id."""
        out = self.tree_counts.get(c) if h is WHOLE_TREE else self.class_counts.get((c, h))
        if out is None:
            code = self.index.classes.code
            raise MissingTableEntryError((code(c), "tree" if h is WHOLE_TREE else code(h)))
        return out

    def check_tree(self, t: WeightedTree):
        """Refuse a tree other than the one the table was built for."""
        if t is not self.index.tree and t != self.index.tree:
            raise TreeInputError("the containment table was built for another tree")

    def occurring_of(self, target_weight: int) -> tuple[Occurring, ...]:
        """(m, symmetry factor, splits) for each situation of the target
        weight that occurs in the table's tree, in enumeration order,
        memoised per weight.

        m is the ordered occurrence count.  splits is the multiset-union
        product of the components' U-tables: a descending tuple of part
        weights -> the ways the components split into parts of those weights.
        """
        out = self.occurring.get(target_weight)
        if out is None:
            out = self.occurring[target_weight] = self._walk(target_weight)
        return out

    def _walk(self, target_weight: int) -> tuple[Occurring, ...]:
        """The occurring situations, by a walk that picks the side classes
        lighter than the target heaviest first, as
        occurrences_by_inclusion_exclusion reads the factors of one.

        A branch keeps its chosen hosts, its product m of factors
        N(c) - sum M(c, h) over the chosen h, and, once a situation below it
        occurs, the multiset-union product of its components' U-tables; a
        zero factor cuts the branch, and a negative one, which no consistent
        table gives, raises.  The walk keeps its own stack, since a
        situation can have as many components as the target weight.
        """
        idx = self.index
        _check_target(target_weight, idx.tree.total_weight)
        classes, weights = _side_classes(idx, target_weight)
        in_tree = [self._count(c, WHOLE_TREE) for c in classes]
        # inside[h]: (k, M(k, h)) for the classes k <= h, the only ones that
        # can follow h; taken, h subtracts them from `used`
        inside: dict[int, list[tuple[int, int]]] = {}
        used = [0] * len(classes)
        chosen: list[int] = []
        m = [1]
        left = [target_weight]
        # splits[d]: the product of the first d chosen components' U-tables,
        # None for the empty product
        splits: list[dict[tuple[int, ...], int] | None] = [None]
        # nxt[d]: the next class to try at depth d, heaviest first
        nxt = [bisect_right(weights, target_weight) - 1]
        found: list[tuple[tuple[int, ...], Occurring]] = []
        while nxt:
            i = nxt[-1]
            if i < 0:
                nxt.pop()
                if chosen:
                    for k, c in inside[chosen.pop()]:
                        used[k] -= c
                    m.pop()
                    left.pop()
                    del splits[len(chosen) + 1 :]
                continue
            nxt[-1] = i - 1
            factor = in_tree[i] - used[i]
            if factor < 0:
                raise InternalInconsistencyError(
                    f"{factor} sides of a component left after {len(chosen)} disjoint ones"
                )
            if factor == 0:
                continue
            rest = left[-1] - weights[i]
            if rest == 0:
                if len(found) == MAX_SITUATIONS:
                    raise ResourceBoundError(
                        f"occurring situations of weight {target_weight} exceed "
                        f"MAX_SITUATIONS={MAX_SITUATIONS}: reached {len(found) + 1}"
                    )
                for h in chosen[len(splits) - 1 :]:
                    splits.append(self._times(splits[-1], classes[h]))
                picked = chosen + [i]
                # orderings of the components that give the same occurrence
                sym = prod(map(factorial, Counter(picked).values()))
                entry = (m[-1] * factor, sym, self._times(splits[-1], classes[i]))
                found.append((tuple(reversed(picked)), entry))
                continue
            if i not in inside:
                host = classes[i]
                inside[i] = [
                    (k, c) for k in range(i + 1) if (c := self._count(classes[k], host))
                ]
            for k, c in inside[i]:
                used[k] += c
            chosen.append(i)
            m.append(m[-1] * factor)
            left.append(rest)
            nxt.append(min(i, bisect_right(weights, rest) - 1))
        # enumeration order: multisets_of_weight lists the ascending index
        # tuples lexicographically
        found.sort(key=lambda entry: entry[0])
        return tuple(entry for _, entry in found)

    def _times(self, splits, cid: int) -> dict[tuple[int, ...], int]:
        """The multiset-union product of `splits` and the U-table of class
        `cid`; the empty product (None) gives that table itself, as products
        are only read."""
        table = self._u_table(cid)._table  # the view's part tuple -> count dict
        if splits is None:
            return table
        out: dict[tuple[int, ...], int] = {}
        for ka, ca in splits.items():
            for kb, cb in table.items():
                k = tuple(sorted(ka + kb, reverse=True))
                out[k] = out.get(k, 0) + ca * cb
        return out

    def u_table(self, code) -> Mapping[Expression, int]:
        """The U-table of the table's tree (code WHOLE_TREE) or of the class
        with the given rooted code, memoised."""
        if code is WHOLE_TREE:
            return self._u_table(WHOLE_TREE)
        if code not in self.ids:
            raise MissingTableEntryError((code, "u-table"))
        return self._u_table(self.ids[code])

    def _u_table(self, cid: int | None) -> Mapping[Expression, int]:
        """The U-table of the tree (WHOLE_TREE, see _tree_table) or of class
        `cid`, memoised: a class of at most FOLD_MAX_SIZE vertices is closed
        off its folded state, a larger one comes from u_polynomial."""
        out = self.u_tables.get(cid)
        if out is None:
            classes = self.index.classes
            if cid is WHOLE_TREE:
                out = self._tree_table()
            elif classes.size[cid] > FOLD_MAX_SIZE:
                out = u_polynomial(classes.rep(cid).tree).counts
            else:
                with _FOLD_LOCK:
                    out = _CountsView(_close(self._packing, classes, self.states, cid))
            self.u_tables[cid] = out
        return out

    def _tree_table(self) -> Mapping[Expression, int]:
        """The tree's U-table, closed in one merge off the states of the two
        sides of its most balanced edge (the first in `index.sides`); a tree
        with one vertex has the one entry."""
        idx = self.index
        sides, size = idx.sides, idx.classes.size
        a, top = None, idx.tree.n  # every side has fewer vertices than the tree
        for i in range(0, len(sides), 2):  # the two sides of each edge in turn
            x, y = sides[i][2], sides[i + 1][2]
            m = max(size[x], size[y])
            if m < top:
                top, a, b = m, x, y
        if a is None:
            return _CountsView({idx.tree.weights: 1})
        with _FOLD_LOCK:
            return _CountsView(_close_edge(self._packing, idx.classes, self.states, a, b))


def _check_target(target: int, total: int):
    if target < 1:
        raise TreeInputError(f"target weight {target} must be at least 1")
    if not _weight_bound_ok(target, total):
        raise TreeInputError(f"target weight {target} exceeds half of w(T)={total}")


class HangingClasses(tuple):
    """Representatives of hanging classes, as a tuple; `index` is the
    SideIndex they were interned on and `ids` their class ids there, in
    tuple order.  Each representative holds its class table, off which it
    reads its code and text (see ClassTable.rep), but not the index."""

    index: SideIndex
    ids: tuple[int, ...]


def build_containment_table(t: WeightedTree, components) -> ContainmentTable:
    """The containment table of t for the classes of `components`.

    When `components` is `hanging_classes(t)` of this very tree, the table
    reuses the index they were interned on; any other components are
    interned on a fresh index of t.
    """
    if isinstance(components, HangingClasses) and components.index.tree is t:
        idx, ids = components.index, components.ids
    else:
        idx = SideIndex(t)
        ids = list(dict.fromkeys(idx.classes.add(c) for c in components))
    on_sides = Counter(c for _, _, c in idx.sides)
    tree_counts = {c: on_sides[c] for c in ids}
    inside = idx.classes.inside(ids)
    class_counts = {(i, j): inside[j][i] for i in ids for j in ids}
    return ContainmentTable(idx, tree_counts, class_counts, {idx.classes.code(c): c for c in ids})


def _side_classes(idx: SideIndex, below: int) -> tuple[list[int], list[int]]:
    """The ids of the index's side classes lighter than `below`, sorted by
    (weight, code), and their weights."""
    ids, weights = idx.side_classes
    i = bisect_left(weights, below)
    return ids[:i], weights[:i]


def hanging_classes(t: WeightedTree) -> HangingClasses:
    """One representative per isomorphism class of hanging subtrees of t,
    sorted by weight, then code; the tuple carries their index and ids
    (see HangingClasses)."""
    idx = SideIndex(t)
    # every side leaves a vertex out, so it is lighter than the tree
    ids = _side_classes(idx, t.total_weight)[0]
    out = HangingClasses(idx.classes.rep(c) for c in ids)
    out.index, out.ids = idx, tuple(ids)
    return out


def enumerate_situations(t: WeightedTree, target_weight: int) -> tuple[Situation, ...]:
    """All situations of the target weight realizable from t's hanging classes.

    Components never occurring as hanging subtrees are omitted: they force an
    occurrence count of zero, and every consumer multiplies by that count.
    """
    _check_target(target_weight, t.total_weight)
    idx = SideIndex(t)
    classes, weights = _side_classes(idx, target_weight)
    chosen: list[tuple[int, ...]] = []
    for ch in multisets_of_weight(weights, target_weight):
        if len(chosen) == MAX_SITUATIONS:
            raise ResourceBoundError(
                f"situations of weight {target_weight} exceed MAX_SITUATIONS="
                f"{MAX_SITUATIONS}: reached {len(chosen) + 1}"
            )
        chosen.append(ch)
    # classes are sorted by (weight, code) and lighter than the target, so each
    # multiset is a sorted situation with two or more components
    codes = [idx.classes.code(c) for c in classes]
    return tuple(Situation(tuple(codes[i] for i in ch)) for ch in chosen)


def occurrences_by_inclusion_exclusion(
    t: WeightedTree, s: Situation, tbl: ContainmentTable | None = None
) -> int:
    """Occurrence count through the table route; equals the enumeration oracle.

    The product over the components c_k, heaviest first, of
    N(c_k) - sum_{i<k} M(c_k, c_i): N(c) counts the sides of class c in t,
    M(c, h) those of class c inside class h, h itself included.  A situation
    weighs at most ceil(w(T)/2), so its sides nest or are disjoint; a side
    that meets a chosen side of at least its weight lies inside it; and the
    chosen sides are disjoint.  So each factor counts the sides left for c_k
    whichever came before, and the product equals the inclusion-exclusion
    over forced containments that the paper's forest construction (kept in
    the tests as an oracle) evaluates.  Past a zero factor the later ones
    can go negative; a negative one before it means an inconsistent table.
    """
    if not _weight_bound_ok(s.total_weight, t.total_weight):
        raise TreeInputError("situation weight exceeds half of the tree weight")
    if tbl is None:
        tbl = build_containment_table(t, s.components)
    else:
        tbl.check_tree(t)
    result = 1
    chosen: list[CanonicalCode] = []
    for code in reversed(s.codes):
        left = tbl.count(code, WHOLE_TREE) - sum(tbl.count(code, h) for h in chosen)
        if left == 0:
            return 0
        if left < 0:
            raise InternalInconsistencyError(
                f"{left} sides of a component left after {len(chosen)} disjoint ones"
            )
        result *= left
        chosen.append(code)
    return result

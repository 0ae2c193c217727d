"""Situations and occurrence counting, by enumeration and by the table route.

A situation is a weight-sorted tuple of at least two rooted weighted trees,
held as their rooted codes.  It occurs in T when all components hang off one
connected subtree by distinct edges.  Occurrences are counted as ordered
tuples; the direct enumerator is the oracle.  The table route reads the
count off a containment table as a product over the components, heaviest
first, of the sides each has left once the heavier ones are chosen.

The paper's construction of the same count, inclusion-exclusion over
forced-containment pairs with cycle contraction and a product recursion
over the resulting arborescence forest, stays public
(`build_containment_forest`, `count_forest_assignments`); the tests sum it
over every pair set as a second oracle.  Counting uses hanging subtrees of
every size, with containment of a class in a host including the host
itself; the spider example in the tests shows why the equality term is
required for either route to close.  A containment table also memoises the
situations of each weight and U-tables: its tree's, and those of the
contracted trees that `shapecount` reads for non-shaped counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Mapping

from .errors import (
    InternalInconsistencyError,
    MissingTableEntryError,
    ResourceBoundError,
    TreeInputError,
)
from .generate import multisets_of_weight
from .partitions import Expression, u_polynomial
from .trees import (
    CanonicalCode,
    RootedWeightedTree,
    SideIndex,
    WeightedTree,
    code_to_rooted_tree,
    hanging_subtrees,
    rooted_code,
)

# situations one enumerate_situations call may list: the test suite and the
# shaped benchmark corpus need at most 31, a 200-vertex unit path at weight
# 100 would need 190,569,291
MAX_SITUATIONS = 10_000

# host key for the whole input tree in tables and assignment counting
WHOLE_TREE = None


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
    SideIndex.  The table route fills two memos on it: the situations of
    each weight, and U-tables: the tree's (key WHOLE_TREE) and those of the
    contracted trees behind non-shaped counts (key: the rooted code).  They
    live exactly as long as the caller keeps the table.
    """

    index: SideIndex
    tree_counts: dict[CanonicalCode, int]
    class_counts: dict[tuple[CanonicalCode, CanonicalCode], int]
    situations: dict[int, tuple[Situation, ...]] = field(default_factory=dict)
    u_tables: dict[CanonicalCode | None, Mapping[Expression, int]] = field(default_factory=dict)

    def count(self, component: CanonicalCode, host) -> int:
        if host is WHOLE_TREE:
            if component not in self.tree_counts:
                raise MissingTableEntryError((component, "tree"))
            return self.tree_counts[component]
        if (component, host) not in self.class_counts:
            raise MissingTableEntryError((component, host))
        return self.class_counts[(component, host)]

    def check_tree(self, t: WeightedTree):
        """Refuse a tree other than the one the table was built for."""
        if t is not self.index.tree and t != self.index.tree:
            raise TreeInputError("the containment table was built for another tree")

    def situations_of(self, target_weight: int) -> tuple[Situation, ...]:
        """enumerate_situations of the table's tree, memoised per weight."""
        out = self.situations.get(target_weight)
        if out is None:
            out = self.situations[target_weight] = _situations(self.index, target_weight)
        return out

    def u_table(self, code) -> Mapping[Expression, int]:
        """The U-table of the table's tree (code WHOLE_TREE) or of the tree
        with the given rooted code, memoised."""
        out = self.u_tables.get(code)
        if out is None:
            tree = self.index.tree if code is WHOLE_TREE else code_to_rooted_tree(code).tree
            out = self.u_tables[code] = u_polynomial(tree).counts
        return out


def _table(idx: SideIndex, ids) -> ContainmentTable:
    """The containment table of the classes `ids` of the index's tree."""
    ids = list(dict.fromkeys(ids))
    codes = {c: idx.code(c) for c in ids}
    on_sides = Counter(c for _, _, c in idx.sides)
    tree_counts = {codes[c]: on_sides[c] for c in ids}
    inside = idx.inside(ids)
    class_counts = {(codes[i], codes[j]): inside[j][i] for i in ids for j in ids}
    return ContainmentTable(idx, tree_counts, class_counts)


def build_containment_table(t: WeightedTree, components) -> ContainmentTable:
    idx = SideIndex(t)
    return _table(idx, [idx.add(c) for c in components])


def _sorted_classes(idx: SideIndex, ids) -> list[int]:
    return sorted(ids, key=lambda c: (idx.weight[c], idx.code(c)))


def hanging_classes(t: WeightedTree) -> tuple[RootedWeightedTree, ...]:
    """One representative per isomorphism class of hanging subtrees of t,
    sorted by weight, then code."""
    idx = SideIndex(t)
    return tuple(idx.rep(c) for c in _sorted_classes(idx, {c for _, _, c in idx.sides}))


def enumerate_situations(t: WeightedTree, target_weight: int) -> tuple[Situation, ...]:
    """All situations of the target weight realizable from t's hanging classes.

    Components never occurring as hanging subtrees are omitted: they force an
    occurrence count of zero, and every consumer multiplies by that count.
    """
    return _situations(SideIndex(t), target_weight)


def _situations(idx: SideIndex, target_weight: int) -> tuple[Situation, ...]:
    total = idx.tree.total_weight
    if target_weight < 1:
        raise TreeInputError(f"target weight {target_weight} must be at least 1")
    if not _weight_bound_ok(target_weight, total):
        raise TreeInputError(
            f"target weight {target_weight} exceeds half of w(T)={total}"
        )
    classes = _sorted_classes(
        idx, {c for _, _, c in idx.sides if idx.weight[c] < target_weight}
    )
    chosen: list[tuple[int, ...]] = []
    for ch in multisets_of_weight([idx.weight[c] for c in classes], target_weight):
        if len(chosen) == MAX_SITUATIONS:
            raise ResourceBoundError(
                f"situations of weight {target_weight} exceed MAX_SITUATIONS="
                f"{MAX_SITUATIONS}: reached {len(chosen) + 1}"
            )
        chosen.append(ch)
    # classes are sorted by (weight, code) and lighter than the target, so each
    # multiset is a sorted situation with two or more components
    codes = [idx.code(c) for c in classes]
    return tuple(Situation(tuple(codes[i] for i in ch)) for ch in chosen)


def _assert_nested_or_disjoint(a: frozenset[int], b: frozenset[int]):
    if not (a <= b or b <= a or not (a & b)):
        raise InternalInconsistencyError(
            "hanging subtrees below half weight must nest or be disjoint"
        )


def _complement_connected(t: WeightedTree, used: frozenset[int]) -> bool:
    rest = [v for v in range(t.n) if v not in used]
    if not rest:
        return False
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for u in t.adjacency[v]:
            if u not in used and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rest)


def occurrences_by_enumeration(t: WeightedTree, s: Situation) -> int:
    """Oracle count of ordered occurrences, by direct enumeration.

    Tuples of mutually disjoint hanging subtrees matching the components
    (so pairwise distinct, none containing another), with connected
    complement.  Slots are filled one at a time, each only with sides
    disjoint from those already chosen.  The below-half dichotomy (nested or
    disjoint) is asserted up front on every pair of candidates for two
    different slots.
    """
    if not _weight_bound_ok(s.total_weight, t.total_weight):
        raise TreeInputError("situation weight exceeds half of the tree weight")
    hangs = hanging_subtrees(t)
    candidates = [[h.vertices for h in hangs if rooted_code(h.component) == code] for code in s.codes]
    for first, second in combinations(candidates, 2):
        for a, b in product(first, second):
            _assert_nested_or_disjoint(a, b)
    total = 0
    stack = [(0, frozenset())]
    while stack:
        slot, used = stack.pop()
        if slot == len(candidates):
            total += _complement_connected(t, used)
            continue
        for side in candidates[slot]:
            if not side & used:
                stack.append((slot + 1, used | side))
    return total


@dataclass(frozen=True)
class ContainmentForest:
    """Labeled digraph over component indices, as the W3 stage leaves it.

    Labels partition the component index set; all components sharing a label
    are isomorphic; the graph is an arborescence forest (acyclic, out-degree
    at most one).
    """

    labels: tuple[frozenset[int], ...]
    classes: tuple[CanonicalCode, ...]
    arcs: frozenset[tuple[int, int]]

    def validate(self, situation: Situation | None = None):
        seen: set[int] = set()
        for lab in self.labels:
            if not lab or lab & seen:
                raise InternalInconsistencyError("labels must partition the index set")
            seen |= lab
        if situation is not None:
            if seen != set(range(situation.size)):
                raise InternalInconsistencyError("labels must cover all components")
            for lab, cls in zip(self.labels, self.classes):
                if any(situation.codes[i] != cls for i in lab):
                    raise InternalInconsistencyError("label merges non-isomorphic components")
        for x, y in self.arcs:
            if not (0 <= x < len(self.labels) and 0 <= y < len(self.labels)) or x == y:
                raise InternalInconsistencyError("arc endpoints out of range")
        out: dict[int, int] = {}
        for x, y in self.arcs:
            if x in out:
                raise InternalInconsistencyError("out-degree above one in a containment forest")
            out[x] = y
        for x in range(len(self.labels)):
            cur, seen_path = x, set()
            while cur in out:
                if cur in seen_path:
                    raise InternalInconsistencyError("cycle in a containment forest")
                seen_path.add(cur)
                cur = out[cur]

    def canonical_key(self):
        order = sorted(range(len(self.labels)), key=lambda i: sorted(self.labels[i]))
        pos = {old: new for new, old in enumerate(order)}
        labs = tuple(tuple(sorted(self.labels[i])) for i in order)
        arcs = tuple(sorted((pos[x], pos[y]) for x, y in self.arcs))
        return labs, arcs


def _feasible_pairs(tbl: ContainmentTable, codes) -> tuple[tuple[int, int], ...]:
    """Ordered index pairs (i, j), i != j, whose class i sits inside class j."""
    ids = range(len(codes))
    return tuple(
        (i, j) for i in ids for j in ids if i != j and tbl.count(codes[i], codes[j]) > 0
    )


def build_containment_forest(
    f, s: Situation, feasible_pairs: frozenset[tuple[int, int]] | None = None
) -> ContainmentForest | None:
    """Run the four-stage pipeline for one pair set; None if it forces nothing.

    Starts from one node per component with the given arcs, saturates common
    sources by vertex-count comparison, contracts directed cycles, and strips
    transitive arcs.  Returns None (the empty intersection) when a required
    containment is impossible for the component classes.  `feasible_pairs`
    holds the ordered index pairs (i, j) whose class i can sit inside class j,
    as read from a containment table; without it they are read from the
    table of the components themselves, since class-in-class counts do not
    depend on the host tree.
    """
    t = s.size
    arcs = set(f)
    for i, j in arcs:
        if not (0 <= i < t and 0 <= j < t) or i == j:
            raise TreeInputError(f"bad index pair ({i}, {j})")
    if feasible_pairs is None:
        comps = s.components
        tbl = build_containment_table(comps[0].tree, comps)
        feasible_pairs = frozenset(_feasible_pairs(tbl, s.codes))
    if not arcs <= feasible_pairs:
        return None

    # W1: if (x,y) and (x,z) are arcs and y,z unrelated, the smaller side
    # must sit inside the larger; infeasible forced arcs kill the whole set.
    # A rooted code holds two ints per vertex, so code lengths order sizes.
    size = [len(c.code) for c in s.codes]
    changed = True
    while changed:
        changed = False
        for x in range(t):
            outs = [y for (a, y) in arcs if a == x]
            for y, z in combinations(outs, 2):
                if (y, z) in arcs or (z, y) in arcs:
                    continue
                for a, b in ((y, z), (z, y)):
                    if size[a] <= size[b]:
                        if (a, b) not in feasible_pairs:
                            return None
                        arcs.add((a, b))
                        changed = True

    # W2: contract directed cycles.  reach[i] is every index i reaches; a
    # group is led by its least member, so groups keep index order.
    reach = [{i} | {b for a, b in arcs if a == i} for i in range(t)]
    for k in range(t):
        for i in range(t):
            if k in reach[i]:
                reach[i] |= reach[k]
    lead = [min(j for j in reach[i] if i in reach[j]) for i in range(t)]
    leaders = sorted(set(lead))
    group = [leaders.index(g) for g in lead]

    # W3: transitive reduction of the condensation: an arc goes when a third
    # group lies between its ends
    def between(x: int, y: int) -> bool:
        lx, ly = leaders[x], leaders[y]
        return any(group[z] not in (x, y) and ly in reach[z] for z in reach[lx])

    merged = {(group[a], group[b]) for a, b in arcs if group[a] != group[b]}
    forest = ContainmentForest(
        tuple(frozenset(i for i in range(t) if lead[i] == g) for g in leaders),
        tuple(s.codes[g] for g in leaders),
        frozenset((x, y) for x, y in merged if not between(x, y)),
    )
    forest.validate(s)
    return forest


def count_forest_assignments(host, forest: ContainmentForest, tbl: ContainmentTable) -> int:
    """Tuples assigning a hanging subtree of the host to each forest node.

    Nodes with equal labels share one assignment; an arc (x, y) requires the
    subtree at x to sit inside the one at y.  The empty forest counts one.
    Host is a rooted component class, or WHOLE_TREE for the full input tree.
    """
    host_key = rooted_code(host) if isinstance(host, RootedWeightedTree) else host
    if host_key is not WHOLE_TREE and not isinstance(host_key, CanonicalCode):
        raise TreeInputError(f"bad host {host!r}")
    # each root's class is counted in the host, and the nodes right below it
    # are assigned inside that class, and so on
    classes = forest.classes
    parents = dict(forest.arcs)
    below: dict[int | None, list[int]] = {}
    for x in range(len(classes)):
        below.setdefault(parents.get(x), []).append(x)

    def count(nodes, host) -> int:
        total = 1
        for x in nodes:
            total *= tbl.count(classes[x], host) * count(below.get(x, ()), classes[x])
        return total

    return count(below.get(None, ()), host_key)


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
    over forced containments that `build_containment_forest` and
    `count_forest_assignments` evaluate.  Past a zero factor the later ones
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

"""Expressions, the U-polynomial of a weighted tree, and numeric evaluators.

For a tree, every connected partition corresponds to exactly one edge subset
(the edges kept inside parts), so the U-polynomial collapses to a finite
table: expression -> number of edge subsets realizing it, plus one constant
exponent n - w(T).  All counts are exact Python ints.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product
from threading import Lock
from typing import Callable, Iterable

from .errors import ResourceBoundError, TreeInputError
from .trees import ClassTable, WeightedTree, _centroids_of, _rooted_parent_order

BRUTE_VERTEX_CAP = 22
DP_STATE_CAP = 500_000
COLOURING_ENUM_CAP = 4**10
# estimated bits of the largest value a part contributes to M, B or Br; the
# subsets route builds one per distinct open weight, at most w(T) of them, so
# the cap bounds that work by about its square (a star whose 15 leaves weigh
# 2^0..2^14 reaches it; CHANGES.md keeps the timing)
VALUE_BITS_CAP = 2**15

# held while class states are folded into a memo that outlives one call (a
# containment table's, or a free-tree walk's) and while a walk's shared table
# interns: the states of a memo share one packing, and two threads must not
# hand out one field, or one class id, twice
_FOLD_LOCK = Lock()


@dataclass(frozen=True, slots=True)
class Expression:
    """A multiset of positive integers, stored as a descending tuple."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if type(self.parts) is not tuple:
            raise TreeInputError(f"expression parts must be a tuple, got {type(self.parts).__name__}")
        for p in self.parts:
            if type(p) is not int or p < 1:
                raise TreeInputError(f"expression parts must be positive ints: {p!r}")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise TreeInputError("expression parts must be sorted descending")

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Expression":
        return cls(tuple(sorted(parts, reverse=True)))

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Expression":
        """Wrap a descending tuple of positive ints without re-validating it."""
        e = object.__new__(cls)
        object.__setattr__(e, "parts", parts)
        return e

    @property
    def total(self) -> int:
        return sum(self.parts)

    def is_j_expression(self, j: int, w_total: int) -> bool:
        return self.total == w_total and j >= 1 and (w_total - j) in self.parts

    def j_side(self, j: int, w_total: int) -> tuple[int, ...]:
        """Parts other than one (w_total - j) part, descending."""
        if not self.is_j_expression(j, w_total):
            raise TreeInputError(f"{self.parts} is not a {j}-expression of {w_total}")
        out = list(self.parts)
        out.remove(w_total - j)
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


class _CountsView(Mapping):
    """Read-only Expression -> count view of a descending part tuple -> count
    dict.  A lookup reads the key's parts, iteration wraps each tuple into an
    Expression only as it is yielded, and a key that is not an Expression
    misses."""

    __slots__ = ("_table",)

    def __init__(self, table: dict[tuple[int, ...], int]):
        self._table = table

    def __getitem__(self, e):
        if isinstance(e, Expression):
            return self._table[e.parts]
        raise KeyError(e)

    def get(self, e, default=None):
        return self._table.get(e.parts, default) if isinstance(e, Expression) else default

    def __iter__(self):
        return map(Expression._trusted, self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other):
        if isinstance(other, _CountsView):
            return self._table == other._table
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._table!r})"


@dataclass(frozen=True)
class ExpressionCounts:
    """The U-polynomial of a weighted tree, collapsed to a count table.

    `counts` is a read-only Expression-keyed view of a part tuple -> count
    dict; an Expression-keyed mapping given here is converted once."""

    n: int
    total_weight: int
    z_exponent: int
    counts: Mapping[Expression, int]

    def __post_init__(self):
        if isinstance(self.counts, _CountsView):
            return
        table = {}
        for e, c in self.counts.items():
            if not isinstance(e, Expression):
                raise TreeInputError(f"count table keys must be Expressions, got {e!r:.40}")
            if type(c) is not int:
                raise TreeInputError(f"count table counts must be ints, got {c!r:.40}")
            table[e.parts] = c
        object.__setattr__(self, "counts", _CountsView(table))

    def count(self, e: Expression) -> int:
        return self.counts.get(e, 0)

    def canonical_text(self) -> str:
        """Byte-stable serialization: header, then descending-lex entries by `%d` templates."""
        table = self.counts._table
        keys = sorted(table, reverse=True)
        line = [",".join(["%d"] * i) + ": %d" for i in range(max(map(len, keys), default=0) + 1)]
        lines = [f"n={self.n} w={self.total_weight} z={self.z_exponent}"]
        lines += [line[len(parts)] % (*parts, table[parts]) for parts in keys]
        return "\n".join(lines) + "\n"


def _subset_components(t: WeightedTree, mask: int):
    """Components of (V, A) where A = edges selected by mask bits."""
    parent = list(range(t.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (u, v) in enumerate(t.edges):
        if mask >> i & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(t.n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def _u_table_brute(t: WeightedTree) -> dict[tuple[int, ...], int]:
    if t.n > BRUTE_VERTEX_CAP:
        raise ResourceBoundError(f"brute mode enumerates 2^{t.n - 1} subsets; cap is n <= {BRUTE_VERTEX_CAP}")
    table: dict[tuple[int, ...], int] = {}
    for mask in range(1 << (t.n - 1)):
        e = tuple(sorted(
            (sum(t.weights[v] for v in comp) for comp in _subset_components(t, mask)),
            reverse=True,
        ))
        table[e] = table.get(e, 0) + 1
    return table


def _state_cap_error(dp: str, size: int, what: str) -> ResourceBoundError:
    return ResourceBoundError(f"{dp} reached {size} {what} at one vertex; cap is {DP_STATE_CAP}")


class _Packing:
    """Packed keys for multisets of closed parts, shared by every state that
    one DP merges.

    The low w.bit_length() bits of a key hold the closed weight; above them,
    part weight p owns a field of min(w // p, n).bit_length() bits counting
    its parts, so a multiset union is a sum.  Fields are handed out as
    weights first close: one per weight up to w would take w bits, and
    encoded trees weigh 2^40 and more.  w and n must bound the weight and
    vertex count of every tree whose states are merged, or a field carries
    into the next one.  `one` maps a part weight to the key of one part of
    that weight, and `parts` maps keys to descending tuples, each sorted once.
    """

    __slots__ = ("n", "w", "free", "low", "one", "parts")

    def __init__(self, n: int, w: int):
        self.n, self.w = n, w
        self.free = w.bit_length()  # the lowest bit no field holds yet
        self.low = (1 << self.free) - 1
        self.one: dict[int, int] = {}
        self.parts: dict[int, tuple[int, ...]] = {0: ()}

    def field(self, p: int) -> int:
        """Give part weight p a field; the key of one part of weight p."""
        self.one[p] = key = p + (1 << self.free)
        self.free += min(self.w // p, self.n).bit_length()
        return key


def _cut_keys(pk: _Packing, state: dict[int, int], weight: int) -> list:
    """Per entry of a child's state, whose tree weighs `weight`: its key, the
    key's tuple, the child's open weight, the key once the edge to the child
    is cut and that open part closes, and the count."""
    one, parts, low = pk.one, pk.parts, pk.low
    kids = []
    for kc, cc in state.items():
        oc = weight - (kc & low)
        cut = kc + (one.get(oc) or pk.field(oc))
        tc = parts[kc]
        if cut not in parts:
            parts[cut] = tuple(sorted(tc + (oc,), reverse=True))
        kids.append((kc, tc, oc, cut, cc))
    return kids


def _merge(pk: _Packing, st: dict[int, int], state: dict[int, int], weight: int) -> dict[int, int]:
    """A vertex's state `st` merged with the state of one more child, whose
    subtree weighs `weight`: each pair of entries either cuts the edge to the
    child, closing its open part, or keeps it, joining that part to the
    vertex's own open one.  The key that would pass DP_STATE_CAP is refused."""
    kids = _cut_keys(pk, state, weight)
    parts, cap = pk.parts, DP_STATE_CAP
    nxt: dict[int, int] = {}
    get = nxt.get
    for kp, cp in st.items():
        for kc, tc, oc, cut, cc in kids:
            m = cp * cc
            # cut the edge: the child's open part closes
            k = kp + cut
            x = get(k)
            if x is None and len(nxt) == cap:
                raise _state_cap_error("U-table DP", cap + 1, "states")
            nxt[k] = (x or 0) + m
            if k not in parts:
                parts[k] = tuple(sorted(parts[kp] + parts[cut], reverse=True))
            # keep the edge: the child's open part joins the vertex's
            k = kp + kc
            x = get(k)
            if x is None and len(nxt) == cap:
                raise _state_cap_error("U-table DP", cap + 1, "states")
            nxt[k] = (x or 0) + m
            if k not in parts:
                parts[k] = tuple(sorted(parts[kp] + tc, reverse=True))
    return nxt


def _fold(pk: _Packing, classes: ClassTable, states: dict | None, ids) -> dict:
    """Fill the memo `states` (class id -> DP state) for the classes `ids`
    and those under them, children first, and return it.  A class's state
    maps the parts closed below its root, packed (see _Packing), to a count:
    its child classes' states merged into {0: 1}.  With `states` None the
    memo is fresh, and drops a state not in `ids` after its last reader."""
    keys, weight = classes.keys, classes.weight
    keep = states is not None
    states = states if keep else {}
    order = classes._below([c for c in ids if c not in states], states)
    spent: dict[int, list[int]] = {}  # with no memo: a class -> the states it reads last
    if not keep:
        for k, c in {k: c for c in order for k in keys[c][1]}.items():
            if k not in ids:
                spent.setdefault(c, []).append(k)
    for c in order:
        st = {0: 1}
        for k in keys[c][1]:
            st = _merge(pk, st, states[k], weight[k])
        states[c] = st
        for k in spent.get(c, ()):
            del states[k]
    return states


def _close(pk: _Packing, classes: ClassTable, states: dict, cid: int) -> dict[tuple[int, ...], int]:
    """The U-table of class `cid`, its state folded into the memo `states`
    and its root's open part closed; keys that meet there are summed."""
    st = _fold(pk, classes, states, (cid,))[cid]
    parts, low, weight = pk.parts, pk.low, classes.weight[cid]
    table: dict[tuple[int, ...], int] = {}
    for k, c in st.items():
        name = tuple(sorted(parts[k] + (weight - (k & low),), reverse=True))
        table[name] = table.get(name, 0) + c
    return table


def _close_merge(pk: _Packing, st: dict[int, int], weight_v: int,
                 state: dict[int, int], weight: int) -> dict[tuple[int, ...], int]:
    """A tree's U-table from its root's state `st` (weight `weight_v` so far) and
    its last child's `state` (weight `weight`).  As in deletion-contraction, the
    edge between them is cut, adding the product of the two sides' closed tables,
    each summed first, or kept; keys are named once and refused past DP_STATE_CAP."""
    kids = _cut_keys(pk, state, weight)
    one, parts, low, cap = pk.one, pk.parts, pk.low, DP_STATE_CAP
    closed: dict[int, list] = {}  # the root's side closed: key -> [parts, unsorted; count]
    for kp, cp in st.items():
        op = weight_v - (kp & low)
        closed.setdefault(kp + (one.get(op) or pk.field(op)), [(op,) + parts[kp], 0])[1] += cp
    cuts: dict[int, int] = {}  # the child's side closed
    for kc, tc, oc, cut, cc in kids:
        cuts[cut] = cuts.get(cut, 0) + cc
    nxt: dict[int, int] = {}
    get = nxt.get
    names = []
    for kr, (tr, cr) in closed.items():
        for kc, cc in cuts.items():
            k = kr + kc
            x = get(k)
            if x is None:
                if len(nxt) == cap:
                    raise _state_cap_error("U-table DP", cap + 1, "states")
                name = [*parts[kc], *tr]  # sorted in place: no copy
                name.sort(reverse=True)
                names.append(tuple(name))
                nxt[k] = cr * cc
            else:
                nxt[k] = x + cr * cc
    for kp, cp in st.items():  # keep the edge: the two open parts join
        op = weight_v - (kp & low)
        for kc, tc, oc, cut, cc in kids:
            s = op + oc
            k = kp + kc + (one.get(s) or pk.field(s))
            x = get(k)
            if x is None:
                if len(nxt) == cap:
                    raise _state_cap_error("U-table DP", cap + 1, "states")
                name = [s, *tc, *parts[kp]]
                name.sort(reverse=True)
                names.append(tuple(name))
                nxt[k] = cp * cc
            else:
                nxt[k] = x + cp * cc
    return dict(zip(names, nxt.values()))


def _close_edge(pk: _Packing, classes: ClassTable, states: dict | None,
                a: int, b: int) -> dict[tuple[int, ...], int]:
    """The U-table of a tree from the classes `a` and `b` of its two sides
    at one edge, each rooted at its end: both folded (see _fold), then
    closed across the edge in one merge."""
    states = _fold(pk, classes, states, (a, b))
    weight = classes.weight
    return _close_merge(pk, states[a], weight[a], states[b], weight[b])


def _split(classes: ClassTable, cid: int) -> tuple[int, int]:
    """The classes (a, b) of the two sides of the edge from the root of
    class `cid` to a largest child: b that child's, a the rest's, interned."""
    size, weight = classes.size, classes.weight
    root_weight, kids = classes.keys[cid]
    b = max(kids, key=size.__getitem__)
    rest = list(kids)
    rest.remove(b)
    a = classes._intern(root_weight, tuple(rest), size[cid] - size[b], weight[cid] - weight[b])
    return a, b


def _u_table_dp(t: WeightedTree) -> dict[tuple[int, ...], int]:
    """Descending part tuple -> number of edge subsets with those component weights.

    The table is closed across the edge from centroids(t)[0] to a largest
    branch (_split, _close_edge).  A tree from generate.free_trees holds its
    class rooted at vertex 0, a centroid, on its walk's table: the states
    are folded into one memo on that table, so each branch class is folded
    once per walk, and the state of the side without b is dropped after the
    close when it has more than n/2 vertices, so that the memo keeps only
    the classes the walk's levels interned.  Any other tree is interned on
    a fresh ClassTable below its centroid (by the walk from vertex 0 when
    that is the centroid), and its states are dropped as they are spent.
    """
    if t.n == 1:
        return {t.weights: 1}
    held = vars(t).get("_class")
    if held is None:
        classes = ClassTable()
        parent, _, down = classes._down_pass(t, 0)
        root = _centroids_of(t, parent, [classes.size[c] for c in down])[0]
        if root:
            down = classes._down_pass(t, root)[2]
        a, b = _split(classes, down[root])
        return _close_edge(_Packing(t.n, t.total_weight), classes, None, a, b)
    classes, cid = held
    with _FOLD_LOCK:
        memo = vars(classes).get("_fold_memo")
        if memo is None:  # every tree of a walk has its n vertices and weight
            memo = classes._fold_memo = (_Packing(t.n, t.total_weight), {})
        pk, states = memo
        a, b = _split(classes, cid)
        table = _close_edge(pk, classes, states, a, b)
        if 2 * classes.size[a] > t.n:
            del states[a]
    return table


def u_polynomial(t: WeightedTree, mode: str = "dp") -> ExpressionCounts:
    """Expression-count table of t: counts[E] = #edge subsets with characteristic E,
    by the DP or by brute subsets."""
    if mode == "dp":
        table = _u_table_dp(t)
    elif mode == "brute":
        table = _u_table_brute(t)
    else:
        raise TreeInputError(f"unknown u_polynomial mode {mode!r}")
    w = t.total_weight
    return ExpressionCounts(t.n, w, t.n - w, _CountsView(table))


def count_partitions(t: WeightedTree, e: Expression) -> int:
    """Connected partitions of t with characteristic e (0 if e misses w(T))."""
    if e.total != t.total_weight:
        return 0
    return _u_table_dp(t).get(e.parts, 0)


def _boundary_size(t: WeightedTree, part: frozenset[int]) -> int:
    return sum(1 for u, v in t.edges if (u in part) != (v in part))


def count_shaped_partitions(t: WeightedTree, j: int, e: Expression) -> int:
    """Shaped j-partitions with characteristic e, by direct enumeration.

    A j-partition designates one part of weight w(T)-j; it is shaped when that
    part is a full component of T-e for some edge, i.e. has exactly one
    boundary edge.  Partitions with several (w(T)-j)-parts contribute one
    count per qualifying designation.
    """
    w = t.total_weight
    if not e.is_j_expression(j, w):
        raise TreeInputError(f"{e.parts} is not a {j}-expression of {w}")
    if t.n > BRUTE_VERTEX_CAP:
        raise ResourceBoundError(f"direct enumeration walks 2^{t.n - 1} edge subsets; "
                                 f"cap is BRUTE_VERTEX_CAP={BRUTE_VERTEX_CAP} vertices, got n={t.n}")
    target = w - j
    total = 0
    for mask in range(1 << (t.n - 1)):
        comps = _subset_components(t, mask)
        weights = [sum(t.weights[v] for v in c) for c in comps]
        if Expression.of(weights) != e:
            continue
        for comp, cw in zip(comps, weights):
            if cw == target and _boundary_size(t, frozenset(comp)) == 1:
                total += 1
    return total


def sub_multisets(items: tuple[int, ...], target: int):
    """Index tuples of the distinct sub-multisets of items summing to target.

    Items must be sorted, so that equal values sit together: of a run of
    equal values only the first is tried at each position, which yields each
    sub-multiset once.  Depth-first in index order, with an explicit stack.
    """
    stack = [(0, target, ())]
    while stack:
        start, remaining, chosen = stack.pop()
        if remaining == 0:
            yield chosen
            continue
        # push the highest index first, so that the stack pops in index order
        for i in range(len(items) - 1, start - 1, -1):
            if items[i] <= remaining and (i == start or items[i - 1] != items[i]):
                stack.append((i + 1, remaining - items[i], chosen + (i,)))


def _can_group(fine: tuple[int, ...], coarse: tuple[int, ...]) -> bool:
    """Can the fine multiset be split into groups summing to the coarse parts?

    Fewer fine parts than coarse ones, or a fine part above every coarse one,
    rules it out before any search."""
    if (sum(fine) != sum(coarse) or len(fine) < len(coarse)
            or max(fine, default=0) > max(coarse, default=0)):
        return False
    if not coarse:
        return True
    # ways[d] yields the ways to take coarse[d] out of what coarse[:d] left
    ways = [(fine, sub_multisets(fine, coarse[0]))]
    while ways:
        items, it = ways[-1]
        chosen = next(it, None)
        if chosen is None:
            ways.pop()
        elif len(ways) == len(coarse):
            return True
        else:
            left = tuple(x for i, x in enumerate(items) if i not in chosen)
            ways.append((left, sub_multisets(left, coarse[len(ways)])))
    return False


def is_refinement(e_fine: Expression, e_coarse: Expression, j: int, w_total: int) -> bool:
    """True when e_fine's j-side parts can be grouped into e_coarse's j-side parts."""
    fine = e_fine.j_side(j, w_total)
    coarse = e_coarse.j_side(j, w_total)
    return _can_group(fine, coarse)


def q_integer(k: int, base: int) -> int:
    """Sum of base**i for i in 0..k-1, by the geometric-series quotient,
    which is exact: base - 1 divides base**k - 1."""
    if k < 1:
        return 0
    if base == 1:
        return k
    return (base**k - 1) // (base - 1)


def _check_value_bits(bits: int):
    if bits > VALUE_BITS_CAP:
        raise ResourceBoundError(
            f"evaluator values reach an estimated {bits} bits; cap is VALUE_BITS_CAP={VALUE_BITS_CAP}"
        )


def _check_colouring_enumerable(k: int, n: int):
    if k**n > COLOURING_ENUM_CAP:
        raise ResourceBoundError(f"{k}^{n} colourings exceed COLOURING_ENUM_CAP={COLOURING_ENUM_CAP}")


def _evaluate(t: WeightedTree, x: int, f: Callable[[int], int]) -> int:
    """Sum over edge subsets A of x**|A| * prod of f(w(C)) over the components C.

    A vertex's state maps the weight of the part still open at it to the sum,
    over the edge subsets within its subtree that leave it that open weight,
    of x**|A| times f of each closed part.  The tree is rooted at vertex 0:
    a state holds at most w(T) open weights whatever the root.
    """
    parent, order = _rooted_parent_order(t, 0)
    f_of: dict[int, int] = {}

    def closed(st: dict[int, int]) -> int:
        total = 0
        for o, val in st.items():
            if o not in f_of:
                f_of[o] = f(o)
            total += val * f_of[o]
        return total

    states: list[dict[int, int] | None] = [{w: 1} for w in t.weights]
    for c in reversed(order[1:]):  # each vertex after everything below it
        kid, states[c] = states[c], None
        cut = closed(kid)
        # cut the edge: the child's open part closes; the parent's (within the cap) stay
        nxt = {op: vp * cut for op, vp in states[parent[c]].items()}
        for op, vp in states[parent[c]].items():
            xv = x * vp  # keep the edge: the child's open part joins its parent's
            for oc, vc in kid.items():
                o = op + oc
                if o in nxt:
                    nxt[o] += xv * vc
                elif len(nxt) == DP_STATE_CAP:
                    raise _state_cap_error("evaluator DP", DP_STATE_CAP + 1, "open weights")
                else:
                    nxt[o] = xv * vc
        states[parent[c]] = nxt
    return closed(states[0])


def _q_integers(k: int, q: int, w: int) -> Callable[[int], int]:
    """p -> [k]_(q**p) for parts up to weight w, refused past VALUE_BITS_CAP
    since [k]_(q**w) < 2 * q**((k-1)*w) and log2(q) <= (q-1).bit_length();
    k = 1 makes every value 1 and builds no power of q."""
    _check_value_bits((k - 1) * w * (q - 1).bit_length())
    if k == 1:
        return lambda p: 1
    return lambda p: q_integer(k, q**p)


def q_chromatic(t: WeightedTree, k: int, q: int, mode: str = "subsets") -> int:
    """Weighted q-chromatic value: proper k-colourings graded by q.

    Colourings mode sums q**(sum of s(v) * w(v)) over proper colourings
    s: V -> {0..k-1}; subsets mode evaluates the alternating edge-subset
    expansion, with the q-integer [k]_(q**w(C)) per component C, by the
    open-weight DP.  Both agree exactly.
    """
    if k < 1 or q < 2:
        raise TreeInputError("need k >= 1 and q >= 2")
    f = _q_integers(k, q, t.total_weight)  # refuses values past the cap on either route
    if mode == "colourings":
        _check_colouring_enumerable(k, t.n)
        total = 0
        for s in product(range(k), repeat=t.n):
            if any(s[u] == s[v] for u, v in t.edges):
                continue
            total += q ** sum(s[v] * t.weights[v] for v in range(t.n))
        return total
    if mode == "subsets":
        return _evaluate(t, -1, f)
    raise TreeInputError(f"unknown mode {mode!r}")


def q_dichromate(t: WeightedTree, x: int, y: int, q: int) -> int:
    """Edge-subset expansion with x**|A| and, per component C, the q-integer
    [y]_(q**w(C)); evaluated by the open-weight DP."""
    if y < 1 or q < 2:
        raise TreeInputError("need y >= 1 and q >= 2")
    return _evaluate(t, x, _q_integers(y, q, t.total_weight))


def potts_dichromate(
    t: WeightedTree, x: int, k: int, q: int, r: int, mode: str = "subsets"
) -> int:
    """Potts-style sum with a field term; subset and colouring routes agree.

    Subsets: sum over edge subsets of x**|A| times, per component C,
    sum_{i<k} r**(weight(C) * q**i), evaluated by the open-weight DP.  Colourings:
    sum over all maps s: V -> {0..k-1} of
    (x+1)**(#monochromatic edges) * r**(sum q**s(v) * w(v)).
    """
    if k < 1 or q < 2 or r < 2:
        raise TreeInputError("need k >= 1, q >= 2, r >= 2")
    # the largest value is r**(w(T) * q**(k-1)); q**(k-1) alone passes the
    # cap once k - 1 reaches the cap's bit length
    spread = q ** min(k - 1, VALUE_BITS_CAP.bit_length())
    _check_value_bits(t.total_weight * spread * (r - 1).bit_length())
    if mode == "subsets":
        return _evaluate(t, x, lambda p: sum(r ** (p * q**i) for i in range(k)))
    if mode == "colourings":
        _check_colouring_enumerable(k, t.n)
        total = 0
        for s in product(range(k), repeat=t.n):
            mono = sum(1 for u, v in t.edges if s[u] == s[v])
            total += (x + 1) ** mono * r ** sum(
                q ** s[v] * t.weights[v] for v in range(t.n)
            )
        return total
    raise TreeInputError(f"unknown mode {mode!r}")

"""Shaped/non-shaped partition counts, expression analysis, and the census.

A j-partition designates one part of weight w(T)-j.  The non-shaped count
comes from situations: a non-shaped designated part hangs its complement as
a situation occurrence, and the j-side splits over the occurrence's
components.  Each occurring situation of weight j is read once per
containment table: its occurrence count, its symmetry factor, and the
product of its components' U-tables, whose entry for the j-side counts
those splits.  The shaped count is the designated total minus the
non-shaped count, and must match direct enumeration exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .errors import InternalInconsistencyError, ReconstructionError, TreeInputError
from .partitions import Expression, is_refinement
from .situations import (
    WHOLE_TREE,
    ContainmentTable,
    build_containment_table,
    hanging_classes,
)
from .trees import (
    CanonicalCode,
    ClassTable,
    SideIndex,
    WeightedTree,
    _preorder_tree,
    code_to_rooted_tree,
)

def _prepare(t: WeightedTree, j: int, e: Expression):
    w = t.total_weight
    side = e.j_side(j, w)
    if 2 * j > w + 1:
        raise TreeInputError(f"j={j} exceeds half of w(T)={w}")
    return side


def _table_for(t: WeightedTree, tbl: ContainmentTable | None) -> ContainmentTable:
    """The caller's table, once it is known to be t's; else a fresh one of
    t's hanging classes."""
    if tbl is None:
        return build_containment_table(t, hanging_classes(t))
    tbl.check_tree(t)
    return tbl


def nonshaped_count(
    t: WeightedTree, j: int, e: Expression, tbl: ContainmentTable | None = None
) -> int:
    """Designated j-partitions of characteristic e whose marked part is not
    a full edge side.

    Each situation of weight j that occurs adds m * splits[side] / sym, as
    `ContainmentTable.occurring_of` lists them.  splits[side] is the
    contracted tree's count of e (the marked part shrunk to one vertex of
    weight w(T)-j, the components hung from it): each part of a j-side of
    two or more parts weighs at most j-1 < w(T)-j+1, so every edge at that
    vertex is cut.  Every component weighs less than j, so a one-part
    j-side cannot split over them, and the count is 0.
    """
    side = _prepare(t, j, e)
    return _nonshaped(_table_for(t, tbl), j, side)


def _nonshaped(tbl: ContainmentTable, j: int, side: tuple[int, ...]) -> int:
    """nonshaped_count on a validated j-side and the tree's own table."""
    if len(side) < 2:
        return 0
    total = 0
    for m, sym, splits in tbl.occurring_of(j):
        d = m * splits.get(side, 0)
        if d % sym:
            raise InternalInconsistencyError(
                "ordered occurrence total is not divisible by the symmetry factor"
            )
        total += d // sym
    return total


def _counts(t: WeightedTree, j: int, e: Expression, tbl: ContainmentTable | None) -> tuple[int, int]:
    """The shaped and non-shaped counts, the latter evaluated once."""
    side = _prepare(t, j, e)
    tbl = _table_for(t, tbl)
    x = _nonshaped(tbl, j, side)
    designations = e.parts.count(t.total_weight - j)
    shaped = tbl.u_table(WHOLE_TREE).get(e, 0) * designations - x
    if shaped < 0:
        raise InternalInconsistencyError(
            f"shaped count went negative for j={j}, e={e}"
        )
    return shaped, x


def shaped_count(
    t: WeightedTree, j: int, e: Expression, tbl: ContainmentTable | None = None
) -> int:
    """Designated j-partitions with characteristic e whose marked part is a
    full edge side; equals direct enumeration."""
    return _counts(t, j, e, tbl)[0]


@dataclass(frozen=True)
class ExpressionAnalysis:
    expression: Expression
    j: int
    valid: bool
    minimal: bool
    resolved_shape: CanonicalCode | None


def analyze_expression(
    t: WeightedTree, j: int, e: Expression, tbl: ContainmentTable | None = None
) -> ExpressionAnalysis:
    """Validity, minimality, and shape resolution for a j-expression.

    e is minimal when valid and no finer j-expression has a shaped
    partition.  A shaped partition is a connected one, so every such finer
    expression is a key of the tree's U-table, and only those keys are tried.
    """
    side = _prepare(t, j, e)
    tbl = _table_for(t, tbl)
    w = t.total_weight
    valid = shaped_count(t, j, e, tbl) > 0
    minimal = valid and not any(
        f != e and f.is_j_expression(j, w) and is_refinement(f, e, j, w)
        and shaped_count(t, j, f, tbl) > 0
        for f in tbl.u_table(WHOLE_TREE)
    )
    resolved = None
    if valid:
        idx, classes = tbl.index, tbl.index.classes
        want = tuple(sorted(side))
        matches = [
            classes.code(c)
            for c in {c for _, _, c in idx.shapes()}
            if classes.size[c] == len(want) and classes.weight[c] == sum(want)
            and tuple(sorted(classes.code(c).code[0::2])) == want
        ]
        resolved = min(matches, default=None)
    return ExpressionAnalysis(e, j, valid, minimal, resolved)


@dataclass(frozen=True)
class ShapeCensus:
    """Counts of shape classes of weight at most half of the total."""

    total_weight: int
    entries: Mapping[CanonicalCode, int]


def shape_census(t: WeightedTree) -> ShapeCensus:
    return _census(SideIndex(t))


def _census(idx: SideIndex) -> ShapeCensus:
    """The shape census of the index's tree, its codes read off its table."""
    entries: dict[CanonicalCode, int] = {}
    w, classes = idx.tree.total_weight, idx.classes
    for _, _, c in idx.shapes():
        if 2 * classes.weight[c] <= w:
            code = classes.code(c)
            entries[code] = entries.get(code, 0) + 1
    return ShapeCensus(w, entries)


def reconstruct_from_census(census: ShapeCensus, hint_n: int) -> WeightedTree:
    """Rebuild the tree whose half-weight shape census is the given one.

    Descends through census weights: maximal classes join a common vertex,
    and at each lower weight the classes not accounted for inside already
    placed branches join it too, as one class table of the census counts
    them.  The result is verified against the census on that table; any
    mismatch raises instead of guessing.
    """
    w_total = census.total_weight
    classes = ClassTable()
    result = None
    if not census.entries:
        if hint_n == 1:
            result = WeightedTree(1, (), (w_total,))
        elif hint_n == 2 and w_total == 2:
            result = WeightedTree(2, ((0, 1),), (1, 1))
        elif hint_n >= 3 and w_total == hint_n:
            result = _preorder_tree((1, hint_n - 1) + (1, 0) * (hint_n - 1))
        else:
            raise ReconstructionError(
                "empty census is only realizable by a unit star of matching size"
            )
    else:
        ids = {code: classes.add(code_to_rooted_tree(code)) for code in census.entries}
        weights = {code: classes.weight[c] for code, c in ids.items()}
        m = max(weights.values())
        at_max = [code for code in ids if weights[code] == m]
        a = sum(census.entries[c] for c in at_max)
        if a == 2 and 2 * m == w_total:
            # the first half's root takes the second half as its last child
            first, second = at_max[0].code, at_max[-1].code
            result = _preorder_tree((first[0], first[1] + 1) + first[2:] + second)
        else:
            inside = classes.inside(list(ids.values()))
            attached: list[CanonicalCode] = []
            expected: dict[int, int] = {}  # by class id

            def attach(code: CanonicalCode, copies: int):
                attached.extend([code] * copies)
                root = ids[code]
                for c, cnt in inside[root].items():
                    if c != root and classes.size[c] >= 2:
                        expected[c] = expected.get(c, 0) + cnt * copies

            for code in sorted(at_max):
                attach(code, census.entries[code])
            for weight in sorted({weights[c] for c in ids if weights[c] < m}, reverse=True):
                for code in sorted(c for c in ids if weights[c] == weight):
                    deficit = census.entries[code] - expected.get(ids[code], 0)
                    if deficit < 0:
                        raise ReconstructionError(
                            f"census lists fewer copies of a class than its branches imply"
                        )
                    if deficit:
                        attach(code, deficit)
            center = w_total - sum(weights[c] for c in attached)
            if center < 1:
                raise ReconstructionError("attached branches exceed the total weight")
            branches = (c.code for c in attached)
            result = _preorder_tree(tuple(chain((center, len(attached)), *branches)))

    if result.n != hint_n:
        raise ReconstructionError(
            f"descent produced {result.n} vertices, expected {hint_n}"
        )
    if result.total_weight != w_total:
        raise ReconstructionError("descent lost weight")
    rebuilt = _census(SideIndex(result, classes))
    if dict(rebuilt.entries) != dict(census.entries):
        raise ReconstructionError("descent result does not reproduce the census")
    return result

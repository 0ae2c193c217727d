"""Tree documents: the JSON surface shared by the CLI and the census.

A document carries n, an edge list, per-vertex weights, and an optional
root.  Weights are serialized as decimal strings because encoder outputs
routinely exceed any fixed width.  Files hold either a single JSON object or
newline-delimited objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .embedding import GoodEmbedding
from .errors import TreeInputError
from .trees import RootedWeightedTree, WeightedTree


@dataclass(frozen=True)
class TreeDocument:
    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]
    root: int | None = None

    @classmethod
    def from_obj(cls, obj) -> "TreeDocument":
        if not isinstance(obj, dict):
            raise TreeInputError("tree document must be a JSON object")
        try:
            n = int(obj["n"])
            edges = tuple((int(u), int(v)) for u, v in obj["edges"])
            weights = tuple(int(w) for w in obj["weights"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeInputError(f"bad tree document: {exc}") from None
        root = obj.get("root")
        return cls(n, edges, weights, None if root is None else int(root))

    def to_obj(self) -> dict:
        obj = {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "weights": [str(w) for w in self.weights],
        }
        if self.root is not None:
            obj["root"] = self.root
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(", ", ": "))

    def tree(self) -> WeightedTree:
        return WeightedTree(self.n, self.edges, self.weights)

    def rooted(self) -> RootedWeightedTree:
        if self.root is None:
            raise TreeInputError("document has no root field")
        return RootedWeightedTree(self.tree(), self.root)

    def embedding(self, origin_n: int | None = None) -> GoodEmbedding:
        t = self.tree()
        if self.root is None:
            raise TreeInputError("an embedding document needs a root field")
        if origin_n is None:
            leaves = sum(1 for v in range(t.n) if t.degree(v) == 1)
            origin_n = t.n - leaves
        return GoodEmbedding(t, self.root, origin_n)

    @classmethod
    def from_tree(cls, t: WeightedTree, root: int | None = None) -> "TreeDocument":
        return cls(t.n, t.edges, t.weights, root)


def parse_documents(text: str) -> list[TreeDocument]:
    """One JSON object, or one per non-empty line."""
    body = text.strip()
    if not body:
        raise TreeInputError("empty tree document")
    if body.startswith("{") and body.count("\n{") == 0:
        try:
            return [TreeDocument.from_obj(json.loads(body))]
        except json.JSONDecodeError as exc:
            raise TreeInputError(f"bad JSON: {exc}") from None
    docs = []
    for line in body.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            docs.append(TreeDocument.from_obj(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise TreeInputError(f"bad JSON line: {exc}") from None
    return docs


def load_documents(path: str | Path) -> list[TreeDocument]:
    p = Path(path)
    if not p.exists():
        raise TreeInputError(f"no such file: {p}")
    return parse_documents(p.read_text(encoding="utf-8"))


def parse_rooted_spec(spec: str) -> RootedWeightedTree:
    """Parse the compact rooted-tree syntax, e.g. '1(1,2(1))'.

    A node is its weight, optionally followed by a parenthesized
    comma-separated child list.
    """
    weights: list[int] = []
    edges: list[tuple[int, int]] = []
    # open parents, innermost last; iterative so nesting depth is unbounded
    stack: list[int] = []
    pos = 0
    while True:
        start = pos
        while pos < len(spec) and spec[pos].isdigit():
            pos += 1
        if start == pos:
            raise TreeInputError(f"expected a weight at position {start} in {spec!r}")
        vid = len(weights)
        weights.append(int(spec[start:pos]))
        if stack:
            edges.append((stack[-1], vid))
        if pos < len(spec) and spec[pos] == "(":
            pos += 1
            stack.append(vid)
            continue
        # the node is complete: close finished child lists, then go on to a
        # sibling or stop at the top level
        while stack:
            if pos >= len(spec):
                raise TreeInputError("unbalanced parentheses")
            if spec[pos] == ",":
                pos += 1
                break
            if spec[pos] == ")":
                pos += 1
                stack.pop()
                continue
            raise TreeInputError(f"unexpected character {spec[pos]!r}")
        else:
            break
    if pos != len(spec):
        raise TreeInputError(f"trailing characters in {spec!r}")
    if min(weights) < 1:
        raise TreeInputError("weights must be positive")
    return RootedWeightedTree(WeightedTree(len(weights), tuple(edges), tuple(weights)), 0)


def parse_situation_spec(spec: str):
    """Split a comma-separated component list at the top parenthesis level."""
    parts = []
    depth = 0
    current = []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise TreeInputError("unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [parse_rooted_spec(p.strip()) for p in parts if p.strip()]

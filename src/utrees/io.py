"""Tree documents: the JSON surface shared by the CLI and the census.

A document carries n, an edge list, per-vertex weights, and an optional
root.  Weights are serialized as decimal strings because encoder outputs
routinely exceed any fixed width.  Files hold either a single JSON object or
newline-delimited objects.  Integer fields are strict: a JSON int or a
decimal string, nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .embedding import GoodEmbedding
from .errors import ResourceBoundError, TreeInputError
from .trees import RootedWeightedTree, WeightedTree

# decimal digits of the longest integer a document field may hold; the CLI
# raises the interpreter's limit (4,300 by default) to this for each call
MAX_DIGITS = 300_000


def _int_field(value, what: str) -> int:
    """A JSON int (not a bool) or a decimal string of ASCII digits.
    Anything else is refused, never truncated."""
    if type(value) is int:
        return value
    if type(value) is str and value.isascii() and value.isdigit():
        if len(value) > MAX_DIGITS:
            raise ResourceBoundError(f"{what} has {len(value)} digits; cap is MAX_DIGITS={MAX_DIGITS}")
        return int(value)
    raise TreeInputError(f"{what} must be an integer or a decimal string, got {value!r:.40}")


def _ints(values, what: str) -> tuple[int, ...]:
    """A JSON list of integer fields; all ints or all decimal strings are read in bulk."""
    if type(values) is not list:
        raise TreeInputError(f"{what} must be a JSON list, got {values!r:.40}")
    kinds = set(map(type, values))
    if kinds <= {int}:
        return tuple(values)
    if kinds == {str} and all(values) and max(map(len, values)) <= MAX_DIGITS:
        text = "".join(values)
        if text.isascii() and text.isdigit():
            return tuple(map(int, values))
    return tuple(_int_field(v, f"an entry of {what}") for v in values)


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
            n = _int_field(obj["n"], "n")
            edges = obj["edges"]
            if type(edges) is not list or not set(map(type, edges)) <= {list} or not set(map(len, edges)) <= {2}:
                raise TreeInputError(f"edges must be a JSON list of [u, v] lists, got {edges!r:.40}")
            ends = _ints(list(chain.from_iterable(edges)), "edge ends")
            edges = tuple(zip(ends[0::2], ends[1::2]))
            weights = _ints(obj["weights"], "weights")
            root = obj.get("root")
            root = None if root is None else _int_field(root, "root")
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeInputError(f"bad tree document: {exc}") from None
        return cls(n, edges, weights, root)

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


def _document(text: str) -> TreeDocument:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TreeInputError(f"bad JSON: {exc}") from None
    except ValueError as exc:
        # the decoder's one other refusal: an int literal past the digit limit;
        # the text before ";" names the limit and the length
        raise ResourceBoundError(f"JSON integer literal: {str(exc).split(';')[0]}") from None
    return TreeDocument.from_obj(obj)


def parse_documents(text: str) -> list[TreeDocument]:
    """One JSON object, or one per non-empty line."""
    body = text.strip()
    if not body:
        raise TreeInputError("empty tree document")
    if body.startswith("{") and body.count("\n{") == 0:
        return [_document(body)]
    return [_document(line) for line in body.splitlines() if line.strip()]


def load_documents(path: str | Path) -> list[TreeDocument]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # a missing file, a directory, or bytes that are not UTF-8
        raise TreeInputError(f"cannot read {path}: {exc}") from None
    return parse_documents(text)


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
        while pos < len(spec) and "0" <= spec[pos] <= "9":
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

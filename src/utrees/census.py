"""Fingerprint census: does the expression-count table separate trees?

The fingerprint of a tree is the canonical text of its U-polynomial table.
A collision is a pair of non-isomorphic trees sharing a fingerprint; finding
one would refute the separation conjecture at that scale.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .embedding import check_good, good_encode
from .errors import ResourceBoundError, TreeInputError
from .generate import MAX_ENUM_N, free_trees, random_encodable_tree
from .io import TreeDocument
from .partitions import u_polynomial
from .trees import WeightedTree, free_code

GOODSET_MAX_SOURCE_N = 7
DEFAULT_GOODSET_SAMPLES = 50


def fingerprint(t: WeightedTree) -> str:
    return u_polynomial(t).canonical_text()


@dataclass(frozen=True)
class CollisionPair:
    doc_a: TreeDocument
    doc_b: TreeDocument
    fingerprint: str


@dataclass(frozen=True)
class CensusReport:
    mode: str
    n_max: int
    weight_bound: int
    seed: int
    tree_count: int
    fingerprint_count: int
    collisions: tuple[CollisionPair, ...]
    goodset_ok: bool | None
    elapsed_seconds: float

    @property
    def holds(self) -> bool:
        return not self.collisions and self.goodset_ok is not False

    def stable_text(self) -> str:
        """Deterministic report body; timing is deliberately excluded."""
        lines = [
            f"mode={self.mode} max-n={self.n_max} weight-bound={self.weight_bound} seed={self.seed}",
            f"trees={self.tree_count}",
            f"fingerprints={self.fingerprint_count}",
        ]
        if self.goodset_ok is not None:
            lines.append(f"good-set-checks={'pass' if self.goodset_ok else 'FAIL'}")
        lines.append(f"collisions={len(self.collisions)}")
        for c in self.collisions:
            lines.append(f"  {c.doc_a.to_json()}")
            lines.append(f"  {c.doc_b.to_json()}")
        lines.append("separates" if self.holds else "COLLISION FOUND")
        return "\n".join(lines) + "\n"


def _collisions(entries: list[tuple[str, WeightedTree]]) -> list[CollisionPair]:
    by_fp: dict[str, list[WeightedTree]] = {}
    for fp, t in entries:
        by_fp.setdefault(fp, []).append(t)
    out = []
    for fp, group in sorted(by_fp.items()):
        if len(group) < 2:
            continue
        seen: dict = {}
        for t in group:
            code = free_code(t)
            for other_code, other in seen.items():
                if other_code != code:
                    out.append(
                        CollisionPair(
                            TreeDocument.from_tree(other), TreeDocument.from_tree(t), fp
                        )
                    )
            seen.setdefault(code, t)
    return out


def run_census(
    n_max: int,
    mode: str = "stanley",
    weight_bound: int = 8,
    seed: int = 0,
    samples: int = DEFAULT_GOODSET_SAMPLES,
) -> CensusReport:
    """Fingerprint every tree in the corpus selected by mode.

    stanley: all unit-weight trees with up to n_max vertices.
    goodset: seeded random weighted trees with 3..n_max vertices, embedded by
    the encoder, with the good-set properties checked on the whole sample.
    """
    start = time.monotonic()
    entries: list[tuple[str, WeightedTree]] = []
    goodset_ok = None
    if mode == "stanley":
        if n_max < 1:
            raise TreeInputError(f"stanley census needs n_max >= 1, got {n_max}")
        if n_max > MAX_ENUM_N:
            raise ResourceBoundError(
                f"stanley census enumerates up to MAX_ENUM_N={MAX_ENUM_N} vertices; got n_max={n_max}")
        for n in range(1, n_max + 1):
            for t in free_trees(n):
                entries.append((fingerprint(t), t))
    elif mode == "goodset":
        if n_max < 3:
            raise TreeInputError(f"goodset census needs n_max >= 3, got {n_max}")
        if n_max > GOODSET_MAX_SOURCE_N:
            raise ResourceBoundError(
                f"goodset census supports n_max <= {GOODSET_MAX_SOURCE_N}"
            )
        rng = random.Random(seed)
        embedded = []
        for _ in range(samples):
            n = rng.randint(3, n_max)
            t = random_encodable_tree(n, rng, weight_bound=weight_bound)
            embedded.append(good_encode(t).t_prime)
        goodset_ok = check_good(embedded).ok
        for tp in embedded:
            entries.append((fingerprint(tp), tp))
    else:
        raise TreeInputError(f"unknown census mode {mode!r}")

    collisions = _collisions(entries)
    return CensusReport(
        mode=mode,
        n_max=n_max,
        weight_bound=weight_bound,
        seed=seed,
        tree_count=len(entries),
        fingerprint_count=len({fp for fp, _ in entries}),
        collisions=tuple(collisions),
        goodset_ok=goodset_ok,
        elapsed_seconds=time.monotonic() - start,
    )

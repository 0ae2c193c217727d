"""Command-line interface.

Exit codes: 0 success (holds / isomorphic), 1 semantic negative (not
isomorphic, collision found, check failed), 2 input error, 3 resource bound
exceeded, 4 internal inconsistency (two routes that must agree did not) or
any other unexpected error, which is a bug, and 141 when the reader of
stdout closed it early (128 + SIGPIPE, as a shell reports such a writer).
"""

from __future__ import annotations

import argparse
import os
import sys

from .census import run_census
from .embedding import check_good, good_decode, good_encode
from .errors import (
    InternalInconsistencyError,
    MalformedEmbeddingError,
    MissingTableEntryError,
    ReconstructionError,
    ResourceBoundError,
    TreeInputError,
)
from .io import MAX_DIGITS, TreeDocument, _int_field, load_documents, parse_situation_spec
from .partitions import (
    Expression,
    count_shaped_partitions,
    potts_dichromate,
    q_chromatic,
    q_dichromate,
    u_polynomial,
)
from .shapecount import _counts
from .situations import Situation, enumerate_situations, occurrences_by_inclusion_exclusion
from .trees import SideIndex, alpha_vector, free_code, render_code, rooted_code


def _load_one(path: str) -> TreeDocument:
    docs = load_documents(path)
    if len(docs) != 1:
        raise TreeInputError(f"{path} holds {len(docs)} documents, expected one")
    return docs[0]


def cmd_canon(args) -> int:
    doc = _load_one(args.file)
    if doc.root is not None:
        print(rooted_code(doc.rooted()).as_text())
    else:
        print(free_code(doc.tree()).as_text())
    return 0


def cmd_iso(args) -> int:
    a, b = _load_one(args.file_a), _load_one(args.file_b)
    if (a.root is None) != (b.root is None):
        raise TreeInputError("cannot compare a rooted tree with an unrooted one")
    if a.root is not None:
        same = rooted_code(a.rooted()) == rooted_code(b.rooted())
    else:
        same = free_code(a.tree()) == free_code(b.tree())
    print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def cmd_upoly(args) -> int:
    print(u_polynomial(_load_one(args.file).tree(), args.mode).canonical_text(), end="")
    return 0


def cmd_shapes(args) -> int:
    idx = SideIndex(_load_one(args.file).tree())
    sides = idx.shapes()
    codes = idx.classes.compose([c for _, _, c in sides])
    for ((u, v), root, c), code in zip(sides, codes):
        print(f"edge=({u},{v}) root={root} weight={idx.classes.weight[c]} shape={code.text}")
    return 0


def cmd_alpha(args) -> int:
    print(" ".join(str(a) for a in alpha_vector(_load_one(args.file).tree())))
    return 0


def cmd_encode(args) -> int:
    g = good_encode(_load_one(args.file).tree())
    print(TreeDocument.from_tree(g.t_prime, root=g.root).to_json())
    return 0


def cmd_decode(args) -> int:
    doc = _load_one(args.file)
    print(TreeDocument.from_tree(good_decode(doc.embedding())).to_json())
    return 0


def cmd_check_good(args) -> int:
    trees = []
    for path in args.files:
        trees.extend(d.tree() for d in load_documents(path))
    report = check_good(trees)
    for tr in report.trees:
        bits = []
        bits.append("leaf-structure=ok" if tr.leaf_structure_ok
                    else f"leaf-structure=FAIL@{tr.leaf_structure_witness}")
        bits.append("leaf-weights=ok" if tr.leaf_weight_ok
                    else f"leaf-weights=FAIL@{tr.leaf_weight_witness}")
        print(f"tree {tr.index}: " + " ".join(bits))
    if report.shape_violation is None:
        print("shape-multisets: ok")
    else:
        v = report.shape_violation
        print(f"shape-multisets: FAIL trees {v.tree_a},{v.tree_b} "
              f"weights={','.join(map(str, v.weights))}")
    print("good" if report.ok else "not good")
    return 0 if report.ok else 1


def cmd_count(args) -> int:
    t = _load_one(args.file).tree()
    e = Expression.of(_int_field(p, "a part of --expr") for p in args.expr.split(","))
    j = args.j
    shaped, x = _counts(t, j, e, None)
    print(f"partitions={shaped + x}")
    print(f"non-shaped={x}")
    print(f"shaped={shaped}")
    if args.oracle:
        direct = count_shaped_partitions(t, j, e)
        print(f"shaped-enumerated={direct}")
        if direct != shaped:
            raise InternalInconsistencyError(
                f"table route gives {shaped}, enumeration gives {direct}"
            )
    return 0


def cmd_situations(args) -> int:
    t = _load_one(args.file).tree()
    for s in enumerate_situations(t, args.weight):
        comps = ",".join(render_code(code) for code in s.codes)
        print(f"t={s.size} weight={s.total_weight}: {comps}")
    return 0


def cmd_m_count(args) -> int:
    t = _load_one(args.file).tree()
    s = Situation.of(parse_situation_spec(args.situation))
    print(occurrences_by_inclusion_exclusion(t, s))
    return 0


def cmd_eval(args) -> int:
    t = _load_one(args.file).tree()
    if args.kind == "M":
        value = q_chromatic(t, args.k, args.q, args.mode)
    elif args.kind == "B":
        if args.mode != "subsets":
            raise TreeInputError(f"B has no {args.mode} route; use --mode subsets")
        value = q_dichromate(t, args.x, args.y, args.q)
    else:
        value = potts_dichromate(t, args.x, args.k, args.q, args.r, args.mode)
    print(value)
    return 0


def cmd_census(args) -> int:
    report = run_census(
        n_max=args.max_n,
        mode=args.mode,
        weight_bound=args.weight_bound,
        seed=args.seed,
    )
    sys.stdout.write(report.stable_text())
    print(f"elapsed: {report.elapsed_seconds:.2f}s", file=sys.stderr)
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utrees",
        description="Exact weighted-tree invariants: canonical codes, "
        "expression-count tables, embeddings, and counting procedures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="print the canonical code of a tree")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("iso", help="compare two trees (exit 0 iff isomorphic)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("upoly", help="print the expression-count table")
    p.add_argument("file")
    p.add_argument("--mode", choices=("brute", "dp"), default="dp")
    p.set_defaults(func=cmd_upoly)

    p = sub.add_parser("shapes", help="list the shapes of a tree")
    p.add_argument("file")
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("alpha", help="print the distinct shape weights")
    p.add_argument("file")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("encode", help="embed a tree into the decorated family")
    p.add_argument("file")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="invert an embedding document")
    p.add_argument("file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("check-good", help="check the good-set properties")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_check_good)

    p = sub.add_parser("count", help="shaped and non-shaped partition counts")
    p.add_argument("file")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--expr", required=True, help="comma-separated parts, e.g. 2,2,1")
    p.add_argument("--oracle", action="store_true",
                   help="also enumerate directly and compare")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("situations", help="list situations of a given weight")
    p.add_argument("file")
    p.add_argument("--weight", type=int, required=True)
    p.set_defaults(func=cmd_situations)

    p = sub.add_parser("m-count", help="occurrence count of a situation")
    p.add_argument("file")
    p.add_argument("--situation", required=True,
                   help="components in nested weight syntax, e.g. '1,1(1)'")
    p.set_defaults(func=cmd_m_count)

    p = sub.add_parser("eval", help="numeric invariant evaluation")
    p.add_argument("kind", choices=("M", "B", "Br"))
    p.add_argument("file")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=1)
    p.add_argument("--mode", choices=("subsets", "colourings"), default="subsets")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("census", help="fingerprint census over generated trees")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--mode", choices=("stanley", "goodset"), default="stanley")
    p.add_argument("--weight-bound", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # integers of up to MAX_DIGITS digits are read and printed; the caller's limit comes back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        status = args.func(args)
        # a closed pipe shows up at the last write, so make that happen here
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone, as `| head` does; point stdout at devnull so
        # the interpreter's final flush of what is still buffered stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (TreeInputError, MalformedEmbeddingError, MissingTableEntryError,
            ReconstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            print(f"resource bound: an integer passes MAX_DIGITS={MAX_DIGITS} digits", file=sys.stderr)
            return 3  # str() past the limit set above, which names no length
        # exit 1 means a semantic negative, so a crash must not reach it;
        # traceback is imported only here to keep every run's start-up lean
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

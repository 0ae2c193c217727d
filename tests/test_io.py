import json

import pytest

from utrees.errors import ResourceBoundError, TreeInputError
from utrees.io import (
    MAX_DIGITS,
    TreeDocument,
    load_documents,
    parse_documents,
    parse_rooted_spec,
    parse_situation_spec,
)
from utrees.trees import rooted_code

from helpers import path, rooted


def test_document_roundtrip():
    doc = TreeDocument.from_tree(path(1, 10**30, 2), root=1)
    back = parse_documents(doc.to_json())
    assert back == [doc]
    assert back[0].tree() == path(1, 10**30, 2)
    assert back[0].rooted().root == 1


def test_document_accepts_string_weights():
    docs = parse_documents('{"n": 2, "edges": [[0, 1]], "weights": ["3", "1"]}')
    assert docs[0].weights == (3, 1)


def test_ndjson_stream():
    a = TreeDocument.from_tree(path(1, 1))
    b = TreeDocument.from_tree(path(2, 1, 1))
    docs = parse_documents(a.to_json() + "\n\n" + b.to_json() + "\n")
    assert docs == [a, b]


def test_bad_documents():
    with pytest.raises(TreeInputError):
        parse_documents("")
    with pytest.raises(TreeInputError):
        parse_documents("[1, 2]")
    with pytest.raises(TreeInputError):
        parse_documents('{"n": 2, "edges": [[0, 1]]}')


BASE = {"n": 2, "edges": [[0, 1]], "weights": [1, 1], "root": 0}


@pytest.mark.parametrize("key, value", [
    ("weights", [1.5, 1]), ("weights", [True, 1]), ("weights", ["1.5", "1"]),
    ("weights", [" 1", "1"]), ("weights", ["+1", "1"]), ("weights", ["-1", "1"]), ("weights", ["", "1"]), ("weights", ["\u0661", "1"]),
    ("weights", [None, 1]), ("weights", "11"), ("root", 0.9), ("root", True),
    ("root", "x"), ("n", 2.0), ("n", [2]), ("edges", [[0, 1.0]]),
    ("edges", [[False, 1]]), ("edges", ["01"]), ("edges", [[0, 1, 1]]), ("edges", {"0": 1}),
])
def test_integer_fields_are_strict(key, value):
    # a float, a bool or any other non-integer is refused, never truncated
    with pytest.raises(TreeInputError, match="bad tree document"):
        parse_documents(json.dumps({**BASE, key: value}))


def test_integer_fields_accept_ints_and_decimal_strings():
    doc = {"n": "2", "edges": [["0", 1]], "weights": ["2", "1" * 4000], "root": "1"}
    assert parse_documents(json.dumps(doc)) == [TreeDocument(2, ((0, 1),), (2, int("1" * 4000)), 1)]
    # the length is checked before the interpreter's own limit is met
    with pytest.raises(ResourceBoundError, match=f"an entry of weights has {MAX_DIGITS + 1} digits; cap is MAX_DIGITS={MAX_DIGITS}"):
        parse_documents(json.dumps({**BASE, "weights": ["1" * (MAX_DIGITS + 1), "1"]}))


def test_unreadable_files_are_input_errors(tmp_path):
    with pytest.raises(TreeInputError, match="Is a directory"):
        load_documents(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 1, "edges": [], "weights": ["\xff"]}')
    with pytest.raises(TreeInputError, match="can't decode byte 0xff"):
        load_documents(bad)
    with pytest.raises(TreeInputError, match="maximum recursion depth"):
        parse_documents("[" * 100_000)


def test_parse_rooted_spec():
    rt = parse_rooted_spec("1(1)")
    assert rooted_code(rt) == rooted_code(rooted(path(1, 1), 0))
    rt2 = parse_rooted_spec("2(1,3(1))")
    assert rt2.tree.n == 4
    assert rt2.tree.weights[rt2.root] == 2
    with pytest.raises(TreeInputError):
        parse_rooted_spec("1(")
    with pytest.raises(TreeInputError):
        parse_rooted_spec("(1)")


def test_parse_situation_spec():
    comps = parse_situation_spec("1,1(1)")
    assert len(comps) == 2
    assert {c.tree.n for c in comps} == {1, 2}

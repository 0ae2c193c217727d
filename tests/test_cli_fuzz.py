"""Every subcommand that reads a tree document is total on malformed input,
and so are `count --expr` and `m-count --situation` on any string: each
exits 0, 1, 2 or 3, and never prints a traceback."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from utrees.cli import main
from utrees.io import TreeDocument

from helpers import weighted_trees

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
KEYS = ("n", "edges", "weights", "root")


def _commands(f: str) -> list[list[str]]:
    return [
        ["canon", f], ["iso", f, f], ["upoly", f], ["shapes", f], ["alpha", f],
        ["encode", f], ["decode", f], ["check-good", f],
        ["count", f, "--j", "2", "--expr", "2,1,1", "--oracle"],
        ["situations", f, "--weight", "1"], ["m-count", f, "--situation", "1,1"],
        ["eval", "M", f, "--k", "2"],
    ]


def _check_total(commands: list[list[str]]):
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


@st.composite
def malformed_documents(draw):
    t = draw(weighted_trees(max_n=6))
    doc = {"n": t.n, "edges": [list(e) for e in t.edges], "weights": [str(w) for w in t.weights]}
    if draw(st.booleans()):
        doc["root"] = draw(st.integers(-2, t.n + 1))
    edges = doc["edges"]
    kind = draw(st.sampled_from([
        "field", "element", "missing", "not an object", "duplicate edge",
        "edge out of range", "disconnected", "as is",
    ]))
    if kind == "field":
        doc[draw(st.sampled_from(KEYS))] = draw(JSON)
    elif kind == "element":
        seq = doc[draw(st.sampled_from(("edges", "weights")))]
        seq[draw(st.integers(0, len(seq) - 1))] = draw(JSON)
    elif kind == "missing":
        doc.pop(draw(st.sampled_from(KEYS)), None)
    elif kind == "not an object":
        doc = draw(JSON)
    elif kind == "duplicate edge":
        edges[-1] = list(reversed(edges[0]))
    elif kind == "edge out of range":
        edges[-1][1] = draw(st.sampled_from([-1, t.n, t.n + 5]))
    elif kind == "disconnected":
        doc["n"] = t.n + 1
        doc["weights"].append("1")
        edges[-1] = [t.n, t.n]
    return json.dumps(doc)


@settings(max_examples=40, deadline=None)
@given(malformed_documents())
def test_malformed_documents_exit_0_to_3_without_traceback(text):
    with tempfile.TemporaryDirectory() as d:
        f = Path(d) / "doc.json"
        f.write_text(text)
        _check_total(_commands(str(f)))


def test_unreadable_paths_exit_2_without_traceback():
    with tempfile.TemporaryDirectory() as d:
        bad = Path(d) / "bad.json"
        bad.write_bytes(b'{"n": 1, "edges": [], "weights": ["\xff"]}')
        for f in (d, str(bad)):
            _check_total(_commands(f))


# digits, separators and lookalikes that int() reads but a spec must refuse
SPECS = st.text(alphabet="0123456789,() +-_x\uff13\u00b2", max_size=12) | st.text(max_size=6)


@settings(max_examples=60, deadline=None)
@given(weighted_trees(max_n=6), SPECS)
def test_drawn_expr_and_situation_strings_exit_0_to_3_without_traceback(t, spec):
    with tempfile.TemporaryDirectory() as d:
        f = Path(d) / "doc.json"
        f.write_text(TreeDocument.from_tree(t).to_json())
        _check_total([
            ["count", str(f), "--j", "2", f"--expr={spec}", "--oracle"],
            ["m-count", str(f), f"--situation={spec}"],
        ])

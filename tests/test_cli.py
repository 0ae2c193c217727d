import json
import os
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal

import utrees
from utrees import cli, partitions, shapecount, situations, trees
from utrees.cli import main
from utrees.io import MAX_DIGITS, TreeDocument, parse_documents
from utrees.partitions import count_shaped_partitions, u_polynomial
from utrees.trees import isomorphic

from helpers import path, star


def write_doc(tmp_path, name, tree, root=None):
    p = tmp_path / name
    p.write_text(TreeDocument.from_tree(tree, root=root).to_json() + "\n")
    return str(p)


def test_canon_and_iso(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", path(1, 2, 1))
    b = write_doc(tmp_path, "b.json", path(1, 2, 1))
    c = write_doc(tmp_path, "c.json", path(2, 1, 1))
    assert main(["canon", a]) == 0
    code_a = capsys.readouterr().out.strip()
    assert main(["canon", b]) == 0
    assert capsys.readouterr().out.strip() == code_a
    assert main(["iso", a, b]) == 0
    assert capsys.readouterr().out.strip() == "isomorphic"
    assert main(["iso", a, c]) == 1
    assert capsys.readouterr().out.strip() == "not isomorphic"


def test_iso_refuses_rooted_against_unrooted(tmp_path, capsys):
    free = write_doc(tmp_path, "free.json", path(1, 2, 1))
    rooted_doc = write_doc(tmp_path, "rooted.json", path(1, 2, 1), root=1)
    assert main(["iso", rooted_doc, free]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot compare a rooted tree with an unrooted one" in captured.err
    assert main(["iso", free, rooted_doc]) == 2
    assert "cannot compare a rooted tree" in capsys.readouterr().err
    assert main(["iso", rooted_doc, rooted_doc]) == 0
    capsys.readouterr()


def test_upoly_output(tmp_path, capsys):
    f = write_doc(tmp_path, "p4.json", path(1, 1, 1, 1))
    assert main(["upoly", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n=4 w=4 z=0"
    assert "2,2: 1" in out
    f2 = write_doc(tmp_path, "s4.json", star(1, 1, 1, 1))
    assert main(["upoly", f2]) == 0
    assert "2,2" not in capsys.readouterr().out


def test_shapes_and_alpha(tmp_path, capsys):
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    assert main(["shapes", f]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert main(["alpha", f]) == 0
    assert capsys.readouterr().out.strip() == "2 3"


def test_encode_decode_roundtrip(tmp_path, capsys):
    f = write_doc(tmp_path, "t.json", path(5, 1, 6))
    assert main(["encode", f]) == 0
    encoded = capsys.readouterr().out.strip()
    obj = json.loads(encoded)
    assert "root" in obj
    enc_file = tmp_path / "enc.json"
    enc_file.write_text(encoded + "\n")
    assert main(["decode", str(enc_file)]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert sorted(int(w) for w in decoded["weights"]) == [1, 5, 6]


def test_weights_past_the_interpreter_digit_limit(tmp_path, capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    # a 200-vertex unit path encodes to weights of about 5,990 digits
    f = write_doc(tmp_path, "p200.json", path(*[1] * 200))
    assert main(["encode", f]) == 0
    enc = tmp_path / "enc.json"
    enc.write_text(capsys.readouterr().out)
    assert main(["decode", str(enc)]) == 0
    decoded = parse_documents(capsys.readouterr().out)[0]
    assert isomorphic(decoded.tree(), path(*[1] * 200))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "weights": ["7" * 5000, "1"]}))
    assert main(["canon", str(big)]) == 0
    assert "7" * 5000 in capsys.readouterr().out
    big.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "weights": ["7" * (MAX_DIGITS + 1), "1"]}))
    assert main(["canon", str(big)]) == 3
    assert f"has {MAX_DIGITS + 1} digits; cap is MAX_DIGITS={MAX_DIGITS}" in capsys.readouterr().err
    # an output past the bound: 2^20000 + 2 has 6,021 digits
    monkeypatch.setattr(cli, "MAX_DIGITS", 5000)
    f = write_doc(tmp_path, "p2.json", path(20000, 1))
    assert main(["eval", "M", f, "--k", "2"]) == 3
    assert "an integer passes MAX_DIGITS=5000 digits" in capsys.readouterr().err
    # in-process callers keep their own limit
    assert sys.get_int_max_str_digits() == limit


def test_check_good(tmp_path, capsys):
    f = write_doc(tmp_path, "t.json", path(5, 1, 6))
    assert main(["encode", f]) == 0
    enc = capsys.readouterr().out
    enc_file = tmp_path / "enc.json"
    enc_file.write_text(enc)
    assert main(["check-good", str(enc_file)]) == 0
    assert "good" in capsys.readouterr().out
    bad = write_doc(tmp_path, "bad.json", path(2, 1, 1))
    assert main(["check-good", str(bad)]) == 1


def test_count_with_oracle(tmp_path, capsys):
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    assert main(["count", f, "--j", "3", "--expr", "2,2,1", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "partitions=6" in out
    assert "non-shaped=2" in out
    assert "shaped=4" in out
    assert "shaped-enumerated=4" in out


def test_count_builds_one_table(tmp_path, capsys, monkeypatch):
    # one side index, one non-shaped sum, and no U-table DP: one state fold
    # each for the component classes 1 and 1(1) of its one situation that
    # occurs, and for 1(1(1)), which with 1(1) is a side of the tree's most
    # balanced edge (1, 2), whose states close the tree's table
    made = {"indexes": 0, "dps": 0, "nonshaped": 0}
    folds = Counter()
    init, dp = trees.SideIndex.__init__, partitions._u_table_dp
    nonshaped = shapecount._nonshaped
    fold = situations.ContainmentTable._fold

    def counted_init(self, tree):
        made["indexes"] += 1
        init(self, tree)

    def counted_dp(t):
        made["dps"] += 1
        return dp(t)

    def counted_nonshaped(*args):
        made["nonshaped"] += 1
        return nonshaped(*args)

    def counted_fold(self, cid):
        folds[self.index.classes.text(cid)] += 1
        return fold(self, cid)

    monkeypatch.setattr(trees.SideIndex, "__init__", counted_init)
    monkeypatch.setattr(partitions, "_u_table_dp", counted_dp)
    monkeypatch.setattr(shapecount, "_nonshaped", counted_nonshaped)
    monkeypatch.setattr(situations.ContainmentTable, "_fold", counted_fold)
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    assert main(["count", f, "--j", "3", "--expr", "2,2,1"]) == 0
    assert capsys.readouterr().out == "partitions=6\nnon-shaped=2\nshaped=4\n"
    assert made == {"indexes": 1, "dps": 0, "nonshaped": 1}
    assert folds == {"1": 1, "1(1)": 1, "1(1(1))": 1}


def test_situations_and_m_count(tmp_path, capsys):
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    assert main(["situations", f, "--weight", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["m-count", f, "--situation", "1,1(1)"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_situations_past_the_cap_exit_3(tmp_path, capsys):
    # a 200-vertex unit path has 190,569,291 situations of weight 100
    f = write_doc(tmp_path, "p200.json", path(*[1] * 200))
    assert main(["situations", f, "--weight", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_SITUATIONS=10000: reached 10001" in captured.err


def test_cap_bounds_occurring_situations_only(tmp_path, capsys, monkeypatch):
    # weight 6 of the 2,1 path of eight vertices: 3 occurring situations of
    # 14, so under a cap of 5 the counts answer and the listing exits 3
    t = path(1, 2, 1, 2, 1, 2, 1, 2)
    f = write_doc(tmp_path, "p8.json", t)
    monkeypatch.setattr(situations, "MAX_SITUATIONS", 5)
    w, j = t.total_weight, 6
    expressions = [e for e in u_polynomial(t).counts if e.is_j_expression(j, w)]
    assert len(expressions) > 5
    for e in expressions:
        want = count_shaped_partitions(t, j, e)
        assert shapecount.shaped_count(t, j, e) == want
        assert main(["count", f, "--j", str(j), "--expr", ",".join(map(str, e.parts)), "--oracle"]) == 0
        assert capsys.readouterr().out.endswith(f"shaped={want}\nshaped-enumerated={want}\n")
    assert main(["situations", f, "--weight", str(j)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_SITUATIONS=5: reached 6" in captured.err


def test_eval(tmp_path, capsys):
    f = write_doc(tmp_path, "p2.json", path(1, 1))
    assert main(["eval", "M", f, "--k", "2", "--q", "2", "--mode", "colourings"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["eval", "B", f, "--x", "0", "--y", "2", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["eval", "Br", f, "--x", "0", "--k", "2", "--q", "2", "--r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "36"


def test_eval_rejects_bad_parameters(tmp_path, capsys):
    f = write_doc(tmp_path, "p2.json", path(1, 1))
    assert main(["eval", "M", f, "--k", "0"]) == 2
    assert main(["eval", "B", f, "--y", "0"]) == 2
    assert main(["eval", "Br", f, "--r", "1"]) == 2
    capsys.readouterr()
    assert main(["eval", "B", f, "--mode", "colourings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "B has no colourings route" in captured.err


def test_eval_dp_state_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(partitions, "DP_STATE_CAP", 1000)
    # the centre's open weights are 1 + each subset sum of the leaves: 2^12
    f = write_doc(tmp_path, "s12.json", star(1, *(2**i for i in range(12))))
    assert main(["eval", "M", f]) == 3
    assert "cap is 1000" in capsys.readouterr().err
    # a unit path has at most n open weights at a vertex; its two proper
    # 2-colourings each give q^30
    f = write_doc(tmp_path, "p60.json", path(*([1] * 60)))
    assert main(["eval", "M", f, "--k", "2"]) == 0
    assert capsys.readouterr().out == f"{2 * 2**30}\n"


def test_eval_value_bits_cap(tmp_path, capsys):
    # w(T) = 2^18: k = 1 builds no power of q, k = 2 is refused before any
    f = write_doc(tmp_path, "s18.json", star(1, *(2**i for i in range(18))))
    for k, code, out in (("1", 0, "0\n"), ("2", 3, "")):
        start = time.perf_counter()
        assert main(["eval", "M", f, "--k", k]) == code
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == out
    assert "estimated 262144 bits; cap is VALUE_BITS_CAP=32768" in captured.err
    # the two proper 2-colourings of an edge give 2^20000 + 2, 6,021 digits
    f = write_doc(tmp_path, "p2.json", path(20000, 1))
    assert main(["eval", "M", f, "--k", "2"]) == 0
    assert capsys.readouterr().out == f"{Decimal(2**20000 + 2)}\n"


def test_census_cli(capsys):
    assert main(["census", "--max-n", "5", "--mode", "stanley"]) == 0
    out = capsys.readouterr().out
    assert "collisions=0" in out
    assert out.endswith("separates\n")


def test_goodset_census_cli_at_its_largest_source_size(capsys):
    # encoded trees weigh up to 2^34 here: the table DP must give fields only
    # to the part weights that occur
    assert main(["census", "--mode", "goodset", "--max-n", "7"]) == 0
    out = capsys.readouterr().out
    assert "trees=50\n" in out and "good-set-checks=pass\n" in out and "collisions=0\n" in out
    assert out.endswith("separates\n")


def test_census_size_range_exit_codes(capsys):
    for argv in (["--max-n", "0"], ["--max-n", "-1"], ["--mode", "goodset", "--max-n", "2"]):
        assert main(["census", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert main(["census", "--max-n", "13"]) == 3
    assert "MAX_ENUM_N=12 vertices; got n_max=13" in capsys.readouterr().err
    assert main(["census", "--mode", "goodset", "--max-n", "8"]) == 3
    assert "resource bound" in capsys.readouterr().err


def test_situations_weight_below_one(tmp_path, capsys):
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    for weight in ("0", "-3"):
        assert main(["situations", f, "--weight", weight]) == 2
        err = capsys.readouterr().err
        assert f"target weight {weight} must be at least 1" in err
        assert "exceeds half" not in err
    assert main(["situations", f, "--weight", "4"]) == 2
    assert "target weight 4 exceeds half of w(T)=5" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["canon", missing]) == 2
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    assert main(["count", f, "--j", "3", "--expr", "9"]) == 2
    big = write_doc(tmp_path, "p12.json", path(*([1] * 12)))
    capsys.readouterr()
    assert main(["m-count", big, "--situation", "1,1,1,1,1"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_input_errors_come_from_the_check_that_owns_them(tmp_path, capsys):
    # a situation of fewer than two components, and an e that is not a
    # j-expression at a j above half: the latter error is reported first
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    capsys.readouterr()
    for spec in ("1", ""):
        assert main(["m-count", f, "--situation", spec]) == 2
        assert capsys.readouterr() == ("", "error: a situation needs at least two components\n")
    assert main(["count", f, "--j", "4", "--expr", "3,2"]) == 2
    assert capsys.readouterr() == ("", "error: (3, 2) is not a 4-expression of 5\n")


def test_count_expr_takes_ascii_digits_only(tmp_path, capsys):
    # int() would read 1_1 as 11 and accept a sign, blanks or a fullwidth 3
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    for expr in ("3,1_1", "3,+2", "3, 2", "\uff13,2", "3,2,", "3,-2"):
        assert main(["count", f, "--j", "2", f"--expr={expr}"]) == 2, expr
        assert "a part of --expr must be" in capsys.readouterr().err, expr
    assert main(["count", f, "--j", "2", "--expr=3,0,2"]) == 2
    assert main(["count", f, "--j", "2", "--expr=3,2"]) == 0


def test_deep_situation_spec_is_an_input_error(tmp_path, capsys):
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    deep = "1(" * 1500 + "1" + ")" * 1500
    assert main(["m-count", f, "--situation", deep + ",1"]) == 2
    assert "exceeds half" in capsys.readouterr().err


def test_unexpected_error_exits_4(tmp_path, capsys, monkeypatch):
    def crash(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "occurrences_by_inclusion_exclusion", crash)
    f = write_doc(tmp_path, "p5.json", path(1, 1, 1, 1, 1))
    assert main(["m-count", f, "--situation", "1,1(1)"]) == 4
    assert "internal error: ZeroDivisionError: boom" in capsys.readouterr().err


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # a reader that stops after one line, as `| head -1` does; the ~500 kB
    # of shapes are far more than a pipe buffers, so the writer meets the
    # closed end
    f = write_doc(tmp_path, "p400.json", path(*([1] * 400)))
    src = os.path.dirname(os.path.dirname(utrees.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "utrees.cli", "shapes", f],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first == b"edge=(1,2) root=1 weight=2 shape=1(1)\n"
    assert err == b""

import pytest

from utrees import census
from utrees.census import fingerprint, run_census
from utrees.cli import main
from utrees.errors import ResourceBoundError, TreeInputError
from utrees.generate import random_relabeling, random_weighted_tree
from utrees.partitions import Expression, u_polynomial
from utrees.trees import WeightedTree

import random

from helpers import path, star


def test_fingerprint_isomorphism_invariant():
    rng = random.Random(55)
    t = WeightedTree(6, ((0, 1), (1, 2), (1, 3), (3, 4), (0, 5)), (2, 1, 1, 3, 1, 1))
    assert fingerprint(t) == fingerprint(random_relabeling(t, rng))


def test_fingerprint_separates_path_star():
    assert fingerprint(path(1, 1, 1, 1)) != fingerprint(star(1, 1, 1, 1))


def test_fingerprint_builds_no_expression(monkeypatch):
    # the fingerprint path reads the DP's part tuples and never makes an
    # Expression, checked or trusted
    rng = random.Random(14)
    trees = [random_weighted_tree(n, 5, rng) for n in range(1, 15) for _ in range(2)]
    want = [fingerprint(t) for t in trees]

    def refuse(*_):
        raise AssertionError("an Expression was built on the fingerprint path")

    monkeypatch.setattr(Expression, "_trusted", classmethod(refuse))
    monkeypatch.setattr(Expression, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        Expression((1,))
    for t, text in zip(trees, want):
        assert fingerprint(t) == text
        assert u_polynomial(t).canonical_text() == text


def test_stanley_census_small():
    report = run_census(n_max=6, mode="stanley")
    assert report.tree_count == 1 + 1 + 1 + 2 + 3 + 6
    assert report.fingerprint_count == report.tree_count
    assert not report.collisions
    assert report.holds
    assert report.goodset_ok is None


def test_stanley_census_trivial():
    report = run_census(n_max=1, mode="stanley")
    assert report.tree_count == 1
    assert report.holds


def test_goodset_census():
    report = run_census(n_max=6, mode="goodset", weight_bound=40, seed=9, samples=30)
    assert report.tree_count == 30
    assert report.goodset_ok is True
    assert not report.collisions
    assert report.holds


def test_census_byte_stability():
    a = run_census(n_max=5, mode="goodset", weight_bound=12, seed=3, samples=12)
    b = run_census(n_max=5, mode="goodset", weight_bound=12, seed=3, samples=12)
    assert a.stable_text() == b.stable_text()
    c = run_census(n_max=5, mode="goodset", weight_bound=12, seed=4, samples=12)
    assert "seed=4" in c.stable_text()


def test_census_bounds():
    with pytest.raises(ResourceBoundError, match="MAX_ENUM_N=12 vertices; got n_max=13"):
        run_census(n_max=13, mode="stanley")
    with pytest.raises(ResourceBoundError):
        run_census(n_max=9, mode="goodset")
    # a size below the supported range is an input error, not a resource bound
    for n_max in (0, -1):
        with pytest.raises(TreeInputError, match="n_max >= 1"):
            run_census(n_max=n_max, mode="stanley")
    with pytest.raises(TreeInputError, match="n_max >= 3"):
        run_census(n_max=2, mode="goodset")


def test_stanley_census_runs_to_the_generator_bound(capsys):
    assert main(["census", "--mode", "stanley", "--max-n", "12"]) == 0
    out = capsys.readouterr().out
    assert "trees=987\nfingerprints=987\n" in out
    assert out.endswith("separates\n")


def test_stanley_census_computes_no_codes_when_fingerprints_differ(monkeypatch, capsys):
    calls = []
    real = census.free_code
    monkeypatch.setattr(census, "free_code", lambda t: calls.append(t) or real(t))
    assert main(["census", "--mode", "stanley", "--max-n", "8"]) == 0
    assert "collisions=0" in capsys.readouterr().out
    assert calls == []


def test_census_reports_collisions_within_a_fingerprint_group(monkeypatch):
    monkeypatch.setattr(census, "fingerprint", lambda t: "constant")
    report = run_census(n_max=5, mode="stanley")
    # the 8 free trees with n <= 5 are pairwise non-isomorphic: every pair collides
    assert report.tree_count == 8
    assert report.fingerprint_count == 1
    assert len(report.collisions) == 8 * 7 // 2
    assert not report.holds
    assert "COLLISION FOUND" in report.stable_text()

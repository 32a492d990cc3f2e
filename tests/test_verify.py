"""The suite runner: sweeps, their signatures and the CLI's size bounds."""

import inspect
import json
from functools import wraps

import pytest

from weylwords import verify
from weylwords.affine import affine_inversion_set, bfs_elements
from weylwords.cartan import build_root_system, sub_system
from weylwords.cli import main
from weylwords.verify import SUITES

# The size bound each sized suite takes from --len, and whether --cutoff
# reaches it: the table the CLI kept by hand before reading signatures.
SIZED = {
    "finite-bijection": ("max_length", True),
    "roundtrip": ("max_y", False),
    "diagram": ("max_y", False),
    "length": ("max_length", False),
    "four-cases": ("max_y", True),
    "action": ("max_x", True),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_takes_labels_and_at_most_one_size_bound(name):
    params = inspect.signature(SUITES[name]).parameters
    assert "labels" in params
    bounds = [p for p in params if p.startswith("max_")]
    assert bounds == ([SIZED[name][0]] if name in SIZED else [])


@pytest.mark.parametrize("name", sorted(SIZED))
def test_len_and_cutoff_reach_the_suite_as_a_direct_call_would(name, monkeypatch, capsys):
    # A wrapper that keeps the signature, as a tracing wrapper would.
    real, seen = SUITES[name], []
    monkeypatch.setitem(SUITES, name, wraps(real)(lambda **kw: seen.append(kw) or real(**kw)))
    bound, takes_cutoff = SIZED[name]
    cutoff = ["--cutoff", "6"] if takes_cutoff else []
    code = main(["verify", name, "--type", "A1", "--len", "5", *cutoff])
    data = json.loads(capsys.readouterr().out)
    kwargs = {"labels": ("A1",), bound: 5} | ({"cutoff": 6} if takes_cutoff else {})
    direct = real(**kwargs)
    assert seen == [kwargs]
    assert code == 0 and data["passed"] and direct.passed
    assert data["checks"] == direct.checked


@pytest.mark.parametrize("name", ["subsets", "words", "orbit"])
def test_len_on_a_suite_without_a_size_bound_is_a_usage_error(name, capsys):
    assert main(["verify", name, "--len", "1"]) == 2
    assert capsys.readouterr().err == f"error: --len does not apply to suite {name!r}\n"


@pytest.mark.parametrize("name", ["roundtrip", "diagram", "length", "subsets", "orbit"])
def test_cutoff_on_a_suite_without_a_cutoff_is_a_usage_error(name, capsys):
    assert "cutoff" not in inspect.signature(SUITES[name]).parameters
    assert main(["verify", name, "--type", "A1", "--cutoff", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cutoff does not apply to suite {name!r}\n"


# Brute-force sets larger than the ball, inversion sets above the cutoff and
# cutoffs below twice the brute level each once gave false counterexamples.
# G2 at the defaults has an 84-root window, which was once refused.
@pytest.mark.parametrize("label, length, cutoff", [
    ("A1", 2, 6), ("A1", 5, 4), ("A1", 3, 1), ("A1", 5, 2), ("A1", 4, 0),
    ("A2", 2, 6), ("A2", 3, 2), ("A2", 4, 1), ("A2", 4, 3), ("G2", 5, 6),
])
def test_finite_bijection_holds_at_every_length_and_cutoff(label, length, cutoff):
    result = verify.check_finite_bijection(labels=(label,), max_length=length, cutoff=cutoff)
    assert result.passed, result.counterexamples[:3]
    # One check per ball element, and two per inversion set within the
    # brute-force bounds (size 5, level 2): one from each side.
    rs = build_root_system(label)
    full = sub_system(rs, rs.index_set)
    ball = bfs_elements(full, length)
    low = [x for x, d in ball.items() if d <= 5
           and all(b.level <= 2 for b in affine_inversion_set(x, full))]
    assert result.checked == len(ball) + 2 * len(low)


def test_misclassified_base_word_fails_orbit_without_a_check(monkeypatch):
    clean = verify.check_orbit_decomposition(labels=("A1",), samples=0)
    monkeypatch.setattr(verify, "orbit_invariant", lambda word: ("wrong",))
    result = verify.check_orbit_decomposition(labels=("A1",), samples=0)
    assert clean.passed and not result.passed
    assert result.counterexamples == ["A1: base word for K=() misclassified"]
    assert result.checked == clean.checked


def test_counterexamples_keep_the_first_twenty_in_order(monkeypatch):
    monkeypatch.setattr(verify, "affine_length", lambda x, sub: -1)
    result = verify.check_length_bfs(labels=("A2",), max_length=4)
    rs = build_root_system("A2")
    ball = bfs_elements(sub_system(rs, rs.index_set), 4)
    expected = [f"A2: {x!r} has distance {d} but length -1" for x, d in ball.items()]
    assert len(expected) > 20 and result.checked == len(expected)
    assert not result.passed and result.counterexamples == expected[:20]


def test_a_failure_without_a_check_fails_even_as_the_last_step(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {})  # keep the toy suite out of the registry

    @verify._suite("toy")
    def toy(n=3):
        for k in range(n):
            yield [] if k else [f"check {k}"]
        yield "uncounted"
        return f"{n} checks"

    result = toy()
    assert (result.name, result.checked, result.detail) == ("toy", 3, "3 checks")
    assert not result.passed and result.counterexamples == ["check 0", "uncounted"]
    assert list(inspect.signature(toy).parameters) == ["n"]
    assert toy(n=0).counterexamples == ["uncounted"]


def test_details_and_counterexamples_name_types_canonically(monkeypatch, capsys):
    # A label is echoed as its root system names it, however it was typed.
    assert main(["verify", "length", "--type", "a02, c2", "--len", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["detail"] == "lengths to 2 over A2, C2"
    monkeypatch.setattr(verify, "affine_length", lambda x, sub: -1)
    result = verify.check_length_bfs(labels=("a02",), max_length=1)
    assert result.detail == "lengths to 1 over A2"
    assert result.counterexamples and all(c.startswith("A2: ") for c in result.counterexamples)

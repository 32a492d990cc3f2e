import argparse
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from weylwords import cli, run_suite
from weylwords.cli import MAX_INPUT_CUTOFF, MAX_INPUT_LENGTH, MAX_WINDOW_LIMIT, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_roots_window_example(capsys):
    code, data, _ = run_json(
        capsys, "roots", "--type", "A1", "--cutoff", "1"
    )
    assert code == 0
    assert data["type"] == "A1"
    window = data["window"]
    assert window["count"] == 4
    reals = [b for b in window["roots"] if b["classical"] is not None]
    assert len(reals) == 3


def test_roots_subsystem(capsys):
    code, data, _ = run_json(capsys, "roots", "--type", "A2", "--J", "1")
    assert code == 0
    assert data["subsystem_roots"] == [[-1, 0], [1, 0]]


def test_roots_bad_type_is_usage_error(capsys):
    code, _, err = run(capsys, "roots", "--type", "Z9")
    assert code == 2
    assert "error" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_weyl_inspector(capsys):
    code, data, _ = run_json(capsys, "weyl", "--type", "A2", "--word", "1,2,1")
    assert code == 0
    assert data["length"] == 3
    assert sorted(data["inversions"]) == [[0, 1], [1, 0], [1, 1]]


@pytest.mark.parametrize("word", ["0", "-1", "3", "1,5"])
def test_weyl_out_of_range_index_is_usage_error(capsys, word):
    code, out, err = run(capsys, "weyl", "--type", "A2", f"--word={word}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_type_label_is_printed_canonically(capsys):
    code, data, _ = run_json(capsys, "weyl", "--type", "a02", "--word", "1")
    assert code == 0
    assert data["type"] == "A2"


@pytest.mark.parametrize("argv", [
    ("weyl", "--type", "A\uff12", "--word", "1"),
    ("roots", "--type", "A2", "--cutoff", "\uff12"),
], ids=["type-rank", "cutoff"])
def test_non_ascii_digits_are_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


A2_WORD = '{"J":[1,2],"head":[],"period":[{"c":1},{"c":2},{"a":1}]}'


@pytest.mark.parametrize("field, argv", [
    ("J", ["biconvex", "classify", "--type", "A1", "--window", "{}"]),
    ("K", ["biconvex", "realize", "--type", "A1", "--param", '{"J":[1]}']),
    ("wbar", ["word", "act", "--type", "A2", "--word", A2_WORD, "--x", '{"lambda":[1,0]}']),
    ("lambda", ["word", "act", "--type", "A2", "--word", A2_WORD,
                "--x", '{"lambda":[0.5,0],"wbar":[]}']),
    ("u", ["biconvex", "realize", "--type", "A1", "--param",
           '{"J":[1],"K":[],"u":[1.0],"y":{"lambda":[0],"wbar":[]}}']),
    ("J", ["biconvex", "classify", "--type", "A1", "--window", "[]"]),
    ("level", ["biconvex", "classify", "--type", "A1", "--window",
               '{"J":[1],"cutoff":1,"elements":[{"level":0.5,"classical":[1]}]}']),
    ("c", ["word", "classify", "--type", "A1", "--word",
           '{"J":[1],"head":[],"period":[{"c":1.7},{"a":1}]}']),
], ids=["window-no-keys", "param-no-K", "x-no-wbar", "x-float-lambda", "param-float-u",
        "window-array", "window-float-level", "letter-float-index"])
def test_malformed_json_field_is_usage_error(capsys, field, argv):
    # A missing key, a non-object or a number that is not a JSON integer.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert repr(field) in err


def _one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize("argv", [
    ("weyl",),
    ("verify", "nonsense"),
    ("roots", "--type", "A2", "--cutoff", "x"),
    (),
], ids=["weyl-no-type", "unknown-suite", "cutoff-not-int", "no-command"])
def test_parse_error_is_one_error_line(capsys, argv):
    _one_error_line(*run(capsys, *argv))


@pytest.mark.parametrize("argv,reason", [
    (("roots", "--type", "A2", "--J", "1,x"), "argument --J: bad index list '1,x'"),
    (("biconvex", "parametrize", "--type", "A1",
      "--view", '{"tail":[[-1]],"finite":[],"cutoff":3}'), "parametrize --view needs --J"),
], ids=["bad-index-list", "view-without-J"])
def test_usage_error_names_its_reason(capsys, argv, reason):
    assert run(capsys, *argv) == (2, "", f"error: {reason}\n")


def test_help_still_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0 and "--len" in out and err == ""


A1_PARAM = '{"J":[1],"K":[],"u":[],"y":{"lambda":[0],"wbar":[]}}'


@pytest.mark.parametrize("argv", [
    ("biconvex", "realize", "--type", "A1", "--param", A1_PARAM, "--cutoff", "-2"),
    ("word", "make", "--type", "A2", "--K", "1", "--cutoff", "-3"),
    ("verify", "length", "--len", "-1"),
    ("biconvex", "enumerate", "--type", "A1", "--max-size", "-1"),
    ("biconvex", "parametrize", "--type", "A1", "--J", "1",
     "--view", '{"tail":[],"finite":[],"cutoff":-1}'),
    ("biconvex", "classify", "--type", "A1", "--window",
     '{"J":[1],"cutoff":-1,"elements":[]}'),
], ids=["realize-cutoff", "word-cutoff", "verify-len", "enumerate-max-size",
        "view-cutoff", "window-cutoff"])
def test_negative_cutoff_or_bound_is_usage_error(capsys, argv):
    _one_error_line(*run(capsys, *argv))


def _cutoff_routes(n):
    """Each way a cutoff enters from outside, at cutoff n."""
    view = {"tail": [[-1]], "finite": [], "cutoff": n}
    raised = {"tail": [], "finite": [{"level": n, "classical": [1]}], "cutoff": 0}
    window = json.dumps({"J": [1], "cutoff": n, "elements": []})
    return {
        "roots": ("roots", "--type", "A1", "-N", str(n)),
        "realize": ("biconvex", "realize", "--type", "A1", "--param", A1_PARAM,
                    "--cutoff", str(n)),
        "word-make": ("word", "make", "--type", "A2", "--K", "1", "--cutoff", str(n)),
        "verify": ("verify", "words", "--type", "A1", "--cutoff", str(n)),
        "classify-window": ("biconvex", "classify", "--type", "A1", "--window", window),
        "parametrize-window": ("biconvex", "parametrize", "--type", "A1", "--window", window),
        "view": ("biconvex", "parametrize", "--type", "A1", "--J", "1",
                 "--view", json.dumps(view)),
        "view-raised": ("biconvex", "parametrize", "--type", "A1", "--J", "1",
                        "--view", json.dumps(raised)),
    }


@pytest.mark.parametrize("route", list(_cutoff_routes(0)))
def test_outside_cutoffs_are_bounded(capsys, route):
    # A window's size grows with its cutoff even when it is empty, so every
    # cutoff read from outside stops at one bound.
    bound = MAX_INPUT_CUTOFF
    code, out, err = run(capsys, *_cutoff_routes(bound + 1)[route])
    _one_error_line(code, out, err)
    assert f"cutoff {bound + 1} is above the limit {bound}" in err
    code, out, err = run(capsys, *_cutoff_routes(bound)[route])
    assert code in (0, 1) and "error" not in err, (code, err)


def test_enumerate_cutoff_is_bounded_before_the_window_limit(capsys):
    bound = MAX_INPUT_CUTOFF
    for cutoff, text in ((bound + 1, "is above the limit"), (bound, "roots, above the limit 64")):
        code, out, err = run(capsys, "biconvex", "enumerate", "--type", "A1",
                             "--cutoff", str(cutoff))
        _one_error_line(code, out, err)
        assert text in err, err


def test_realize_raises_its_own_cutoff_past_the_bound(capsys):
    y = {"lambda": [MAX_INPUT_CUTOFF], "wbar": []}
    param = json.dumps({"J": [1], "K": [1], "u": [], "y": y})
    code, data, _ = run_json(capsys, "biconvex", "realize", "--type", "A1", "--param", param)
    assert code == 0 and max(b["level"] for b in data["finite"]) > MAX_INPUT_CUTOFF


A1_WORD = '{"J":[1],"head":[],"period":[{"a":1},{"c":1}]}'


def _length_routes(above):
    """Each way an element enters from outside, at length MAX_INPUT_LENGTH,
    or one more if above."""
    def element(lam):
        if above:  # t_-lambda s_1, one letter longer than t_lambda
            return {"lambda": [-lam[0], *lam[1:]], "wbar": [1]}
        return {"lambda": lam, "wbar": []}

    a1, a2 = element([MAX_INPUT_LENGTH // 2]), element([MAX_INPUT_LENGTH // 4, 0])
    return {
        "realize": ("biconvex", "realize", "--type", "A1", "--param",
                    json.dumps({"J": [1], "K": [1], "u": [], "y": a1})),
        "word-make": ("word", "make", "--type", "A2", "--param",
                      json.dumps({"J": [1, 2], "K": [1], "u": [], "y": a2})),
        "word-act": ("word", "act", "--type", "A1", "--word", A1_WORD, "--x", json.dumps(a1)),
    }


@pytest.mark.parametrize("route", list(_length_routes(False)))
def test_outside_element_lengths_are_bounded(capsys, route):
    # Realizing and acting grow with the element's length, so every element
    # read from outside stops at one bound, on its length over the full system.
    code, out, err = run(capsys, *_length_routes(True)[route])
    _one_error_line(code, out, err)
    limit = MAX_INPUT_LENGTH
    assert err == f"error: element length {limit + 1} is above the limit {limit}\n"
    code, out, err = run(capsys, *_length_routes(False)[route])
    assert code == 0 and err == "", (code, err)


def test_window_limit_is_bounded(capsys):
    # The sum table grows with the square of the window; the library's own
    # callers size their limits and stay unbounded.
    argv = ("biconvex", "enumerate", "--type", "A1", "--window-limit")
    code, out, err = run(capsys, *argv, str(MAX_WINDOW_LIMIT + 1))
    _one_error_line(code, out, err)
    assert f"window limit {MAX_WINDOW_LIMIT + 1} is above the limit {MAX_WINDOW_LIMIT}" in err
    code, data, err = run_json(capsys, *argv, str(MAX_WINDOW_LIMIT))
    assert code == 0 and err == "" and data["count"] > 0


# Each biconvex and word action parses only the flags it reads: a missing
# required flag, a flag of another action, or both sources of parametrize.
@pytest.mark.parametrize("argv, message", [
    (("biconvex", "realize", "--type", "A1"), "required: --param"),
    (("biconvex", "classify", "--type", "A1", "--window",
      '{"J":[1],"cutoff":1,"elements":[]}', "--cutoff", "3"),
     "unrecognized arguments: --cutoff 3"),
    (("biconvex", "parametrize", "--type", "A1", "--J", "1",
      "--view", '{"tail":[[-1]],"finite":[],"cutoff":3}', "--window", "{}"), "not allowed with"),
    (("word", "act", "--type", "A1", "--word", A1_WORD, "--x", '{"lambda":[0],"wbar":[1]}',
      "--K", "1"), "unrecognized arguments: --K 1"),
], ids=["realize-no-param", "classify-cutoff", "view-and-window", "act-K"])
def test_action_parsers_reject_what_the_action_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    _one_error_line(code, out, err)
    assert message in err


# The flags each action declares besides --type, --format and --out.
ACTION_FLAGS = {
    ("biconvex", "realize"): {"--param", "--cutoff"},
    ("biconvex", "parametrize"): {"--view", "--window", "--J"},
    ("biconvex", "classify"): {"--window"},
    ("biconvex", "enumerate"): {"--J", "--cutoff", "--max-size", "--window-limit"},
    ("word", "make"): {"--J", "--K", "--param", "--cutoff"},
    ("word", "act"): {"--word", "--x"},
    ("word", "equiv"): {"--word", "--word2"},
    ("word", "classify"): {"--word"},
}


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_action_declares_only_the_flags_it_reads():
    commands = _subcommands(cli.build_parser())
    declared = {
        (group, name): {a.option_strings[0] for a in leaf._actions if a.option_strings}
        - {"-h", "--type", "--format", "--out"}
        for group in ("biconvex", "word")
        for name, leaf in _subcommands(commands[group]).items()
    }
    assert declared == ACTION_FLAGS
    assert sum(map(len, declared.values())) == 19


def test_window_member_of_wrong_length_is_named_by_its_coordinates(capsys):
    window = '{"J":[1],"cutoff":1,"elements":[{"level":0,"classical":[1,0,0]}]}'
    code, out, err = run(capsys, "biconvex", "classify", "--type", "A1", "--window", window)
    _one_error_line(code, out, err)
    assert "[1, 0, 0] is not a root" in err


def test_biconvex_realize_and_roundtrip(capsys):
    param = json.dumps(
        {"J": [1], "K": [], "u": [], "y": {"lambda": [0], "wbar": []}}
    )
    code, view, _ = run_json(
        capsys, "biconvex", "realize", "--type", "A1", "--param", param,
        "--cutoff", "3",
    )
    assert code == 0
    assert view["tail"] == [[-1]]
    assert len(view["members"]) == 3

    code, back, _ = run_json(
        capsys, "biconvex", "parametrize", "--type", "A1", "--J", "1",
        "--view", json.dumps({k: view[k] for k in ("tail", "finite", "cutoff")}),
    )
    assert code == 0
    assert back == {"J": [1], "K": [], "u": [], "y": {"lambda": [0], "wbar": []}}


def test_biconvex_parametrize_rejects_non_biconvex(capsys):
    window = json.dumps(
        {
            "J": [1],
            "cutoff": 2,
            "elements": [{"level": 1, "classical": [-1]}],
            "tail": [[-1]],
        }
    )
    code, data, _ = run_json(
        capsys, "biconvex", "parametrize", "--type", "A1", "--window", window
    )
    assert code == 1
    assert data["biconvex"] is False


CLASSIFY_NOT_BICONVEX = (
    "biconvex", "classify", "--type", "A2", "--window",
    json.dumps({"J": [1, 2], "cutoff": 2, "elements": [{"level": 0, "classical": [1, 1]}]}),
)


def test_biconvex_classify_rejects_non_biconvex(capsys):
    code, data, err = run_json(capsys, *CLASSIFY_NOT_BICONVEX)
    assert (code, err) == (1, "")
    assert data == {"biconvex": False,
                    "reason": "not a finite inversion set: set is not an affine inversion set"}


def test_biconvex_enumerate_example(capsys):
    code, data, _ = run_json(
        capsys, "biconvex", "enumerate", "--type", "A1", "--cutoff", "1",
        "--max-size", "1",
    )
    assert code == 0
    assert data["count"] == 3
    assert data["printed"] == [[], ["a1"], ["1d-a1"]]


def test_biconvex_enumerate_defaults_list_imaginary_roots(capsys):
    # At cutoff 2 the sets hold imaginary roots beside real roots of the
    # same level, so the listing must order them without comparing None.
    from weylwords import build_root_system, enumerate_biconvex, sub_system

    code, data, _ = run_json(capsys, "biconvex", "enumerate", "--type", "A1")
    assert code == 0
    sub = sub_system(build_root_system("A1"), (1,))
    assert data["count"] == len(enumerate_biconvex(sub, 2, 4, window_limit=64))


def test_biconvex_enumerate_refuses_oversized(capsys):
    code, _, err = run(
        capsys, "biconvex", "enumerate", "--type", "C2", "--cutoff", "6",
        "--max-size", "2", "--window-limit", "24",
    )
    assert code == 2
    assert "window has" in err


def test_biconvex_classify_full_window(capsys):
    window = {
        "J": [1],
        "cutoff": 2,
        "elements": [
            {"level": 0, "classical": [1]},
            {"level": 1, "classical": [1]},
            {"level": 2, "classical": [1]},
            {"level": 1, "classical": [-1]},
            {"level": 2, "classical": [-1]},
            {"level": 1, "classical": None},
            {"level": 2, "classical": None},
        ],
        "tail": [[1], [-1]],
        "imaginary_tail": True,
    }
    code, data, _ = run_json(
        capsys, "biconvex", "classify", "--type", "A1", "--window",
        json.dumps(window),
    )
    assert code == 0
    assert data == {
        "biconvex": True,
        "case": "b",
        "element": {"lambda": [0], "wbar": []},
    }


def test_word_make_and_classify(capsys):
    code, data, _ = run_json(
        capsys, "word", "make", "--type", "A1", "--K", "", "--cutoff", "2"
    )
    assert code == 0
    assert data["period"] == [{"a": 1}, {"c": 1}]
    assert data["inversions"] == ["1d-a1", "2d-a1"]

    code, cls, _ = run_json(
        capsys, "word", "classify", "--type", "A1", "--word", json.dumps(
            {k: data[k] for k in ("J", "head", "period")}
        ),
    )
    assert code == 0
    assert cls["K"] == []
    assert cls["param"]["u"] == []


def test_word_act_and_equiv(capsys):
    base = {"J": [1], "head": [], "period": [{"a": 1}, {"c": 1}]}
    code, acted, _ = run_json(
        capsys, "word", "act", "--type", "A1", "--word", json.dumps(base),
        "--x", json.dumps({"lambda": [0], "wbar": [1]}),
    )
    assert code == 0

    other = {"J": [1], "head": [], "period": [{"c": 1}, {"a": 1}]}
    code, data, _ = run_json(
        capsys, "word", "equiv", "--type", "A1", "--word", json.dumps(acted),
        "--word2", json.dumps(other),
    )
    assert code == 0 and data["equivalent"] is True

    code, data, _ = run_json(
        capsys, "word", "equiv", "--type", "A1", "--word", json.dumps(base),
        "--word2", json.dumps(other),
    )
    assert code == 0 and data["equivalent"] is False


def test_word_make_requires_proper_k(capsys):
    code, _, err = run(capsys, "word", "make", "--type", "A1", "--K", "1")
    assert code == 2
    assert "proper" in err


def test_word_usage_errors(capsys):
    base = json.dumps({"J": [1], "head": [], "period": [{"a": 1}, {"c": 1}]})
    assert run(capsys, "word", "act", "--type", "A1", "--word", base)[0] == 2
    assert run(capsys, "word", "equiv", "--type", "A1", "--word", base)[0] == 2
    assert run(capsys, "word", "classify", "--type", "A1")[0] == 2
    bad_letter = json.dumps({"J": [1], "head": [], "period": [{"z": 1}]})
    assert run(capsys, "word", "classify", "--type", "A1", "--word", bad_letter)[0] == 2
    code, _, err = run(
        capsys, "biconvex", "parametrize", "--type", "A1", "--J", "1",
        "--view", "{not json",
    )
    assert code == 2 and "bad view JSON" in err


def test_word_make_from_param(capsys):
    param = {
        "J": [1, 2],
        "K": [1],
        "u": [2],
        "y": {"lambda": [0, 0], "wbar": []},
    }
    code, data, _ = run_json(
        capsys, "word", "make", "--type", "A2", "--param", json.dumps(param),
        "--cutoff", "1",
    )
    assert code == 0
    code, cls, _ = run_json(
        capsys, "word", "classify", "--type", "A2", "--word", json.dumps(
            {k: data[k] for k in ("J", "head", "period")}
        ),
    )
    assert code == 0
    assert cls["param"] == param


def test_biconvex_realize_default_cutoff(capsys):
    param = json.dumps(
        {"J": [1], "K": [], "u": [], "y": {"lambda": [0], "wbar": []}}
    )
    code, view, _ = run_json(
        capsys, "biconvex", "realize", "--type", "A1", "--param", param
    )
    assert code == 0
    assert view["cutoff"] == 3


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "verify.json"
    code, out, err = run(
        capsys, "verify", "length", "--type", "A1", "--len", "3",
        "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["passed"] is True
    assert "[pass]" in err


def test_out_into_a_missing_directory_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "roots", "--type", "A1", "--out", str(target))
    _one_error_line(code, out, err)
    assert str(target) in err and not target.parent.exists()


def test_a_refusal_into_a_missing_directory_is_one_error_line(tmp_path, capsys):
    # The exit-1 answer fails at the output file like any other: exit 2.
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *CLASSIFY_NOT_BICONVEX, "--out", str(target))
    _one_error_line(code, out, err)
    assert str(target) in err and not target.parent.exists()


def test_verify_suite_passes(capsys):
    code, data, err = run_json(
        capsys, "verify", "length", "--type", "A1", "--len", "4"
    )
    assert code == 0
    assert data["passed"] is True
    assert "[pass] length" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run(capsys, "verify", "nonsense")[0] == 2
    with pytest.raises(ValueError, match="^unknown suite 'nonsense'; choose from"):
        run_suite("nonsense")


def test_table_format(capsys):
    code, out, _ = run(
        capsys, "--format", "table", "roots", "--type", "A1"
    )
    assert code == 0
    assert "type: A1" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run(
        capsys, "--out", str(target), "roots", "--type", "A1"
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["type"] == "A1"


def test_parametrize_view_keeps_finite_roots_above_the_cutoff(capsys):
    # The view lists t[1]'s inversions at levels 1 and 2 with cutoff 1.
    view = json.dumps({
        "tail": [],
        "finite": [{"level": 1, "classical": [-1]}, {"level": 2, "classical": [-1]}],
        "cutoff": 1,
    })
    code, data, _ = run_json(
        capsys, "biconvex", "parametrize", "--type", "A1", "--J", "1", "--view", view
    )
    assert code == 0
    assert data == {"J": [1], "K": [1], "u": [], "y": {"lambda": [1], "wbar": []}}


@pytest.mark.parametrize("argv", [
    ("--type", "A1", "--len", "6"),
    ("--type", "G2", "--len", "4", "--cutoff", "1"),
    ("--type", "A2", "--len", "5", "--cutoff", "1"),
    ("--type", "C2", "--len", "4", "--cutoff", "1"),
], ids=lambda argv: argv[1])
def test_four_cases_windows_reach_the_top_inversion_level(capsys, argv):
    # Elements whose inversions rise above the cutoff are still windowed whole.
    code, data, err = run_json(capsys, "verify", "four-cases", *argv)
    assert code == 0, err
    assert data["passed"] is True


# One set of parsers serves every main call in a process; no call may leave
# state behind for the next.


def test_table_format_does_not_leak(capsys):
    assert run(capsys, "--format", "table", "roots", "--type", "A1")[0] == 0
    code, data, _ = run_json(capsys, "roots", "--type", "A1")
    assert code == 0 and data["type"] == "A1"


def test_out_file_does_not_leak(tmp_path, capsys):
    target = tmp_path / "roots.json"
    assert run(capsys, "--out", str(target), "roots", "--type", "A1")[:2] == (0, "")
    target.unlink()
    code, data, _ = run_json(capsys, "roots", "--type", "A1")
    assert code == 0 and data["type"] == "A1"
    assert not target.exists()


def test_usage_error_does_not_leak(capsys):
    code, out, err = run(capsys, "weyl", "--word", "1,2")
    assert code == 2 and out == "" and "--type" in err
    code, data, err = run_json(capsys, "weyl", "--type", "A2", "--word", "1,2")
    assert code == 0 and err == ""
    assert data["word"] == [1, 2] and data["length"] == 2


def test_cutoff_does_not_leak(capsys):
    param = json.dumps({"J": [1], "K": [], "u": [], "y": {"lambda": [0], "wbar": []}})
    realize = ("biconvex", "realize", "--type", "A1", "--param", param)
    assert run_json(capsys, *realize, "--cutoff", "1")[1]["cutoff"] == 1
    assert run_json(capsys, *realize)[1]["cutoff"] == 3


def _parser_state(obj, seen):
    """A parser's attributes, its actions' and its subparsers', as plain data."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__") and not isinstance(obj, _OPAQUE):
        items = vars(obj).items()
    else:
        return repr(obj)
    if id(obj) in seen:
        return ("seen", seen[id(obj)])
    seen[id(obj)] = len(seen)
    return type(obj).__name__, tuple((repr(k), _parser_state(v, seen)) for k, v in items)


_OPAQUE = (type, types.FunctionType, types.MethodType)


def test_main_reuses_one_parser_and_never_writes_to_it(monkeypatch, tmp_path, capsys):
    assert cli.build_parser() is not cli.build_parser()
    built, weyl_calls = [], []
    real_build, real_weyl = cli.build_parser, cli.cmd_weyl
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    monkeypatch.setattr(cli, "cmd_weyl", lambda args: weyl_calls.append(1) or real_weyl(args))
    cli._shared_parser.cache_clear()
    try:
        assert run(capsys, "weyl", "--type", "A2", "--word", "1")[0] == 0
        state = _parser_state(cli._shared_parser(), {})
        for argv in (
            ("--format", "table", "--out", str(tmp_path / "out"), "weyl", "--type", "A1"),
            ("roots", "--type", "A2", "-N", "1"),
            ("weyl", "--word", "1"),
            ("verify", "nonsense"),
            ("word", "--help"),
            (),
        ):
            run(capsys, *argv)
        assert _parser_state(cli._shared_parser(), {}) == state
    finally:
        cli._shared_parser.cache_clear()
    # Built once, on the first call, binding the module's cmd_* of that time.
    assert built == [1] and weyl_calls == [1, 1]


def test_parser_is_not_built_at_import():
    script = (
        "from weylwords import cli; "
        "assert cli._shared_parser.cache_info().currsize == 0; "
        "cli.main(['roots', '--type', 'A1']); "
        "assert cli._shared_parser.cache_info().currsize == 1"
    )
    paths = (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_closed_stdout_ends_quietly():
    # The read end is closed before the process starts, so its first write
    # to stdout meets a broken pipe whatever the output's size.
    paths = (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "weylwords.cli", "roots", "--type", "E8"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 0


# The JSON writer against the call whose layout it copies.  Strings carry
# non-ASCII and control characters and quotes; a Fraction goes through
# default=str.  A key that is not a str sends the payload to json.dumps,
# which writes it by json's own rule or raises TypeError.

_STRINGS = st.text() | st.sampled_from(['"', "\\", '\'"', "\x00\x1f\n\t\x7f", "é ü 𝔤 \u2028", ""])
_SCALARS = (
    _STRINGS
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
    | st.floats()
    | st.fractions()
)
_KEYS = _STRINGS | st.integers() | st.booleans() | st.none() | st.floats() | st.fractions()
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=24,
)


def _text_or_error(write, data):
    try:
        return write(data)
    except TypeError as exc:
        return TypeError, str(exc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_PAYLOADS)
@example({})
@example(((), [{}], {"a": []}))
@example({"x": Fraction(-3, 4), "y": [Fraction(2)]})
@example({1: "one", None: [], True: 1.5, 2.5: {}})
@example({Fraction(1, 2): 0})
@example([10**30, -(10**30), float("nan"), float("-inf"), "\u00e9\"\n"])
def test_json_writer_matches_json_dumps(data):
    expected = _text_or_error(lambda d: json.dumps(d, indent=2, default=str), data)
    assert _text_or_error(cli._dumps, data) == expected

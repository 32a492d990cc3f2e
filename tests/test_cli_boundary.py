"""The CLI's input boundary, fuzzed from the golden records.

Each example takes one argv list of ``tests/golden/cli.json`` and applies
one mutation.  Whatever the mutation, ``main`` returns 0, 1 or 2 without
raising, and exit 2 writes exactly one stderr line, starting ``error:``.
Every drawn value is small, so each call takes milliseconds.

``main`` parses a call with the parser of the command its first words
name, or else with the whole parser tree.  Every argv here, golden,
mutated or one of the ``BOUNDARY_ARGVS`` that CI also runs through
``python -m weylwords.cli``, gets the same outcome by both routes.
"""

import contextlib
import functools
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from weylwords import cli, verify
from weylwords.cli import main

from golden_cases import CLI_FILE, call_cli

ARGVS = [record["argv"] for record in json.loads(CLI_FILE.read_text())]

PARAM = '{"J":[1],"K":[],"u":[],"y":{"lambda":[0],"wbar":[]}}'
A1_WORD = '{"J":[1],"head":[],"period":[{"a":1},{"c":1}]}'
# Calls that must exit 2 with one error line and no stdout.
BOUNDARY_ARGVS = [
    [],
    ["weyl"],
    ["verify", "nonsense"],
    ["roots", "--type", "A2", "--cutoff", "x"],
    ["biconvex", "realize", "--type", "A1", "--param", PARAM, "--cutoff", "-2"],
    ["word", "make", "--type", "A2", "--K", "1", "--cutoff", "-3"],
    ["verify", "length", "--len", "-1"],
    ["biconvex", "enumerate", "--type", "A1", "--max-size", "-1"],
    ["biconvex", "parametrize", "--type", "A1", "--J", "1",
     "--view", '{"tail":[],"finite":[],"cutoff":-1}'],
    ["biconvex", "classify", "--type", "A1", "--window", '{"J":[1],"cutoff":-1,"elements":[]}'],
    ["biconvex", "classify", "--type", "A1", "--window", '{"J":[1],"cutoff":1001,"elements":[]}'],
    ["biconvex", "realize", "--type", "A1"],
    ["biconvex", "classify", "--type", "A1", "--window",
     '{"J":[1],"cutoff":1,"elements":[]}', "--cutoff", "3"],
    ["biconvex", "parametrize", "--type", "A1", "--J", "1",
     "--view", '{"tail":[[-1]],"finite":[],"cutoff":3}', "--window", "{}"],
    ["word", "act", "--type", "A1", "--word", A1_WORD, "--x", '{"lambda":[0],"wbar":[1]}',
     "--K", "1"],
    ["roots", "--type", "A1", "--out", "/no/such/dir/x.json"],
    ["verify", "roundtrip", "--type", "A1", "--cutoff", "3"],
    ["biconvex", "enumerate", "--type", "A1", "--window-limit", "1001"],
    ["roots", "--type", "A2", "--J", "1,x"],
    ["biconvex", "parametrize", "--type", "A1", "--view", '{"tail":[[-1]],"finite":[],"cutoff":3}'],
    ["word", "act", "--type", "A1", "--word", A1_WORD, "--x", '{"lambda":[-5000],"wbar":[1]}'],
    ["verify", "diagram", "--type", "B4,Z9", "--len", "1"],
]


@functools.cache
def _tree():
    """A parser tree of its own, not the one ``main`` holds."""
    return cli.build_parser()


def _tree_parse(argv):
    return _tree().parse_args(argv)


def _outcome(argv, target):
    """``main``'s exit code, stdout and stderr, and what it wrote to ``target``."""
    result = call_cli(argv)
    if target is None:
        return result
    written = target.read_text() if target.exists() else None
    target.unlink(missing_ok=True)
    return result, written


def _check_routes(argv, target=None):
    """``main`` gives the outcome it gives with every parse through the
    whole tree; a command's own parser gives the tree's namespace, less
    ``command`` and ``action``."""
    outcome = _outcome(argv, target)
    with mock.patch.object(cli, "_parse", _tree_parse):
        assert _outcome(argv, target) == outcome, argv
    commands = cli._shared_parser().commands
    if tuple(argv[:2]) in commands or tuple(argv[:1]) in commands:
        try:
            tree = vars(_tree_parse(argv))
        except (cli.UsageError, SystemExit):
            return  # main's outcomes, compared above, hold the error
        tree.pop("action", None)
        del tree["command"]
        assert vars(cli._parse(argv)) == tree, argv

BAD_JSON_VALUES = [0, -1, 9, 1.5, True, None, [], {}]
NOT_JSON = ["", "{", "nope", "[1,", "{'J': [1]}"]
BAD_TEXT = ["", "0", "-1", "9", "1.5", "x", ",", "1,,2", "1,9", "-1,2"]
BAD_LABELS = ["Z9", "A0", "E9", "B1", "G3", "", "A", "2A"]
TEXT_FLAGS = {"--J", "--K", "--word", "--cutoff", "--max-size"}  # index lists, words, cutoffs
# Flags of every biconvex and word action, each with a well-formed value.
FLAGS = [
    ("--param", '{"J":[1],"K":[],"u":[],"y":{"lambda":[0],"wbar":[]}}'),
    ("--view", '{"tail":[[-1]],"finite":[],"cutoff":3}'),
    ("--window", '{"J":[1],"cutoff":1,"elements":[]}'),
    ("--word", '{"J":[1],"head":[],"period":[{"a":1},{"c":1}]}'),
    ("--word2", '{"J":[1],"head":[],"period":[{"c":1},{"a":1}]}'),
    ("--x", '{"lambda":[0],"wbar":[1]}'),
    ("--J", "1"),
    ("--K", "1"),
    ("--cutoff", "1"),
    ("--max-size", "1"),
    ("--window-limit", "8"),
]


def _json_args(argv):
    """Positions of the option values that are JSON objects."""
    found = []
    for i in range(1, len(argv)):
        try:
            value = json.loads(argv[i])
        except ValueError:
            continue
        if isinstance(value, dict) and argv[i - 1].startswith("--"):
            found.append(i)
    return found


def _paths(value, path=()):
    """Every position inside a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _edit_json(data, argv, drop):
    i = data.draw(st.sampled_from(_json_args(argv)))
    value = json.loads(argv[i])
    paths = list(_paths(value))
    if drop:  # keys of objects; an empty object is replaced whole instead
        paths = [p for p in paths if p and isinstance(_at(value, p[:-1]), dict)] or [()]
    path = data.draw(st.sampled_from(paths))
    bad = data.draw(st.sampled_from(BAD_JSON_VALUES))
    if drop and path:
        del _at(value, path[:-1])[path[-1]]
    elif path:
        _at(value, path[:-1])[path[-1]] = bad
    else:
        value = bad
    return argv[:i] + [json.dumps(value)] + argv[i + 1:]


def drop_json_key(data, argv):
    return _edit_json(data, argv, drop=True)


def bad_json_value(data, argv):
    return _edit_json(data, argv, drop=False)


def not_json(data, argv):
    i = data.draw(st.sampled_from(_json_args(argv)))
    return argv[:i] + [data.draw(st.sampled_from(NOT_JSON))] + argv[i + 1:]


def bad_flag_value(data, argv):
    i = data.draw(st.sampled_from([i for i, arg in enumerate(argv) if arg in TEXT_FLAGS])) + 1
    return argv[:i] + [data.draw(st.sampled_from(BAD_TEXT))] + argv[i + 1:]


def bad_label(data, argv):
    i = argv.index("--type") + 1
    return argv[:i] + [data.draw(st.sampled_from(BAD_LABELS))] + argv[i + 1:]


def drop_flag(data, argv):
    i = data.draw(st.sampled_from([i for i, arg in enumerate(argv) if arg.startswith("--")]))
    return argv[:i] + argv[i + 2:]


def foreign_flag(data, argv):
    return argv + list(data.draw(st.sampled_from(FLAGS)))


def _mutations(argv):
    found = [bad_label, drop_flag, foreign_flag]
    if _json_args(argv):
        found += [drop_json_key, bad_json_value, not_json]
    if TEXT_FLAGS & set(argv):
        found.append(bad_flag_value)
    return found


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_golden_argv_exits_cleanly(data):
    argv = data.draw(st.sampled_from(ARGVS))
    argv = data.draw(st.sampled_from(_mutations(argv)))(data, list(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    _check_routes(argv)


def test_golden_argv_gets_the_same_outcome_by_either_route():
    for argv in ARGVS:
        _check_routes(argv)


@pytest.mark.parametrize("argv", BOUNDARY_ARGVS, ids=" ".join)
def test_boundary_argv_is_one_error_line_by_either_route(argv):
    code, out, err = call_cli(argv)
    lines = err.splitlines()
    assert code == 2 and out == "", (argv, code)
    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    _check_routes(argv)


def test_only_argv_that_names_no_command_is_parsed_by_the_tree():
    parser = cli._shared_parser()
    with mock.patch.object(parser, "parse_args", wraps=parser.parse_args) as tree:
        for argv in (["weyl", "--type", "A2"], ["verify", "nonsense"],
                     ["biconvex", "realize", "--type", "A1", "--param", PARAM]):
            call_cli(argv)
        assert tree.call_count == 0
        for argv in (["--format", "table", "weyl", "--type", "A2"], ["biconvex", "--help"],
                     ["word", "nonsense"], []):
            call_cli(argv)
        assert tree.call_count == 4


# --format and --out before the command, after it, and on both sides.
PLACEMENTS = [
    ("--format", "table", "roots", "--type", "A1"),
    ("roots", "--type", "A1", "--format", "table"),
    ("--format", "table", "roots", "--type", "A1", "--format", "json"),
    ("--out", "OUT", "roots", "--type", "A1"),
    ("roots", "--type", "A1", "--out", "OUT"),
    ("--format", "table", "--out", "OUT", "weyl", "--type", "A1"),
    ("biconvex", "enumerate", "--type", "A1", "--format", "table", "--out", "OUT"),
    ("verify", "length", "--type", "A1", "--len", "3", "--out", "OUT"),
]


@pytest.mark.parametrize("argv", PLACEMENTS, ids=" ".join)
def test_output_flags_get_the_same_outcome_by_either_route(argv, tmp_path):
    target = tmp_path / "out"
    argv = [str(target) if arg == "OUT" else arg for arg in argv]
    with mock.patch.object(verify, "perf_counter", lambda: 0.0):  # verify's timing line
        _check_routes(argv, target)


def test_bad_type_label_fails_before_any_check(monkeypatch):
    # B4's sweep takes seconds; the bad label after it is found first.
    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_params_for", no_checks)
    code, out, err = call_cli(["verify", "diagram", "--type", "B4,Z9", "--len", "1"])
    assert (code, out, err) == (2, "", "error: unrecognized type label 'Z9'\n")


def test_empty_type_list_is_one_error_line():
    # "" names no type: an error, not the suite's default labels.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "length", "--type", "", "--len", "2"])
    lines = err.getvalue().splitlines()
    assert code == 2 and out.getvalue() == ""
    assert len(lines) == 1 and lines[0].startswith("error:"), lines

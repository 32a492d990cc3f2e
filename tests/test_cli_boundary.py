"""The CLI's input boundary, fuzzed from the golden records.

Each example takes one argv list of ``tests/golden/cli.json`` and applies
one mutation.  Whatever the mutation, ``main`` returns 0, 1 or 2 without
raising, and exit 2 writes exactly one stderr line, starting ``error:``.
Every drawn value is small, so each call takes milliseconds.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from weylwords.cli import main

from golden_cases import CLI_FILE

ARGVS = [record["argv"] for record in json.loads(CLI_FILE.read_text())]

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


def test_empty_type_list_is_one_error_line():
    # "" names no type: an error, not the suite's default labels.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "length", "--type", "", "--len", "2"])
    lines = err.getvalue().splitlines()
    assert code == 2 and out.getvalue() == ""
    assert len(lines) == 1 and lines[0].startswith("error:"), lines

"""Frozen outputs: CLI JSON and suite check counts must not move.

The data in ``tests/golden/`` was produced by ``tests/golden_cases.py``;
its docstring gives the command that regenerates it.
"""

import json

import pytest

from weylwords.verify import SUITES

from golden_cases import CHECKS_FILE, CLI_FILE, ROOTS_TYPES, call_cli, calls, run_cli

CLI_RECORDS = json.loads(CLI_FILE.read_text())
CHECKS = json.loads(CHECKS_FILE.read_text())


def test_golden_covers_every_type_and_command():
    seen = {(r["argv"][r["argv"].index("--type") + 1], r["argv"][0]) for r in CLI_RECORDS}
    for label in ("A1", "A2", "A3", "B2", "C2", "G2"):
        for command in ("weyl", "biconvex", "word"):
            assert (label, command) in seen
    actions = {r["argv"][1] for r in CLI_RECORDS if r["argv"][0] == "biconvex"}
    assert actions == {"realize", "parametrize", "classify", "enumerate"}
    word_calls = {(r["argv"][r["argv"].index("--type") + 1], r["argv"][1])
                  for r in CLI_RECORDS if r["argv"][0] == "word"}
    for label in ("A1", "A2", "A3", "B2", "C2", "G2"):
        for action in ("make", "act", "classify", "equiv"):
            assert (label, action) in word_calls
    for label in ROOTS_TYPES:
        assert (label, "roots") in seen
    roots_flags = {flag for r in CLI_RECORDS if r["argv"][0] == "roots"
                   for flag in r["argv"][3:] if flag.startswith("--")}
    assert roots_flags == {"--J", "--cutoff"}
    assert set(CHECKS) == set(SUITES)


def test_golden_argv_lists_match_the_generator():
    # The argv lists embed view and window JSON written by the library, so
    # this also pins both formats.
    assert calls() == [r["argv"] for r in CLI_RECORDS]


@pytest.mark.parametrize("record", CLI_RECORDS, ids=lambda r: " ".join(r["argv"][:3]))
def test_cli_output_matches_golden(record):
    assert run_cli(record["argv"]) == (record["exit"], record["stdout"])


@pytest.mark.parametrize("record", CLI_RECORDS, ids=lambda r: " ".join(r["argv"][:3]))
def test_cli_stdout_is_json_dumps_byte_for_byte(record):
    # The records hold parsed JSON; this pins the layout as well.
    _, out, _ = call_cli(record["argv"])
    assert out == json.dumps(record["stdout"], indent=2, default=str) + "\n"


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_suite_check_count_matches_golden(name):
    result = SUITES[name]()
    assert result.passed, result.counterexamples[:3]
    assert result.checked == CHECKS[name]

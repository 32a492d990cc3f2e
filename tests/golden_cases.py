"""Golden data: frozen CLI outputs and verify-suite check counts.

``tests/golden/cli.json`` lists fixed ``weyl``, ``biconvex`` and ``word``
(make, act, classify, equiv) calls on A1, A2, A3, B2, C2 and G2, and
``roots`` calls on twelve types from A1 to E8, with their exit codes and
JSON output; ``tests/golden/checks.json`` holds every verify suite's check count
at its acceptance bounds (the suite defaults).  ``tests/test_golden.py``
replays both.  A refactor must leave them unchanged; regenerate them only
for an intended change of output, from the repository root:

    PYTHONPATH=src:tests python tests/golden_cases.py

The call list is built here from parameters written out below; the view,
window and word arguments are materialized once, while regenerating, and
stored verbatim with each call.  The words given to ``word classify`` and
``word equiv`` include ``word act`` outputs, which carry non-empty heads.
"""

import contextlib
import io
import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")
CLI_FILE = GOLDEN / "cli.json"
CHECKS_FILE = GOLDEN / "checks.json"

# Finite Weyl words per type: the simple letters and a longer word.
WEYL_WORDS = {
    "A1": ["1", "1,1"],
    "A2": ["1", "2,1", "1,2,1"],
    "A3": ["2", "1,2,3", "1,2,1,3,2,1"],
    "B2": ["2", "1,2,1", "1,2,1,2"],
    "C2": ["1", "2,1,2", "2,1,2,1"],
    "G2": ["2,1", "1,2,1,2,1", "1,2,1,2,1,2"],
}


def _y(lam, wbar=()):
    return {"lambda": list(lam), "wbar": list(wbar)}


# Parameter triples per type: infinite sets (K proper) and one finite one.
PARAMS = {
    "A1": [
        {"J": [1], "K": [], "u": [], "y": _y([0])},
        {"J": [1], "K": [], "u": [1], "y": _y([0])},
        {"J": [1], "K": [1], "u": [], "y": _y([1], [1])},
    ],
    "A2": [
        {"J": [1, 2], "K": [], "u": [1, 2], "y": _y([0, 0])},
        {"J": [1, 2], "K": [1], "u": [2], "y": _y([1, 0], [1])},
        {"J": [2], "K": [], "u": [2], "y": _y([0, 0])},
    ],
    "A3": [
        {"J": [1, 2, 3], "K": [2], "u": [1, 3], "y": _y([0, 1, 0])},
        {"J": [1, 3], "K": [1], "u": [3], "y": _y([-1, 0, 0], [1])},
    ],
    "B2": [
        {"J": [1, 2], "K": [], "u": [2, 1], "y": _y([0, 0])},
        {"J": [1, 2], "K": [2], "u": [1], "y": _y([0, 1], [2])},
    ],
    "C2": [
        {"J": [1, 2], "K": [1], "u": [2], "y": _y([1, 0])},
        {"J": [1, 2], "K": [], "u": [1, 2, 1], "y": _y([0, 0])},
    ],
    "G2": [
        {"J": [1, 2], "K": [1], "u": [2, 1, 2], "y": _y([1, 0], [1])},
        {"J": [1, 2], "K": [2], "u": [1], "y": _y([0, -1])},
    ],
}

# Parameters realized at a cutoff below the top of their finite part: the
# view lists every finite root, the members stop at the cutoff.
LOW_REALIZE = [
    ("A1", {"J": [1], "K": [1], "u": [], "y": _y([1])}, "1"),
    ("A2", {"J": [1, 2], "K": [1], "u": [], "y": _y([1, 0])}, "1"),
    ("B2", {"J": [1, 2], "K": [1], "u": [2], "y": _y([2, 0], [1])}, "1"),
    ("G2", {"J": [1, 2], "K": [1], "u": [2, 1, 2], "y": _y([2, 0], [1])}, "1"),
]

# Types listed by ``roots``; the rank <= 3 ones also with a J and a window.
ROOTS_TYPES = ["A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4", "F4", "E6", "E8"]
ROOTS_J = {"A1": "1", "A2": "2", "A3": "1,3", "B2": "1", "C2": "2", "G2": "1",
           "B3": "2,3", "C3": "1,3"}

# Affine elements whose finite inversion windows are classified (case a/b).
ELEMENTS = {
    "A1": _y([1], [1]),
    "A2": _y([1, -1], [2]),
    "A3": _y([0, 1, 0], [1, 3]),
    "B2": _y([1, 0], [1, 2]),
    "C2": _y([0, 1], [2]),
    "G2": _y([1, 0], [1, 2]),
}


def _full(label):
    return list(range(1, int(label[1:]) + 1))


def _proper_subsets(J):
    out = [[j for t, j in enumerate(J) if bits >> t & 1] for bits in range(1 << len(J))]
    return sorted((K for K in out if len(K) < len(J)), key=lambda K: (len(K), K))


def _window_json(window):
    from weylwords.affine import affine_root_to_json

    return json.dumps({
        "J": list(window.sub.J),
        "cutoff": window.cutoff,
        "elements": [affine_root_to_json(b) for b in sorted(
            window.elements, key=lambda b: (b.level, b.classical or ()))],
        "tail": sorted(list(r) for r in window.tail),
        "imaginary_tail": window.imaginary_tail,
    })


def calls():
    """The fixed CLI argument lists; views and windows come from the library."""
    from weylwords.affine import affine_inversion_set, element_from_json
    from weylwords.biconvex import (
        WindowSet, param_from_json, realize, view_to_json,
    )
    from weylwords.cartan import build_root_system, sub_system
    from weylwords.words import (
        act_on_word, classify_word, translation_word, word_of_param, word_to_json,
    )

    out = []
    for label in WEYL_WORDS:
        rs = build_root_system(label)
        full = _full(label)
        out.append(["weyl", "--type", label])
        for word in WEYL_WORDS[label]:
            out.append(["weyl", "--type", label, "--word", word])
        out.append(["weyl", "--type", label, "--word", WEYL_WORDS[label][-1], "--J", "1"])
        for data in PARAMS[label]:
            param = json.dumps(data)
            out.append(["biconvex", "realize", "--type", label, "--param", param,
                        "--cutoff", "3"])
            window = realize(param_from_json(rs, data), 3)
            J = ",".join(map(str, data["J"]))
            out.append(["biconvex", "parametrize", "--type", label, "--J", J,
                        "--view", json.dumps(view_to_json(window))])
            for w in (window, window.complement()):
                out.append(["biconvex", "parametrize", "--type", label,
                            "--window", _window_json(w)])
                out.append(["biconvex", "classify", "--type", label,
                            "--window", _window_json(w)])
        sub = sub_system(rs, full)
        x = element_from_json(rs, ELEMENTS[label])
        finite = WindowSet(sub=sub, cutoff=3, elements=frozenset(
            b for b in affine_inversion_set(x, sub) if b.level <= 3))
        for w in (finite, finite.complement()):
            out.append(["biconvex", "classify", "--type", label,
                        "--window", _window_json(w)])
        cutoff = "2" if label == "A1" else "1"
        out.append(["biconvex", "enumerate", "--type", label, "--cutoff", cutoff,
                    "--max-size", "3"])
        for K in _proper_subsets(full):
            args = ["word", "make", "--type", label, "--cutoff", "3"]
            out.append(args + (["--K", ",".join(map(str, K))] if K else []))
        out.append(["word", "make", "--type", label, "--J", "1", "--cutoff", "4"])
        for data in PARAMS[label]:
            if len(data["K"]) < len(data["J"]):
                out.append(["word", "make", "--type", label, "--param", json.dumps(data),
                            "--cutoff", "3"])
        xs = [ELEMENTS[label], _y([0] * len(full), [1])]
        proper = _proper_subsets(full)
        for K in proper[:1] + proper[1:][-1:]:
            base = translation_word(sub, K)
            out.append(["word", "classify", "--type", label,
                        "--word", json.dumps(word_to_json(base))])
            for data in xs:
                out.append(["word", "act", "--type", label, "--word",
                            json.dumps(word_to_json(base)), "--x", json.dumps(data)])
                acted = act_on_word(element_from_json(rs, data), base)
                standard = word_of_param(classify_word(acted).param)
                for word in (acted, standard):
                    out.append(["word", "classify", "--type", label,
                                "--word", json.dumps(word_to_json(word))])
                for other in (base, standard):
                    out.append(["word", "equiv", "--type", label,
                                "--word", json.dumps(word_to_json(acted)),
                                "--word2", json.dumps(word_to_json(other))])
    for label, data, cutoff in LOW_REALIZE:
        out.append(["biconvex", "realize", "--type", label, "--param", json.dumps(data),
                    "--cutoff", cutoff])
    for label in ROOTS_TYPES:
        out.append(["roots", "--type", label])
        if label in ROOTS_J:
            out.append(["roots", "--type", label, "--J", ROOTS_J[label]])
            out.append(["roots", "--type", label, "--cutoff", "1"])
    return out


def call_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    from weylwords.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def run_cli(argv):
    """Exit code and parsed JSON stdout of one in-process CLI call."""
    code, text, _ = call_cli(argv)
    return code, json.loads(text) if text.strip() else None


def suite_checks():
    from weylwords.verify import SUITES

    return {name: suite().checked for name, suite in SUITES.items()}


def main():
    GOLDEN.mkdir(exist_ok=True)
    records = []
    for argv in calls():
        code, data = run_cli(argv)
        records.append({"argv": argv, "exit": code, "stdout": data})
    CLI_FILE.write_text(json.dumps(records, indent=1) + "\n")
    CHECKS_FILE.write_text(json.dumps(suite_checks(), indent=1) + "\n")


if __name__ == "__main__":
    main()

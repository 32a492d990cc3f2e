"""Command-line front door.

Subcommands: ``roots`` (inspect root systems and affine windows), ``weyl``
(inspect a finite Weyl element), ``biconvex`` (realize / parametrize /
classify / enumerate), ``word`` (make / act / equiv / classify), and
``verify`` (run an exhaustive verification suite).

This module is the package's only door for outside input.  It holds every
JSON reader and writer (root systems, affine roots, letters, elements,
parameters, views, windows and words), every bound on outside input
(``MAX_INPUT_CUTOFF``, ``MAX_INPUT_LENGTH``, ``MAX_WINDOW_LIMIT``), and the
mapping from errors to exit codes, made in ``main``: 0 succeeded (verify:
all checks passed); 1 a verify check found a counterexample, or an input set
is not biconvex (``NotBiconvexError``, answered as ``{"biconvex": false,
"reason": ...}``); 2 a usage error, malformed input or input above a bound
(``UsageError``, ``ValueError``), one ``error:`` line on stderr.  The
library modules read no JSON, and the bounds hold for outside input only.
All machine output is JSON; ``--format table`` renders it for humans.

``main`` may be called repeatedly in one process.  Its parsers are built
once, on the first call (``build_parser`` still returns a fresh tree): a
call whose first one or two words name a command (``weyl``, ``biconvex
realize``, ``verify``, ...) is parsed by that command's own parser alone;
any other call (an option before the command, ``--help`` on ``weylwords``,
``biconvex`` or ``word``, an unknown command) goes through the whole tree.
Parsing never writes to a parser, and each call gets its own namespace, so
no option leaks from one call into the next.

JSON is written in ``json.dumps(data, indent=2, default=str)``'s layout,
byte for byte, but not by it: ``indent`` sends ``json.dumps`` to its
pure-Python encoder, so ``_json`` lays out the containers itself and hands
the scalars to the C encoder.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .cartan import RootSystem, build_root_system, sub_system
from .finweyl import from_word, inversion_set
from .affine import (AffineElement, AffineRoot, Letter, affine_length, affine_window, lift,
                     tower, translation)
from .biconvex import (BiconvexParam, NotBiconvexError, WindowSet, classify_biconvex,
                       enumerate_biconvex, parametrize, realize)
from .words import (InfiniteWord, act_on_word, classify_word, limit_inversions,
                    translation_word, word_of_param, words_equivalent)
from .verify import SUITES


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Outside input: bounds, and the JSON readers and writers

MAX_INPUT_CUTOFF = 1000  # a window's size grows with its cutoff, even when empty
MAX_INPUT_LENGTH = 10000  # realizing or acting grows with the element's length
MAX_WINDOW_LIMIT = 1000  # the window's sum table grows with the square of its size


def input_cutoff(cutoff: int) -> int:
    """A cutoff read from outside input, refused above ``MAX_INPUT_CUTOFF``.
    Cutoffs the library raises itself, as ``realize`` does, are not bounded."""
    if cutoff > MAX_INPUT_CUTOFF:
        raise ValueError(f"cutoff {cutoff} is above the limit {MAX_INPUT_CUTOFF}")
    return cutoff


def _json_field(data, key: str, kind: type | None = None):
    """Field ``key`` of a JSON object, of type ``kind`` if given (``int``
    admits no bool or float); ValueError naming the field otherwise."""
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object with field {key!r}, got {data!r}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    if kind is not None and type(data[key]) is not kind:
        raise ValueError(f"field {key!r} must be a JSON {kind.__name__}, got {data[key]!r}")
    return data[key]


def _json_ints(data, key: str, depth: int = 1) -> tuple:
    """Field ``key`` as arrays of JSON integers nested ``depth`` deep, read
    into tuples; ValueError naming the field otherwise."""

    def read(value, depth):
        if type(value) is not (list if depth else int):
            what = "an array" if depth else "a JSON integer"
            raise ValueError(f"field {key!r} must hold {what} here, got {value!r}")
        return tuple(read(x, depth - 1) for x in value) if depth else value

    return read(_json_field(data, key), depth)


def root_system_to_json(rs: RootSystem) -> dict:
    """JSON form: type label, root coordinate lists, exact Gram matrix.

    Rational Gram entries are encoded as [numerator, denominator] pairs,
    integers stay plain.
    """

    def enc(x: Fraction):
        return int(x) if x.denominator == 1 else [x.numerator, x.denominator]

    return {
        "type": rs.label,
        "cartan": [list(row) for row in rs.cartan],
        "roots": [list(r) for r in rs.roots],
        "gram": [[enc(x) for x in row] for row in rs.gram],
    }


def root_system_from_json(data: dict) -> RootSystem:
    label = _json_field(data, "type")
    if label is not None and type(label) is not str:
        raise ValueError("field 'type' must be a JSON string or null")
    rs = build_root_system(label or _json_ints(data, "cartan", 2))
    if rs.roots != _json_ints(data, "roots", 2):
        raise ValueError("root list does not match the declared type")
    return rs


def affine_root_to_json(beta: AffineRoot) -> dict:
    return {
        "level": beta.level,
        "classical": None if beta.classical is None else list(beta.classical),
    }


def affine_root_from_json(data: dict) -> AffineRoot:
    level = _json_field(data, "level", int)
    classical = None if _json_field(data, "classical") is None else _json_ints(data, "classical")
    return AffineRoot(level, classical)


def letter_to_json(letter: Letter) -> dict:
    return {letter.kind: letter.index}


def letter_from_json(data: dict) -> Letter:
    kind = next(iter(data)) if type(data) is dict and len(data) == 1 else None
    if kind not in ("c", "a"):
        raise ValueError(f"a letter is a JSON object with one field 'c' or 'a', got {data!r}")
    return Letter(kind, _json_field(data, kind, int))


def element_to_json(x: AffineElement) -> dict:
    return {"lambda": list(x.translation), "wbar": list(x.finite.word)}


def element_from_json(rs: RootSystem, data: dict) -> AffineElement:
    """An element read from outside input, refused when its length over the
    full system is above ``MAX_INPUT_LENGTH``; the length lists no inversion."""
    lam, wbar = _json_ints(data, "lambda"), _json_ints(data, "wbar")
    x = translation(rs, lam) * lift(from_word(rs, wbar))
    length = affine_length(x, sub_system(rs, rs.index_set))
    if length > MAX_INPUT_LENGTH:
        raise ValueError(f"element length {length} is above the limit {MAX_INPUT_LENGTH}")
    return x


def param_to_json(param: BiconvexParam) -> dict:
    return {
        "J": list(param.sub.J),
        "K": list(param.K),
        "u": list(param.u.word),
        "y": element_to_json(param.y),
    }


def param_from_json(rs: RootSystem, data: dict) -> BiconvexParam:
    sub = sub_system(rs, _json_ints(data, "J"))
    return BiconvexParam(
        sub=sub,
        K=_json_ints(data, "K"),
        u=from_word(rs, _json_ints(data, "u")),
        y=element_from_json(rs, _json_field(data, "y", dict)),
    )


def view_to_json(window: WindowSet) -> dict:
    finite = sorted(window.finite_part, key=lambda b: (b.level, b.classical or ()))
    return {
        "tail": sorted(list(r) for r in window.tail),
        "finite": [affine_root_to_json(b) for b in finite],
        "cutoff": window.cutoff,
    }


def view_from_json(rs: RootSystem, J, data: dict) -> WindowSet:
    """A view's set, checked as outside input; the cutoff is raised to reach
    every listed finite root."""
    sub = sub_system(rs, J)
    tail = frozenset(_json_ints(data, "tail", 2))
    finite = frozenset(affine_root_from_json(b) for b in _json_field(data, "finite", list))
    cutoff = input_cutoff(max([_json_field(data, "cutoff", int), *(b.level for b in finite)]))
    return WindowSet(sub=sub, cutoff=cutoff, elements=tower(rs, tail, cutoff) | finite, tail=tail)


def _window_from_json(rs: RootSystem, data) -> WindowSet:
    sub = sub_system(rs, _json_ints(data, "J"))
    data = {"tail": [], "imaginary_tail": False} | data  # the optional fields
    return WindowSet(
        sub=sub,
        cutoff=input_cutoff(_json_field(data, "cutoff", int)),
        elements=frozenset(affine_root_from_json(b) for b in _json_field(data, "elements", list)),
        tail=frozenset(_json_ints(data, "tail", 2)),
        imaginary_tail=_json_field(data, "imaginary_tail", bool),
    )


def word_to_json(word: InfiniteWord) -> dict:
    return {
        "J": list(word.sub.J),
        "head": [letter_to_json(let) for let in word.head],
        "period": [letter_to_json(let) for let in word.period],
    }


def word_from_json(rs: RootSystem, data: dict) -> InfiniteWord:
    return InfiniteWord(
        sub=sub_system(rs, _json_ints(data, "J")),
        head=tuple(letter_from_json(d) for d in _json_field(data, "head", list)),
        period=tuple(letter_from_json(d) for d in _json_field(data, "period", list)),
    )


# ---------------------------------------------------------------------------
# Options, output and commands

class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse errors reach ``main`` as one ``error:`` line."""

    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """A non-negative integer option value, in ASCII digits."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _cutoff(text: str) -> int:
    """The ``--cutoff``/``-N`` converter: a count no larger than the input bound."""
    try:
        return input_cutoff(_count(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _window_limit(text: str) -> int:
    """The ``--window-limit`` converter: a count no larger than ``MAX_WINDOW_LIMIT``.
    Library callers of ``enumerate_biconvex`` are not bounded."""
    limit = _count(text)
    if limit > MAX_WINDOW_LIMIT:
        raise argparse.ArgumentTypeError(
            f"window limit {limit} is above the limit {MAX_WINDOW_LIMIT}")
    return limit


def _root_system(label: str):
    """The ``--type`` converter: the root system of a type label."""
    try:
        return build_root_system(label)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_subset(text: str) -> tuple[int, ...]:
    """The ``--J`` and ``--K`` converter: a comma-separated index list."""
    try:
        return tuple(sorted({int(part) for part in text.split(",") if part != ""}))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from exc


def _parse_json(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad {what} JSON: {exc}") from exc


def _rational(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_encode_scalar = json.JSONEncoder(default=str).encode


def _json(data, pad="\n") -> str:
    """``json.dumps(data, indent=2, default=str)``, when every dict key is a
    str; ``pad`` is a newline and the indent of the line ``data`` starts on.
    Exact ints, the commonest scalar, are written by ``repr``, as both of
    json's encoders write them: a call of ``_encode_scalar`` costs about a
    microsecond."""
    if isinstance(data, dict):
        if not data:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": "
            + (repr(value) if type(value) is int else _json(value, inner))
            for key, value in data.items()
        ]) + pad + "}"
    if isinstance(data, (list, tuple)):
        if not data:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            repr(item) if type(item) is int else _json(item, inner) for item in data
        ]) + pad + "]"
    if isinstance(data, str):
        return encode_basestring_ascii(data)
    return _encode_scalar(data)


def _dumps(data) -> str:
    """The JSON text of ``data``: ``_json``'s, or for a dict key that is not
    a str (``encode_basestring_ascii`` refuses it), ``json.dumps``'s own, by
    json's rule for such keys."""
    try:
        return _json(data)
    except TypeError:
        return json.dumps(data, indent=2, default=str)


def _emit(data, args) -> None:
    if args.format == "json":
        text = _dumps(data)
    else:
        text = _as_table(data)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        try:
            print(text)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        except BrokenPipeError:
            # The reader is gone: send the rest, and the flush at exit, nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())


def _as_table(data, indent=0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        lines = []
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_as_table(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(data, list):
        return "\n".join(
            _as_table(item, indent) if isinstance(item, (dict, list))
            else f"{pad}- {item}" for item in data
        )
    return f"{pad}{data}"


def cmd_roots(args) -> None:
    rs = args.type
    sub = sub_system(rs, args.J or rs.index_set)
    data = root_system_to_json(rs)
    data["gram_printed"] = [[_rational(x) for x in row] for row in rs.gram]
    data["J"] = list(sub.J)
    data["subsystem_roots"] = [list(r) for r in sub.roots]
    data["components"] = [list(c) for c in sub.components]
    data["highest_roots"] = [list(r) for r in sub.highest_roots]
    if args.cutoff is not None:
        window = affine_window(sub, args.cutoff)
        data["window"] = {
            "cutoff": args.cutoff,
            "count": len(window),
            "roots": [affine_root_to_json(b) for b in window],
            "printed": [str(b) for b in window],
        }
    _emit(data, args)


def cmd_weyl(args) -> None:
    rs = args.type
    sub = sub_system(rs, args.J or rs.index_set)
    try:
        word = [int(part) for part in args.word.split(",")] if args.word else []
    except ValueError as exc:
        raise UsageError(f"bad word {args.word!r}") from exc
    w = from_word(rs, word)
    inv = sorted(inversion_set(w, sub))
    _emit(
        {
            "type": rs.label,
            "word": list(w.word),
            "length": w.length,
            "images": [list(r) for r in w.images],
            "inversions": [list(r) for r in inv],
        },
        args,
    )


def cmd_realize(args) -> None:
    param = param_from_json(args.type, _parse_json(args.param, "parameter"))
    window = realize(param, args.cutoff)
    data = view_to_json(window)
    data["cutoff"] = args.cutoff  # the listed depth; finite roots above it stay listed
    data["members"] = [str(b) for b in sorted(window.truncate(args.cutoff))]
    _emit(data, args)


def cmd_parametrize(args) -> None:
    if args.view is not None:
        view_data = _parse_json(args.view, "view")
        if not args.J:
            raise UsageError("parametrize --view needs --J")
        source = view_from_json(args.type, args.J, view_data)
    else:
        source = _window_from_json(args.type, _parse_json(args.window, "window"))
    _emit(param_to_json(parametrize(source)), args)


def cmd_classify_window(args) -> None:
    window = _window_from_json(args.type, _parse_json(args.window, "window"))
    case, witness = classify_biconvex(window)
    payload = {"biconvex": True, "case": case}
    if case in ("a", "b"):
        payload["element"] = element_to_json(witness)
    else:
        payload["param"] = param_to_json(witness)
    _emit(payload, args)


def cmd_enumerate(args) -> None:
    rs = args.type
    sets = enumerate_biconvex(
        sub_system(rs, args.J or rs.index_set), args.cutoff, args.max_size,
        window_limit=args.window_limit,
    )
    # Each member root's place, JSON and text once: sets list roots by (level, classical).
    roots = sorted({b for s in sets for b in s}, key=lambda b: (b.level, b.classical or ()))
    place = {b: n for n, b in enumerate(roots)}
    as_json = {b: affine_root_to_json(b) for b in roots}
    text = {b: str(b) for b in roots}
    _emit(
        {
            "count": len(sets),
            "sets": [[as_json[b] for b in sorted(s, key=place.__getitem__)] for s in sets],
            "printed": [sorted(map(text.__getitem__, s)) for s in sets],
        },
        args,
    )


def cmd_make(args) -> None:
    rs = args.type
    if args.param:
        word = word_of_param(param_from_json(rs, _parse_json(args.param, "parameter")))
    else:
        word = translation_word(sub_system(rs, args.J or rs.index_set), args.K)
    data = word_to_json(word)
    if args.cutoff is not None:
        data["inversions"] = [str(b) for b in sorted(limit_inversions(word, args.cutoff))]
    _emit(data, args)


def cmd_act(args) -> None:
    word = word_from_json(args.type, _parse_json(args.word, "word"))
    x = element_from_json(args.type, _parse_json(args.x, "element"))
    _emit(word_to_json(act_on_word(x, word)), args)


def cmd_equiv(args) -> None:
    word = word_from_json(args.type, _parse_json(args.word, "word"))
    other = word_from_json(args.type, _parse_json(args.word2, "word"))
    _emit({"equivalent": words_equivalent(word, other)}, args)


def cmd_classify_word(args) -> None:
    cls = classify_word(word_from_json(args.type, _parse_json(args.word, "word")))
    _emit({"K": list(cls.K), "param": param_to_json(cls.param)}, args)


def cmd_verify(args) -> int:
    """Run one suite; ``--len`` sets its ``max_*`` bound and ``--cutoff`` its
    ``cutoff``, read off the suite's signature."""
    suite = SUITES[args.suite]
    params = inspect.signature(suite).parameters
    kwargs = {}
    if args.type is not None:  # "" names no type: an error, not the defaults
        kwargs["labels"] = tuple(args.type.split(","))
    if args.len is not None:
        bound = next((p for p in params if p.startswith("max_")), None)
        if bound is None:
            raise UsageError(f"--len does not apply to suite {args.suite!r}")
        kwargs[bound] = args.len
    if args.cutoff is not None:
        if "cutoff" not in params:
            raise UsageError(f"--cutoff does not apply to suite {args.suite!r}")
        kwargs["cutoff"] = args.cutoff
    result = suite(**kwargs)
    _emit(
        {
            "suite": result.name,
            "passed": result.passed,
            "checks": result.checked,
            "seconds": round(result.seconds, 3),
            "detail": result.detail,
            "counterexamples": result.counterexamples,
        },
        args,
    )
    print(result.line(), file=sys.stderr)
    return 0 if result.passed else 1


def _command(table, commands, words, func, help=None, *, typed=True):
    """A command's parser: the output flags, a required ``--type`` if ``typed``,
    ``func``.  It is made under ``commands`` and entered in ``table`` by
    ``words``, the argv words that name it."""
    sub = commands.add_parser(words[-1], help=help)
    sub.add_argument("--format", choices=("json", "table"), default=argparse.SUPPRESS)
    sub.add_argument("--out", default=argparse.SUPPRESS)
    if typed:
        sub.add_argument("--type", required=True, type=_root_system)
    sub.set_defaults(func=func)
    table[words] = sub
    return sub


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree.  Its ``commands`` table holds each command's
    parser by the tuple of argv words that name it."""
    parser = _Parser(
        prog="weylwords",
        description="Exact computations with affine root systems, biconvex "
        "sets, and infinite reduced words.",
    )
    parser.commands = table = {}
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    commands = parser.add_subparsers(dest="command", required=True)

    p = _command(table, commands, ("roots",), cmd_roots, "root system and window listing")
    p.add_argument("--J", type=_parse_subset, default=())
    p.add_argument("--cutoff", "-N", type=_cutoff)

    p = _command(table, commands, ("weyl",), cmd_weyl, "inspect a finite Weyl element")
    p.add_argument("--word", help="comma-separated simple indices")
    p.add_argument("--J", type=_parse_subset, default=())

    biconvex = commands.add_parser("biconvex", help="biconvex set operations")
    actions = biconvex.add_subparsers(dest="action", required=True)
    p = _command(table, actions, ("biconvex", "realize"), cmd_realize)
    p.add_argument("--param", required=True, help="parameter triple as JSON")
    p.add_argument("--cutoff", "-N", type=_cutoff, default=3)
    p = _command(table, actions, ("biconvex", "parametrize"), cmd_parametrize)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--view", help="view JSON (tail/finite/cutoff); needs --J")
    source.add_argument("--window", help="window JSON (J/elements/tail/cutoff)")
    p.add_argument("--J", type=_parse_subset, default=())
    p = _command(table, actions, ("biconvex", "classify"), cmd_classify_window)
    p.add_argument("--window", required=True, help="window JSON (J/elements/tail/cutoff)")
    p = _command(table, actions, ("biconvex", "enumerate"), cmd_enumerate)
    p.add_argument("--J", type=_parse_subset, default=())
    p.add_argument("--cutoff", "-N", type=_cutoff, default=2)
    p.add_argument("--max-size", type=_count, default=4)
    p.add_argument("--window-limit", type=_window_limit, default=64)

    word = commands.add_parser("word", help="infinite reduced word operations")
    actions = word.add_subparsers(dest="action", required=True)
    p = _command(table, actions, ("word", "make"), cmd_make)
    p.add_argument("--J", type=_parse_subset, default=())
    p.add_argument("--K", type=_parse_subset, default=())
    p.add_argument("--param", help="make the standard word of this parameter")
    p.add_argument("--cutoff", "-N", type=_cutoff)
    p = _command(table, actions, ("word", "act"), cmd_act)
    p.add_argument("--word", required=True, help="word JSON (J/head/period)")
    p.add_argument("--x", required=True, help="acting element as JSON (lambda/wbar)")
    p = _command(table, actions, ("word", "equiv"), cmd_equiv)
    p.add_argument("--word", required=True, help="word JSON (J/head/period)")
    p.add_argument("--word2", required=True, help="second word JSON")
    p = _command(table, actions, ("word", "classify"), cmd_classify_word)
    p.add_argument("--word", required=True, help="word JSON (J/head/period)")

    p = _command(table, commands, ("verify",), cmd_verify, "run a verification suite", typed=False)
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--type", help="comma-separated type labels")
    p.add_argument("--len", type=_count, help="main size bound of the suite")
    p.add_argument("--cutoff", "-N", type=_cutoff)
    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser tree every ``main`` call reads; built on first use, so that
    the ``cmd_*`` functions it binds are the module's bindings at that time."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed by the parser of the command its first one or two words
    name, starting from the tree's top-level defaults, else by the whole
    tree.  Either way the namespace is the tree's, less ``command`` and
    ``action``."""
    parser = _shared_parser()
    for depth in (2, 1):
        command = parser.commands.get(tuple(argv[:depth]))
        if command is not None:
            defaults = argparse.Namespace(
                format=parser.get_default("format"), out=parser.get_default("out"))
            return command.parse_args(argv[depth:], defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one CLI call; ``argv`` defaults to ``sys.argv[1:]``.  Returns the
    exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        try:
            return args.func(args) or 0  # a command that returns nothing succeeded
        except NotBiconvexError as exc:  # an answer, not an error: its --out may still fail
            _emit({"biconvex": False, "reason": str(exc)}, args)
            return 1
    except SystemExit as exc:  # --help; a parse error raises UsageError instead
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

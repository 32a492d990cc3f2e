"""The three workloads: their inputs, the library calls and the checks.

A workload is a generator of ``Op`` objects.  ``Op.call(ww)`` receives the
``weylwords`` package and makes the library calls for one operation from
plain generated inputs; the worker times it.  ``Op.check(out)`` runs after
the timer stops and returns a list of failures, computed with ``oracle``
or from a property the method must have.  Library names are looked up on
``ww`` at call time, so a traced run sees its wrappers.

Inputs come only from the seed and the round number: the same seed gives
the same operations.  The batch workloads do the same list of operations
in every round; query-mix draws fresh queries for each round, in blocks of
the same make-up, so a run's latency percentiles rest on more distinct
inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle as o


@dataclass
class Op:
    kind: str
    call: Callable[[Any], Any]
    check: Callable[[Any], list]
    # A fault the benchmark knows the library has: a failed check counts in
    # ``failed`` and does not make the run incorrect.
    known_fault: bool = False


def _plain_letters(word):
    return tuple((letter.kind, letter.index) for letter in word)


def _letters(ww, letters):
    return [ww.Letter(kind, index) for kind, index in letters]


def _plain_root(beta):
    return beta.level, beta.classical


def _roots(ww, plain):
    return frozenset(ww.AffineRoot(m, eps) for m, eps in plain)


def _subsets(items):
    items = tuple(items)
    return [tuple(x for t, x in enumerate(items) if bits >> t & 1)
            for bits in range(1 << len(items))]


# --------------------------------------------------------------------------
# verify-sweep


ACCEPTANCE = (
    ("finite-bijection", dict(labels=("A1", "A2", "C2"), max_length=5, cutoff=6,
                              brute_size=5, brute_level=2)),
    ("subsets", dict(labels=("A2", "B2", "C2"))),
    ("roundtrip", dict(labels=("A1", "A2"), max_y=4)),
    ("diagram", dict(labels=("A1", "A2"), max_y=4)),
    ("words", dict(labels=("A1", "A2", "C2"), cutoff=6)),
    ("action", dict(labels=("A1", "A2"), samples=200, max_x=3, cutoff=6)),
    ("orbit", dict(labels=("A1", "A2"), samples=100)),
    ("length", dict(labels=("A1", "A2", "C2"), max_length=6)),
    ("four-cases", dict(labels=("A1", "A2"), cutoff=4, max_y=3)),
)

STRETCH = (
    ("roundtrip", dict(labels=("A3", "B3", "C3", "G2"), max_y=1)),
    ("diagram", dict(labels=("A3", "G2"), max_y=1)),
    ("four-cases", dict(labels=("A3", "G2"), cutoff=4, max_y=3)),
    ("length", dict(labels=("A3", "B3", "C3", "G2"), max_length=6)),
    ("words", dict(labels=("A3", "B3", "C3", "G2"), cutoff=6)),
)

SMOKE_SWEEP = (
    ("finite-bijection", dict(labels=("A1",), max_length=3, cutoff=3,
                              brute_size=3, brute_level=2)),
    ("subsets", dict(labels=("B2",))),
    ("roundtrip", dict(labels=("A1", "G2"), max_y=1)),
    ("diagram", dict(labels=("A1",), max_y=2)),
    ("words", dict(labels=("A2",), cutoff=4)),
    ("action", dict(labels=("A1",), samples=4, max_x=2, cutoff=4)),
    ("orbit", dict(labels=("A1",), samples=4)),
    ("length", dict(labels=("C2",), max_length=4)),
    ("four-cases", dict(labels=("A1",), cutoff=3, max_y=2)),
)


def verify_sweep(seed: int, round_no: int, smoke: bool):
    rng = random.Random(seed)
    # The sampled suites take their sample seeds from the workload seed.
    sample_seeds = {"action": rng.randrange(1 << 30), "orbit": rng.randrange(1 << 30)}
    plan = SMOKE_SWEEP if smoke else ACCEPTANCE + STRETCH
    for name, bounds in plan:
        kwargs = dict(bounds)
        if name in sample_seeds:
            kwargs["seed"] = sample_seeds[name]
        expected = o.predicted_checks(name, **kwargs)

        def call(ww, name=name, kwargs=kwargs):
            result = ww.run_suite(name, **kwargs)
            return result.name, result.passed, result.checked, tuple(result.counterexamples)

        def check(out, name=name, expected=expected):
            _, passed, checked, counterexamples = out
            errors = [f"{name}: {c}" for c in counterexamples[:3]]
            if not passed:
                errors.append(f"{name}: suite failed")
            if checked != expected:
                errors.append(f"{name}: {checked} checks, predicted {expected}")
            return errors

        yield Op(f"suite:{name}", call, check)


def verify_sweep_systems(smoke: bool):
    plan = SMOKE_SWEEP if smoke else ACCEPTANCE + STRETCH
    labels = sorted({lb for _, b in plan for lb in b["labels"]})
    return [(lb, J) for lb in labels for J in _subsets(o.system(lb).index_set)]


# --------------------------------------------------------------------------
# rank-ladder

LADDER_CASES = (
    [("B4", K) for K in _subsets((1, 2, 3, 4)) if len(K) < 4]
    + [("C4", K) for K in _subsets((1, 2, 3, 4)) if len(K) < 4]
    + [("D4", K) for K in _subsets((1, 2, 3, 4)) if len(K) < 4]
    + [("A5", ()), ("A5", (3,)), ("F4", (3,)), ("F4", (1, 2)), ("D5", ())]
)
LADDER_WEYL = ("D4", "B4", "F4")

SMOKE_LADDER_CASES = [("A3", K) for K in _subsets((1, 2, 3)) if len(K) < 3] + [("B3", ())]
SMOKE_LADDER_WEYL = ("A3", "B3")


def _translation_ops(label, K):
    rs_o = o.system(label)
    J = rs_o.index_set
    found = {}

    def word_call(ww):
        rs = ww.build_root_system(label)
        word = ww.translation_word(ww.sub_system(rs, J), K)
        return _plain_letters(word.head), _plain_letters(word.period)

    def word_check(out):
        head, period = out
        errors = [f"{label} K={K}: {e}" for e in o.check_translation_period(label, J, K, period)]
        if head:
            errors.append(f"{label} K={K}: base word has a head")
        if not errors:
            _, pair = o.period_translation(label, J, period)
            found["pair"] = pair
            found["lam"] = o.coroot_coords(label, pair)
        return errors

    yield Op("translation_word", word_call, word_check)
    if "lam" not in found:
        return
    lam = found["lam"]
    expected = o.translation_length(label, J, found["pair"])

    def length_call(ww):
        rs = ww.build_root_system(label)
        return ww.affine_length(ww.translation(rs, lam), ww.sub_system(rs, J))

    def length_check(out):
        return [] if out == expected else [f"{label} K={K}: length {out} != {expected}"]

    yield Op("affine_length", length_call, length_check)

    def word_of_t_call(ww):
        rs = ww.build_root_system(label)
        return _plain_letters(ww.affine_reduced_word(ww.translation(rs, lam), ww.sub_system(rs, J)))

    def word_of_t_check(out):
        errors = []
        if len(out) != expected:
            errors.append(f"{label} K={K}: reduced word of length {len(out)} != {expected}")
        if o.from_letters(rs_o, J, out) != o.translation(rs_o, lam):
            errors.append(f"{label} K={K}: reduced word is not a word for t_lambda")
        return errors

    yield Op("affine_reduced_word", word_of_t_call, word_of_t_check)


def _weyl_op(label):
    exponents = o.EXPONENTS[label]

    def call(ww):
        rs = ww.build_root_system(label)
        elements = ww.weyl_elements(ww.sub_system(rs, rs.index_set))
        lengths = [0] * (max((w.length for w in elements), default=0) + 1)
        for w in elements:
            lengths[w.length] += 1
        return len(elements), tuple(lengths)

    def check(out):
        count, lengths = out
        errors = []
        if count != o.weyl_order(exponents):
            errors.append(f"|W({label})| = {count}, expected {o.weyl_order(exponents)}")
        if list(lengths) != o.poincare(exponents):
            errors.append(f"W({label}) length distribution differs from its Poincare polynomial")
        return errors

    return Op("weyl_elements", call, check)


def rank_ladder(seed: int, round_no: int, smoke: bool):
    cases = list(SMOKE_LADDER_CASES if smoke else LADDER_CASES)
    # The seed only orders the cases; every round does the same work.
    random.Random(seed).shuffle(cases)
    for label, K in cases:
        yield from _translation_ops(label, K)
    for label in SMOKE_LADDER_WEYL if smoke else LADDER_WEYL:
        yield _weyl_op(label)


def rank_ladder_systems(smoke: bool):
    cases = SMOKE_LADDER_CASES if smoke else LADDER_CASES
    weyl = SMOKE_LADDER_WEYL if smoke else LADDER_WEYL
    named = {(lb, o.system(lb).index_set) for lb, _ in cases} | {(lb, K) for lb, K in cases}
    named |= {(lb, o.system(lb).index_set) for lb in weyl}
    return sorted(named)


# --------------------------------------------------------------------------
# query-mix

# The traffic is not measured anywhere: there is no log of real use to
# draw it from.  So every choice below rests on a stated basis.
#
# - Systems: six of rank at most 3, chosen uniformly: an assumption.
# - Kinds: every query kind is weighted equally by count.  Those are the
#   nine library queries, the six well-formed CLI commands and one
#   "malformed" kind that cycles through MALFORMED, so each block asks
#   every kind PER_KIND times and every malformed input equally often.
# - Sizes: random words have uniform length 0..WORD_LEN and the x, y of the
#   action queries 0..ACT_LEN.  Those are the samplers of the library's own
#   orbit and action suites at the bounds of tests/test_acceptance.py.
#   Translation parts have coordinates in {-1, 0, 1}, the smallest nonzero
#   translations: an assumption.  ENUMERATE_MENU and the window-test
#   cutoffs (1, or 1..2 below rank 3) keep each window small enough for
#   the oracle's brute force to take a few ms: an assumption.
#
# The result file of every run holds each kind's count and latency, so the
# weighting can be audited and redone.
MIX_LABELS = ("A1", "A2", "A3", "B2", "C2", "G2")
ENUMERATE_MENU = (("A1", 2, 3), ("A2", 1, 3), ("B2", 1, 2), ("G2", 1, 2))
WORD_LEN = 4
ACT_LEN = 3
LAMBDA = (-1, 0, 1)

LIBRARY_KINDS = (
    "realize-parametrize", "classify-biconvex", "window-test", "enumerate",
    "reduced-word", "act-on-word", "words-equivalent", "word-of-param",
    "contained-mod-finite",
)
CLI_KINDS = (
    "cli-weyl", "cli-realize", "cli-parametrize", "cli-classify", "cli-word-make",
    "cli-enumerate",
)
# Each round is BLOCKS blocks of PER_KIND queries of every kind.
PER_KIND = 8
BLOCKS = 8
SMOKE_BLOCKS = 1

# Each of these malformed inputs must give exit code 2 and a one-line reason.
MALFORMED = (
    (["roots", "--type", "Z9"], False),
    (["weyl", "--type", "A2", "--word", "1,x"], False),
    (["biconvex", "parametrize", "--type", "A1", "--window", "not json"], False),
    (["word", "act", "--type", "A1", "--word",
      '{"J":[1],"head":[],"period":[{"c":1},{"a":1}]}'], False),
    # Known faults: exit 0 with the identity, IndexError, KeyError, KeyError.
    (["weyl", "--type", "A2", "--word", "0"], True),
    (["weyl", "--type", "A2", "--word", "1,5"], True),
    (["biconvex", "classify", "--type", "A1", "--window", "{}"], True),
    (["biconvex", "realize", "--type", "A1", "--param", '{"J":[1]}'], True),
)
# Every block holds each malformed input equally often, so the known faults
# are the same share of every round.
assert PER_KIND % len(MALFORMED) == 0


class _Gen:
    """Random plain inputs, built with the oracle only."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def label(self):
        return self.rng.choice(MIX_LABELS)

    def nonempty(self, items):
        items = tuple(items)
        while True:
            pick = tuple(x for x in items if self.rng.random() < 0.5)
            if pick:
                return pick

    def subset(self, items, proper=False):
        items = tuple(items)
        while True:
            pick = tuple(x for x in items if self.rng.random() < 0.5)
            if not proper or len(pick) < len(items):
                return pick

    def finite_word(self, J, top):
        if not J:
            return []
        return [self.rng.choice(J) for _ in range(self.rng.randint(0, top))]

    def letters(self, label, J, top):
        if not J:
            return ()
        alphabet = o.alphabet(o.system(label), J)
        return tuple(self.rng.choice(alphabet) for _ in range(self.rng.randint(0, top)))

    def coset_rep(self, label, J, K, top=WORD_LEN):
        rs = o.system(label)
        return o.reduced_finite_word(rs, o.minimal_coset_word(rs, self.finite_word(J, top), K))

    def param(self, label, proper=False, J=None):
        rs = o.system(label)
        J = J or self.nonempty(rs.index_set)
        K = self.subset(J, proper=proper)
        return dict(J=J, K=K, u=self.coset_rep(label, J, K), y=self.letters(label, K, WORD_LEN))

    def pair(self, label, J, top=WORD_LEN):
        """(lambda, wbar) for an element of the affine group of J."""
        rs = o.system(label)
        lam = tuple(self.rng.choice(LAMBDA) if i in J else 0 for i in rs.index_set)
        return lam, o.reduced_finite_word(rs, self.finite_word(J, top))


def _library_param(ww, label, p):
    rs = ww.build_root_system(label)
    K_sub = ww.sub_system(rs, p["K"])
    y = (ww.affine.from_letters(K_sub, _letters(ww, p["y"])) if p["K"]
         else ww.affine_identity(rs))
    return ww.BiconvexParam(
        sub=ww.sub_system(rs, p["J"]), K=p["K"],
        u=ww.finweyl.from_word(rs, p["u"]), y=y,
    )


def _y_inversions(label, p):
    rs = o.system(label)
    return o.inversion_set(o.from_letters(rs, p["K"], p["y"]),
                           o.inverse(rs, p["K"], p["y"]), p["K"])


def _expected_view(label, p):
    rs = o.system(label)
    images = o.finite_images(rs, p["u"])
    finite = frozenset((m, o.apply_finite(rs, images, eps)) for m, eps in _y_inversions(label, p))
    return o.tail(label, p["J"], p["K"], p["u"]), finite


def _q_realize_parametrize(g: _Gen):
    label = g.label()
    p = g.param(label)
    cutoff = len(p["u"]) + len(_y_inversions(label, p)) + 3
    tail, finite = _expected_view(label, p)

    def call(ww):
        param = _library_param(ww, label, p)
        view = ww.realize(param, cutoff)
        back = ww.parametrize(ww.biconvex.window_of_view(view))
        return back == param, frozenset(view.tail), frozenset(map(_plain_root, view.finite_part))

    def check(out):
        same, got_tail, got_finite = out
        errors = [] if same else [f"{label} {p}: parametrize(realize(p)) != p"]
        if (got_tail, got_finite) != (tail, finite):
            errors.append(f"{label} {p}: realized view differs from u(tail) + u N(y)")
        return errors

    return call, check


def _q_classify_biconvex(g: _Gen):
    label = g.label()
    rs = o.system(label)
    J = rs.index_set
    letters = g.letters(label, J, WORD_LEN)
    inv = o.word_inversions(rs, J, letters)
    cutoff = max((m for m, _ in inv), default=0) + 1

    def call(ww):
        lrs = ww.build_root_system(label)
        full = ww.sub_system(lrs, J)
        x = ww.affine.from_letters(full, _letters(ww, letters))
        window = ww.WindowSet(sub=full, cutoff=cutoff, elements=_roots(ww, inv))
        case, z = ww.classify_biconvex(window)
        case_c, z_c = ww.classify_biconvex(window.complement())
        return case, z == x, case_c, z_c == x

    def check(out):
        if out != ("a", True, "b", True):
            return [f"{label} {letters}: inversion window classified as {out}"]
        return []

    return call, check


def _q_window_test(g: _Gen):
    label = g.label()
    rs = o.system(label)
    J = rs.index_set
    cutoff = 1 if rs.rank > 2 else g.rng.randint(1, 2)
    inv = o.word_inversions(rs, J, g.letters(label, J, WORD_LEN))
    S = {b for b in inv if b[0] <= cutoff}
    if g.rng.random() < 0.5:
        S ^= {g.rng.choice(o.window(label, J, cutoff))}
    S = frozenset(S)
    expected = o.closed_both_ways(label, J, cutoff, S)

    def call(ww):
        lrs = ww.build_root_system(label)
        return ww.is_biconvex_window(_roots(ww, S), ww.sub_system(lrs, J), cutoff)

    def check(out):
        return [] if out == expected else [f"{label} cutoff={cutoff}: verdict {out} on {sorted(S, key=str)}"]

    return call, check


def _q_enumerate(g: _Gen):
    label, cutoff, size = g.rng.choice(ENUMERATE_MENU)
    expected = o.window_biconvex_sets(label, cutoff, size)

    def call(ww):
        lrs = ww.build_root_system(label)
        sets = ww.enumerate_biconvex(ww.sub_system(lrs, lrs.index_set), cutoff, size)
        return [frozenset(map(_plain_root, s)) for s in sets]

    def check(out):
        if len(out) != len(set(out)) or set(out) != expected:
            return [f"{label} cutoff={cutoff} size<={size}: {len(out)} sets, expected {len(expected)}"]
        return []

    return call, check


def _q_reduced_word(g: _Gen):
    label = g.label()
    rs = o.system(label)
    J = g.nonempty(rs.index_set)
    letters = g.letters(label, J, WORD_LEN)
    x = o.from_letters(rs, J, letters)
    length = len(o.word_inversions(rs, J, letters))

    def call(ww):
        sub = ww.sub_system(ww.build_root_system(label), J)
        return _plain_letters(ww.affine_reduced_word(ww.affine.from_letters(sub, _letters(ww, letters)), sub))

    def check(out):
        errors = []
        if len(out) != length:
            errors.append(f"{label} J={J} {letters}: reduced word of length {len(out)} != {length}")
        if o.from_letters(rs, J, out) != x:
            errors.append(f"{label} J={J} {letters}: reduced word names another element")
        return errors

    return call, check


def _word_inputs(g: _Gen):
    label = g.label()
    J = o.system(label).index_set
    return (label, J, g.subset(J, proper=True), g.letters(label, J, ACT_LEN),
            g.letters(label, J, ACT_LEN))


def _q_act_on_word(g: _Gen):
    label, J, K, y, x = _word_inputs(g)

    def call(ww):
        full = ww.sub_system(ww.build_root_system(label), J)
        base = ww.translation_word(full, K)
        acted = ww.act_on_word(ww.affine.from_letters(full, _letters(ww, x)),
                               ww.act_on_word(ww.affine.from_letters(full, _letters(ww, y)), base))
        return tuple(ww.classify_word(acted).K)

    def check(out):
        return [] if out == K else [f"{label} K={K}: acting moved K to {out}"]

    return call, check


def _q_words_equivalent(g: _Gen):
    label, J, K, y, x = _word_inputs(g)

    def call(ww):
        full = ww.sub_system(ww.build_root_system(label), J)
        base = ww.translation_word(full, K)
        xe = ww.affine.from_letters(full, _letters(ww, x))
        ye = ww.affine.from_letters(full, _letters(ww, y))
        return ww.words_equivalent(ww.act_on_word(xe, ww.act_on_word(ye, base)),
                                   ww.act_on_word(xe * ye, base))

    def check(out):
        return [] if out is True else [f"{label} K={K}: act(x, act(y, w)) !~ act(xy, w)"]

    return call, check


def _q_word_of_param(g: _Gen):
    label = g.label()
    p = g.param(label, proper=True)

    def call(ww):
        param = _library_param(ww, label, p)
        return ww.classify_word(ww.word_of_param(param)).param == param

    def check(out):
        return [] if out is True else [f"{label} {p}: classify_word(word_of_param(p)) != p"]

    return call, check


def _q_contained_mod_finite(g: _Gen):
    label = g.label()
    rs = o.system(label)
    p1 = g.param(label)
    if g.rng.random() < 0.5:
        J, K1 = p1["J"], p1["K"]
        K2 = g.subset(K1)
        u2 = o.reduced_finite_word(
            rs, o.minimal_coset_word(rs, p1["u"] + g.finite_word(K1, WORD_LEN), K2))
        p2 = dict(J=J, K=K2, u=u2, y=g.letters(label, K2, WORD_LEN))
    else:
        p2 = g.param(label, J=p1["J"])
    expected = o.tail(label, p1["J"], p1["K"], p1["u"]) <= o.tail(label, p2["J"], p2["K"], p2["u"])

    def call(ww):
        return ww.contained_mod_finite(_library_param(ww, label, p1), _library_param(ww, label, p2))

    def check(out):
        return [] if out == expected else [f"{label} {p1} vs {p2}: {out}, tails say {expected}"]

    return call, check


def _cli(ww, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ww.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _json_of(out):
    code, text, err = out
    if code != 0:
        return None, [f"exit {code}: {err.strip()[:200]}"]
    return json.loads(text), []


def _q_cli_weyl(g: _Gen):
    label = g.label()
    rs = o.system(label)
    word = g.finite_word(rs.index_set, WORD_LEN)
    argv = ["weyl", "--type", label, "--word", ",".join(map(str, word))]
    images = o.finite_images(rs, word)
    length = len(o.reduced_finite_word(rs, word))
    inversions = sorted(list(r) for r in o.finite_inversions(rs, word))

    def check(out):
        data, errors = _json_of(out)
        if errors:
            return errors
        if data["length"] != length or len(data["word"]) != length:
            errors.append(f"{argv}: length {data['length']} != {length}")
        if o.finite_images(rs, data["word"]) != images:
            errors.append(f"{argv}: reported word names another element")
        if sorted(data["inversions"]) != inversions:
            errors.append(f"{argv}: wrong inversion set")
        return errors

    return (lambda ww: _cli(ww, argv)), check


def _pair_param(g: _Gen, label):
    rs = o.system(label)
    J = g.nonempty(rs.index_set)
    K = g.subset(J)
    lam, wbar = g.pair(label, K)
    return dict(J=list(J), K=list(K), u=g.coset_rep(label, J, K),
                y={"lambda": list(lam), "wbar": wbar})


def _pair_view(label, p):
    finite = o.finite_part(label, p["K"], p["u"], p["y"]["lambda"], p["y"]["wbar"])
    return o.tail(label, p["J"], p["K"], p["u"]), finite


def _q_cli_realize(g: _Gen):
    label = g.label()
    p = _pair_param(g, label)
    tail, finite = _pair_view(label, p)
    cutoff = len(p["u"]) + len(finite) + 2
    argv = ["biconvex", "realize", "--type", label, "--param", json.dumps(p),
            "--cutoff", str(cutoff)]

    def check(out):
        data, errors = _json_of(out)
        if errors:
            return errors
        got_tail = frozenset(tuple(r) for r in data["tail"])
        got_finite = frozenset((b["level"], tuple(b["classical"])) for b in data["finite"])
        if (got_tail, got_finite, data["cutoff"]) != (tail, finite, cutoff):
            errors.append(f"{argv}: view differs from u(tail) + u N(y)")
        return errors

    return (lambda ww: _cli(ww, argv)), check


def _q_cli_parametrize(g: _Gen):
    label = g.label()
    rs = o.system(label)
    p = _pair_param(g, label)
    tail, finite = _pair_view(label, p)
    view = {
        "tail": sorted(list(r) for r in tail),
        "finite": [{"level": m, "classical": list(eps)} for m, eps in sorted(finite)],
        "cutoff": len(p["u"]) + len(finite) + 2,
    }
    argv = ["biconvex", "parametrize", "--type", label,
            "--J", ",".join(map(str, p["J"])), "--view", json.dumps(view)]

    def check(out):
        data, errors = _json_of(out)
        if errors:
            return errors
        if (data["J"], data["K"], data["y"]["lambda"]) != (p["J"], p["K"], p["y"]["lambda"]):
            errors.append(f"{argv}: parameters {data} != {p}")
        elif o.finite_images(rs, data["u"]) != o.finite_images(rs, p["u"]):
            errors.append(f"{argv}: u differs")
        elif o.finite_images(rs, data["y"]["wbar"]) != o.finite_images(rs, p["y"]["wbar"]):
            errors.append(f"{argv}: wbar differs")
        return errors

    return (lambda ww: _cli(ww, argv)), check


def _q_cli_classify(g: _Gen):
    label = g.label()
    rs = o.system(label)
    J = rs.index_set
    lam, wbar = g.pair(label, J)
    inv = o.finite_part(label, J, [], lam, wbar)
    cutoff = max((m for m, _ in inv), default=0) + 1
    window = {"J": list(J), "cutoff": cutoff,
              "elements": [{"level": m, "classical": list(eps)} for m, eps in sorted(inv)]}
    argv = ["biconvex", "classify", "--type", label, "--window", json.dumps(window)]

    def check(out):
        data, errors = _json_of(out)
        if errors:
            return errors
        if data.get("case") != "a" or data["element"]["lambda"] != list(lam):
            errors.append(f"{argv}: classified as {data}")
        elif o.finite_images(rs, data["element"]["wbar"]) != o.finite_images(rs, wbar):
            errors.append(f"{argv}: witness has the wrong finite part")
        return errors

    return (lambda ww: _cli(ww, argv)), check


def _q_cli_word_make(g: _Gen):
    label = g.label()
    J = o.system(label).index_set
    K = g.subset(J, proper=True)
    argv = ["word", "make", "--type", label, "--K", ",".join(map(str, K)), "--cutoff", "2"]

    def check(out):
        data, errors = _json_of(out)
        if errors:
            return errors
        period = [next(iter(d.items())) for d in data["period"]]
        errors = [f"{argv}: {e}" for e in o.check_translation_period(label, J, K, period)]
        if data["head"]:
            errors.append(f"{argv}: base word has a head")
        return errors

    return (lambda ww: _cli(ww, argv)), check


def _q_cli_enumerate(g: _Gen):
    label, cutoff, size = g.rng.choice(ENUMERATE_MENU)
    expected = o.window_biconvex_sets(label, cutoff, size)
    argv = ["biconvex", "enumerate", "--type", label, "--cutoff", str(cutoff),
            "--max-size", str(size)]

    def check(out):
        data, errors = _json_of(out)
        if errors:
            return errors
        got = [frozenset((b["level"], None if b["classical"] is None else tuple(b["classical"]))
                         for b in s) for s in data["sets"]]
        if data["count"] != len(expected) or set(got) != expected:
            errors.append(f"{argv}: {data['count']} sets, expected {len(expected)}")
        return errors

    return (lambda ww: _cli(ww, argv)), check


def _q_malformed(argv):
    def check(out):
        if isinstance(out, BaseException):
            return [f"{argv}: {type(out).__name__} escaped"]
        code, text, err = out
        if code != 2 or text or len(err.strip().splitlines()) != 1 or not err.startswith("error:"):
            return [f"{argv}: exit {code}, stderr {err.strip()[:80]!r}"]
        return []

    def call(ww):
        try:
            return _cli(ww, argv)
        except Exception as exc:  # an escaped exception is this query's answer
            return exc

    return call, check


QUERIES = {
    "realize-parametrize": _q_realize_parametrize,
    "classify-biconvex": _q_classify_biconvex,
    "window-test": _q_window_test,
    "enumerate": _q_enumerate,
    "reduced-word": _q_reduced_word,
    "act-on-word": _q_act_on_word,
    "words-equivalent": _q_words_equivalent,
    "word-of-param": _q_word_of_param,
    "contained-mod-finite": _q_contained_mod_finite,
    "cli-weyl": _q_cli_weyl,
    "cli-realize": _q_cli_realize,
    "cli-parametrize": _q_cli_parametrize,
    "cli-classify": _q_cli_classify,
    "cli-word-make": _q_cli_word_make,
    "cli-enumerate": _q_cli_enumerate,
}


def query_mix(seed: int, round_no: int, smoke: bool):
    rng = random.Random(f"query-mix/{seed}/{round_no}")
    gen = _Gen(rng)
    malformed = 0
    for _ in range(SMOKE_BLOCKS if smoke else BLOCKS):
        kinds = [k for k in LIBRARY_KINDS + CLI_KINDS + ("cli-malformed",)
                 for _ in range(PER_KIND)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "cli-malformed":
                argv, fault = MALFORMED[malformed % len(MALFORMED)]
                malformed += 1
                call, check = _q_malformed(argv)
                yield Op(kind, call, check, known_fault=fault)
            else:
                call, check = QUERIES[kind](gen)
                yield Op(kind, call, check)


def query_mix_systems(smoke: bool):
    return [(lb, J) for lb in MIX_LABELS for J in _subsets(o.system(lb).index_set)]


WORKLOADS = {
    "verify-sweep": (verify_sweep, verify_sweep_systems),
    "rank-ladder": (rank_ladder, rank_ladder_systems),
    "query-mix": (query_mix, query_mix_systems),
}


if __name__ == "__main__":
    # Print every expected value the checks use that is not computed per
    # input: the predicted check counts of the sweep and the Weyl group
    # tables of the ladder.  All come from the oracle; nothing is stored.
    for name, bounds in ACCEPTANCE + STRETCH:
        print(f"{name} {bounds}: {o.predicted_checks(name, **bounds)} checks")
    for label in LADDER_WEYL:
        print(f"|W({label})| = {o.weyl_order(o.EXPONENTS[label])},"
              f" Poincare {o.poincare(o.EXPONENTS[label])}")

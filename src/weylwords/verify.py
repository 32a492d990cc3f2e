"""Exhaustive desk-scale verification suites.

Each suite sweeps a bounded slice of the structure and checks an exact
property on all of it, reporting counterexamples verbatim.  These back
both the acceptance tests and the command-line ``verify`` subcommand.

Each suite is written as a sweep: a generator that yields one list of
failure messages per check (empty when the check passed) and returns its
detail line; a bare string it yields is a failure without a check.  One
runner, ``_suite``, times the sweep, counts its checks, keeps the first 20
counterexamples in order and builds the ``CheckResult``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter

from .cartan import build_root_system, sub_system
from .finweyl import (
    classify_subset,
    factor_pointed_biclosed,
    identity,
    minimal_coset_reps,
    tail_roots,
    weyl_elements,
)
from .affine import (
    AffineRoot,
    affine_identity,
    affine_inversion_set,
    affine_length,
    affine_window,
    bfs_elements,
    from_letters,
    letters_of,
    lift,
)
from .biconvex import (
    BiconvexParam,
    NotBiconvexError,
    WindowSet,
    classify_biconvex,
    enumerate_biconvex,
    is_biconvex_window,
    parametrize,
    realize,
)
from .words import (
    act_on_word,
    classify_word,
    inversion_at,
    limit_inversions,
    orbit_invariant,
    translation_word,
    word_of_param,
    word_window,
    words_equivalent,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str
    seconds: float
    counterexamples: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: {self.detail}"
            f" ({self.checked} checks, {self.seconds:.2f}s)"
        )


SUITES = {}  # suite name -> suite function, filled by _suite in definition order


def _suite(name):
    """Run the decorated sweep as the suite ``name`` (see the module
    docstring), registered in ``SUITES``."""

    def runner(sweep):
        @wraps(sweep)
        def run(*args, **kwargs) -> CheckResult:
            start = perf_counter()
            checked, failures = 0, []
            steps = sweep(*args, **kwargs)
            try:
                while True:
                    found = next(steps)
                    if isinstance(found, str):
                        failures.append(found)
                    else:
                        checked += 1
                        failures.extend(found)
            except StopIteration as done:
                detail = done.value
            return CheckResult(
                name=name,
                passed=not failures,
                checked=checked,
                detail=detail,
                seconds=perf_counter() - start,
                counterexamples=failures[:20],
            )

        SUITES[name] = run
        return run

    return runner


def _subsets(items):
    items = list(items)
    for bits in range(1 << len(items)):
        yield tuple(x for t, x in enumerate(items) if bits >> t & 1)


def _proper(J):
    """The subsets of J other than J itself."""
    return [K for K in _subsets(J) if set(K) != set(J)]


def _systems(labels):
    """Each canonical label (``"a02"`` is ``"A2"``) with its root system and
    the full subsystem.  Every label is built before the first is yielded,
    so a bad one fails the suite before any check runs."""
    systems = [build_root_system(label) for label in labels]
    for rs in systems:
        yield rs.label, rs, sub_system(rs, rs.index_set)


def _over(labels) -> str:
    """The labels as a detail line names them: canonical, comma-separated."""
    return ", ".join(build_root_system(label).label for label in labels)


def _depth(param):
    """A cutoff that holds the parameter's whole finite part, plus three levels."""
    return param.u.length + affine_length(param.y, sub_system(param.sub.rs, param.K)) + 3


def _random_element(rng, sub, max_letters):
    """A product of a random number (0..max_letters) of random letters."""
    alphabet = letters_of(sub)
    return from_letters(
        sub, [rng.choice(alphabet) for _ in range(rng.randint(0, max_letters))]
    )


def _params_for(rs, J, max_y, proper_only=False):
    sub = sub_system(rs, J)
    for K in _proper(sub.J) if proper_only else _subsets(sub.J):
        K_sub = sub_system(rs, K)
        ys = list(bfs_elements(K_sub, max_y)) if K else [affine_identity(rs)]
        for u in minimal_coset_reps(sub, K):
            for y in ys:
                # Valid by construction: K is a sorted subset of sub.J, u is in
                # W^J_K by minimal_coset_reps, and y is in K's own BFS ball.
                yield BiconvexParam._trusted(sub, K, u, y)


@_suite("finite-bijection")
def check_finite_bijection(
    labels=("A1", "A2", "C2"), max_length=5, cutoff=6, brute_size=5, brute_level=2
):
    """Finite biconvex sets are exactly the inversion sets, injectively."""
    for label, _, full in _systems(labels):
        inversions = {}
        for x, dist in bfs_elements(full, max_length).items():
            inv = affine_inversion_set(x, full)
            bad = []
            if len(inv) != dist:
                bad.append(f"{label}: |inversions| != length for {x!r}")
            if not is_biconvex_window(inv, full, max([cutoff, *(b.level for b in inv)])):
                bad.append(f"{label}: inversion set of {x!r} not biconvex")
            if inv in inversions:
                bad.append(f"{label}: {x!r} collides with {inversions[inv]!r}")
            inversions[inv] = x
            yield bad
        # Compare only sets the ball can hold.  The pair test decides a set
        # exactly up to half its cutoff, so the brute force runs at least 2 * brute_level deep.
        size, depth = min(brute_size, max_length), max(cutoff, 2 * brute_level)
        limit = len(affine_window(full, depth))  # the suite's own bounds size the window
        brute = set(enumerate_biconvex(full, depth, size, window_limit=limit))
        for S in brute:
            if all(b.level <= brute_level for b in S):
                yield [] if S in inversions else [
                    f"{label}: brute-force set {sorted(map(str, S))} is not an inversion set"
                ]
        for inv, x in inversions.items():
            if len(inv) <= size and all(b.level <= brute_level for b in inv):
                yield [] if inv in brute else [
                    f"{label}: inversion set of {x!r} missed by brute force"
                ]
    return f"inversion sets vs brute force over {_over(labels)}"


@_suite("subsets")
def check_subset_classification(labels=("A2", "B2", "C2")):
    """Exhaustive subset scan: factorization, parabolic shape, parts."""
    for label, rs, _ in _systems(labels):
        for J in _subsets(rs.index_set):
            sub = sub_system(rs, J)
            table, parabolic = {}, set()
            for K in _subsets(J):
                base = sub.positives + sub_system(rs, K).negatives  # fixed by W_K
                for u in minimal_coset_reps(sub, K):
                    image = tail_roots(sub, K, u)
                    if image in table:
                        yield f"{label} J={J}: duplicate tail image"
                    table[image] = (K, u)
                    parabolic.add(frozenset(u.apply(r) for r in base))
            for P in _subsets(sub.roots):
                P = frozenset(P)
                flags = classify_subset(P, sub)
                is_pb = flags.pointed and flags.biclosed_in_J
                bad = []
                if is_pb != (flags.pointed and flags.coclosed_in_J):
                    bad.append(f"{label} J={J}: biclosed/coclosed split on {P}")
                if is_pb != (P in table):
                    bad.append(f"{label} J={J}: factorization mismatch on {P}")
                if is_pb and factor_pointed_biclosed(P, sub) != table[P]:
                    bad.append(f"{label} J={J}: wrong (K,u) for {P}")
                if flags.parabolic_in_J != (P in parabolic):
                    bad.append(f"{label} J={J}: parabolic mismatch on {P}")
                if flags.pointed_part | flags.symmetric_part != P:
                    bad.append(f"{label} J={J}: parts do not partition {P}")
                if flags.closed:
                    for a in flags.pointed_part:
                        for b in flags.symmetric_part:
                            s = tuple(x + y for x, y in zip(a, b))
                            if s in rs.root_set and s not in flags.pointed_part:
                                bad.append(f"{label} J={J}: mixed sum left pointed part")
                yield bad
    return f"all subsets of all subsystems of {_over(labels)}"


@_suite("roundtrip")
def check_parametrization_roundtrip(labels=("A1", "A2"), max_y=4):
    """parametrize inverts realize; every realized window is biconvex.

    One window test at the full depth covers every smaller cutoff: a sum
    triple of the window at c <= depth is one at depth too, with the same
    members, so a failure at c is a failure at depth.
    """
    for label, rs, _ in _systems(labels):
        for J in filter(None, _subsets(rs.index_set)):
            for param in _params_for(rs, J, max_y):
                window = realize(param, _depth(param))
                try:
                    recovered = parametrize(window)
                except NotBiconvexError as exc:
                    yield [f"{label} {param!r}: rejected: {exc}"]
                    continue
                bad = []
                if recovered != param:
                    bad.append(f"{label}: {param!r} came back as {recovered!r}")
                if not is_biconvex_window(window, param.sub, window.cutoff):
                    bad.append(f"{label} {param!r}: window {window.cutoff} not biconvex")
                yield bad
    return f"all parameters with bounded finite part over {_over(labels)}"


def _listed(window) -> str:
    """A window as a failure names it: its members, then its tail promise."""
    return f"{sorted(map(str, window.elements))} with tail {sorted(window.tail)}"


@_suite("diagram")
def check_word_diagram(labels=("A1", "A2"), max_y=4):
    """The standard word of each parameter inverts exactly its view: the
    word's window equals the realized one, masks and tail promise."""
    for label, rs, _ in _systems(labels):
        for J in filter(None, _subsets(rs.index_set)):
            for param in _params_for(rs, J, max_y, proper_only=True):
                depth = _depth(param)
                got, expected = word_window(word_of_param(param), depth), realize(param, depth)
                yield [] if got == expected else [
                    f"{label} {param!r}: word has {_listed(got)}, view has {_listed(expected)}"
                ]
    return f"word-of-parameters matches views over {_over(labels)}"


@_suite("words")
def check_translation_words(labels=("A1", "A2", "C2"), cutoff=6):
    """Base words: positive distinct inversions; the window is that of (K, e, e)."""
    for label, rs, _ in _systems(labels):
        for J in filter(None, _subsets(rs.index_set)):
            sub = sub_system(rs, J)
            for K in _proper(J):
                word = translation_word(sub, K)
                values = [inversion_at(word, p) for p in range(1, 3 * len(word.period) + 1)]
                bad = []
                if not all(v.is_positive for v in values):
                    bad.append(f"{label} J={J} K={K}: negative inversion")
                if len(set(values)) != len(values):
                    bad.append(f"{label} J={J} K={K}: repeated inversion")
                base = BiconvexParam(sub, K, identity(rs), affine_identity(rs))
                if word_window(word, cutoff) != realize(base, cutoff):
                    bad.append(f"{label} J={J} K={K}: wrong inversion limit")
                yield bad
    return f"translation words for every proper K over {_over(labels)}"


def _action_formula(x, word, cutoff):
    sub = word.sub
    rs, lam = sub.rs, x.translation  # a property that derives lambda: read it once
    shift = max((abs(rs.coroot_pairing(eps, lam)) for eps in sub.roots), default=0)
    source = limit_inversions(word, cutoff + shift)
    moved = {x.act(b) for b in source}
    omega = {b for b in moved if not b.is_positive}
    inv_x = affine_inversion_set(x, sub)
    combined = {b for b in inv_x if -b not in omega} | (moved - omega)
    return frozenset(b for b in combined if b.level <= cutoff)


@_suite("action")
def check_action_laws(labels=("A1", "A2"), samples=200, max_x=3, cutoff=6, seed=2024):
    """Random actions match the inversion-set formula and compose."""
    rng = random.Random(seed)
    per_label = max(1, samples // len(labels))
    for label, rs, full in _systems(labels):
        proper = _proper(rs.index_set)
        for _ in range(per_label):
            K = rng.choice(proper)
            base = translation_word(full, K)
            y = _random_element(rng, full, max_x)
            word = act_on_word(y, base)
            x = _random_element(rng, full, max_x)
            acted = act_on_word(x, word)
            bad = []
            if limit_inversions(acted, cutoff) != _action_formula(x, word, cutoff):
                bad.append(f"{label}: formula mismatch for x={x!r} on K={K}")
            if not words_equivalent(acted, act_on_word(x * y, base)):
                bad.append(f"{label}: action is not compatible with products")
            yield bad
    return f"{per_label} random actions per type over {_over(labels)}"


@_suite("orbit")
def check_orbit_decomposition(labels=("A1", "A2"), samples=100, seed=77):
    """K is constant along orbits and separates them; A1 has two classes."""
    rng = random.Random(seed)
    for label, rs, full in _systems(labels):
        proper = _proper(rs.index_set)
        for K in proper:
            word = translation_word(full, K)
            if orbit_invariant(word) != K:
                yield f"{label}: base word for K={K} misclassified"
            for _ in range(samples):
                x = _random_element(rng, full, 4)
                moved = orbit_invariant(act_on_word(x, word)) != K
                yield [f"{label}: invariant moved under {x!r} (K={K})"] if moved else []
                if moved:
                    break
        for K1 in proper:
            for K2 in proper:
                if K1 < K2:
                    merged = words_equivalent(
                        translation_word(full, K1), translation_word(full, K2)
                    )
                    yield [f"{label}: K={K1} and K={K2} merged"] if merged else []

    [(_, _, full)] = _systems(("A1",))
    classes = [
        classify_word(act_on_word(lift(u), translation_word(full, ())))
        for u in weyl_elements(full)
    ]
    tails = {realize(c.param, 1).tail for c in classes}
    bad = []
    if tails != {frozenset({(-1,)}), frozenset({(1,)})}:
        bad.append(f"A1: expected two classes with opposite tails, got {tails}")
    if len({c.param for c in classes}) != 2:
        bad.append("A1: orbit of the base class has the wrong size")
    yield bad
    return f"{samples} random actions per class over {_over(labels)}"


@_suite("length")
def check_length_bfs(labels=("A1", "A2", "C2"), max_length=6):
    """Closed-form length equals graph distance in the Cayley graph."""
    for label, _, full in _systems(labels):
        for x, dist in bfs_elements(full, max_length).items():
            length = affine_length(x, full)
            yield [] if length == dist else [
                f"{label}: {x!r} has distance {dist} but length {length}"
            ]
    return f"lengths to {max_length} over {_over(labels)}"


@_suite("four-cases")
def check_four_cases(labels=("A1", "A2"), cutoff=4, max_y=3):
    """Every window built from the four structural cases classifies back."""
    for label, rs, full in _systems(labels):
        for x in bfs_elements(full, max_y):
            inv = affine_inversion_set(x, full)
            # A window cut below the top inversion level misreads the element.
            top = max([cutoff, *(b.level for b in inv)])
            finite = WindowSet(sub=full, cutoff=top, elements=inv)
            bad = []
            case, witness = classify_biconvex(finite)
            if case != "a" or witness != x:
                bad.append(f"{label}: inversion window of {x!r} -> {case}")
            case, witness = classify_biconvex(finite.complement())
            if case != "b" or witness != x:
                bad.append(f"{label}: complement window of {x!r} -> {case}")
            yield bad
        for param in _params_for(rs, rs.index_set, 2, proper_only=True):
            window = realize(param, cutoff)
            bad = []
            case, witness = classify_biconvex(window)
            if case != "c" or witness != param:
                bad.append(f"{label}: view of {param!r} -> {case}")
            case, witness = classify_biconvex(window.complement())
            if case != "d" or witness != param:
                bad.append(f"{label}: complement of {param!r} -> {case}")
            yield bad
        not_biconvex = WindowSet(sub=full, cutoff=2, elements=frozenset({AffineRoot(1, None)}))
        try:
            classify_biconvex(not_biconvex)
        except NotBiconvexError:
            yield []
        else:
            yield [f"{label}: non-biconvex window was classified"]
    return f"windows of all four kinds over {_over(labels)}"


def run_suite(name: str, **kwargs) -> CheckResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)

"""Exhaustive desk-scale verification suites.

Each suite sweeps a bounded slice of the structure and checks an exact
property on all of it, reporting counterexamples verbatim.  These back
both the acceptance tests and the command-line ``verify`` subcommand.
"""

from __future__ import annotations

import random
from time import perf_counter
from dataclasses import dataclass, field

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
    bfs_elements,
    from_letters,
    letters_of,
    lift,
    tail_set,
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


def _result(name, start, checked, failures, detail) -> CheckResult:
    return CheckResult(
        name=name,
        passed=not failures,
        checked=checked,
        detail=detail,
        seconds=perf_counter() - start,
        counterexamples=failures[:20],
    )


def _subsets(items):
    items = list(items)
    for bits in range(1 << len(items)):
        yield tuple(x for t, x in enumerate(items) if bits >> t & 1)


def _params_for(rs, J, max_y, proper_only=False):
    sub = sub_system(rs, J)
    for K in _subsets(J):
        if proper_only and set(K) == set(J):
            continue
        K_sub = sub_system(rs, K)
        ys = list(bfs_elements(K_sub, max_y)) if K else [affine_identity(rs)]
        for u in minimal_coset_reps(sub, K):
            for y in ys:
                yield BiconvexParam(sub=sub, K=K, u=u, y=y)


def check_finite_bijection(
    labels=("A1", "A2", "C2"), max_length=5, cutoff=6, brute_size=5, brute_level=2
) -> CheckResult:
    """Finite biconvex sets are exactly the inversion sets, injectively."""
    start = perf_counter()
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        full = sub_system(rs, rs.index_set)
        inversions = {}
        for x, dist in bfs_elements(full, max_length).items():
            inv = affine_inversion_set(x, full)
            checked += 1
            if len(inv) != dist:
                failures.append(f"{label}: |inversions| != length for {x!r}")
            if not is_biconvex_window(inv, full, cutoff):
                failures.append(f"{label}: inversion set of {x!r} not biconvex")
            if inv in inversions:
                failures.append(f"{label}: {x!r} collides with {inversions[inv]!r}")
            inversions[inv] = x
        brute = set(enumerate_biconvex(full, cutoff, brute_size))
        for S in brute:
            if any(b.level > brute_level for b in S):
                continue
            checked += 1
            if S not in inversions:
                failures.append(f"{label}: brute-force set {sorted(map(str, S))} "
                                "is not an inversion set")
        for inv, x in inversions.items():
            if len(inv) <= brute_size and all(b.level <= brute_level for b in inv):
                checked += 1
                if inv not in brute:
                    failures.append(
                        f"{label}: inversion set of {x!r} missed by brute force"
                    )
    return _result(
        "finite-bijection", start, checked, failures,
        f"inversion sets vs brute force over {', '.join(labels)}",
    )


def check_subset_classification(labels=("A2", "B2", "C2")) -> CheckResult:
    """Exhaustive subset scan: factorization, parabolic shape, parts."""
    start = perf_counter()
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        for J in _subsets(rs.index_set):
            sub = sub_system(rs, J)
            table = {}
            for K in _subsets(J):
                for u in minimal_coset_reps(sub, K):
                    image = tail_roots(sub, K, u)
                    if image in table:
                        failures.append(f"{label} J={J}: duplicate tail image")
                    table[image] = (K, u)
            parabolic = set()
            for K in _subsets(J):
                base = list(sub.positives) + list(sub_system(rs, K).negatives)
                for w in weyl_elements(sub):
                    parabolic.add(frozenset(w.apply(r) for r in base))
            for P in _subsets(sub.roots):
                P = frozenset(P)
                checked += 1
                flags = classify_subset(P, sub)
                is_pb = flags.pointed and flags.biclosed_in_J
                if is_pb != (flags.pointed and flags.coclosed_in_J):
                    failures.append(f"{label} J={J}: biclosed/coclosed split on {P}")
                if is_pb != (P in table):
                    failures.append(f"{label} J={J}: factorization mismatch on {P}")
                if is_pb and factor_pointed_biclosed(P, sub) != table[P]:
                    failures.append(f"{label} J={J}: wrong (K,u) for {P}")
                if flags.parabolic_in_J != (P in parabolic):
                    failures.append(f"{label} J={J}: parabolic mismatch on {P}")
                if flags.pointed_part | flags.symmetric_part != P:
                    failures.append(f"{label} J={J}: parts do not partition {P}")
                if flags.closed:
                    for a in flags.pointed_part:
                        for b in flags.symmetric_part:
                            s = tuple(x + y for x, y in zip(a, b))
                            if s in rs.root_set and s not in flags.pointed_part:
                                failures.append(
                                    f"{label} J={J}: mixed sum left pointed part"
                                )
    return _result(
        "subsets", start, checked, failures,
        f"all subsets of all subsystems of {', '.join(labels)}",
    )


def check_parametrization_roundtrip(labels=("A1", "A2"), max_y=4) -> CheckResult:
    """parametrize inverts realize; every realized window is biconvex.

    One window test at the full depth covers every smaller cutoff: a sum
    triple of the window at c <= depth is one at depth too, with the same
    members, so a failure at c is a failure at depth.
    """
    start = perf_counter()
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        for J in _subsets(rs.index_set):
            if not J:
                continue
            for param in _params_for(rs, J, max_y):
                checked += 1
                depth = param.u.length + affine_length(
                    param.y, sub_system(rs, param.K)
                ) + 3
                window = realize(param, depth)
                try:
                    recovered = parametrize(window)
                except NotBiconvexError as exc:
                    failures.append(f"{label} {param!r}: rejected: {exc}")
                    continue
                if recovered != param:
                    failures.append(f"{label}: {param!r} came back as {recovered!r}")
                if not is_biconvex_window(window.elements, param.sub, window.cutoff):
                    failures.append(
                        f"{label} {param!r}: window {window.cutoff} not biconvex"
                    )
    return _result(
        "roundtrip", start, checked, failures,
        f"all parameters with bounded finite part over {', '.join(labels)}",
    )


def check_word_diagram(labels=("A1", "A2"), max_y=4) -> CheckResult:
    """The standard word of each parameter inverts exactly its view."""
    start = perf_counter()
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        for J in _subsets(rs.index_set):
            if not J:
                continue
            for param in _params_for(rs, J, max_y, proper_only=True):
                checked += 1
                depth = param.u.length + affine_length(
                    param.y, sub_system(rs, param.K)
                ) + 3
                word = word_of_param(param)
                got = limit_inversions(word, depth)
                expected = realize(param, depth).truncate(depth)
                if got != expected:
                    failures.append(
                        f"{label} {param!r}: word inverts {sorted(map(str, got))}, "
                        f"view holds {sorted(map(str, expected))}"
                    )
    return _result(
        "diagram", start, checked, failures,
        f"word-of-parameters matches views over {', '.join(labels)}",
    )


def check_translation_words(labels=("A1", "A2", "C2"), cutoff=6) -> CheckResult:
    """Base words: positive distinct inversions; limit equals the tail."""
    start = perf_counter()
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        for J in _subsets(rs.index_set):
            if not J:
                continue
            sub = sub_system(rs, J)
            for K in _subsets(J):
                if set(K) == set(J):
                    continue
                checked += 1
                word = translation_word(sub, K)
                bound = 3 * len(word.period)
                values = [inversion_at(word, p) for p in range(1, bound + 1)]
                if not all(v.is_positive for v in values):
                    failures.append(f"{label} J={J} K={K}: negative inversion")
                if len(set(values)) != len(values):
                    failures.append(f"{label} J={J} K={K}: repeated inversion")
                if limit_inversions(word, cutoff) != tail_set(
                    sub, K, identity(rs), -1, cutoff
                ):
                    failures.append(f"{label} J={J} K={K}: wrong inversion limit")
    return _result(
        "words", start, checked, failures,
        f"translation words for every proper K over {', '.join(labels)}",
    )


def _action_formula(x, word, cutoff):
    sub = word.sub
    rs = sub.rs
    shift = max(
        (abs(rs.coroot_pairing(eps, x.translation)) for eps in sub.roots), default=0
    )
    source = limit_inversions(word, cutoff + shift)
    moved = {x.act(b) for b in source}
    omega = {b for b in moved if not b.is_positive}
    inv_x = affine_inversion_set(x, sub)
    combined = {b for b in inv_x if -b not in omega} | (moved - omega)
    return frozenset(b for b in combined if b.level <= cutoff)


def check_action_laws(
    labels=("A1", "A2"), samples=200, max_x=3, cutoff=6, seed=2024
) -> CheckResult:
    """Random actions match the inversion-set formula and compose."""
    start = perf_counter()
    rng = random.Random(seed)
    checked = 0
    failures = []
    per_label = max(1, samples // len(labels))
    for label in labels:
        rs = build_root_system(label)
        full = sub_system(rs, rs.index_set)
        alphabet = letters_of(full)
        proper = [K for K in _subsets(rs.index_set) if set(K) != set(rs.index_set)]
        for _ in range(per_label):
            checked += 1
            K = rng.choice(proper)
            base = translation_word(full, K)
            y = from_letters(
                full, [rng.choice(alphabet) for _ in range(rng.randint(0, max_x))]
            )
            word = act_on_word(y, base)
            x = from_letters(
                full, [rng.choice(alphabet) for _ in range(rng.randint(0, max_x))]
            )
            acted = act_on_word(x, word)
            if limit_inversions(acted, cutoff) != _action_formula(x, word, cutoff):
                failures.append(f"{label}: formula mismatch for x={x!r} on K={K}")
            if not words_equivalent(acted, act_on_word(x * y, base)):
                failures.append(f"{label}: action is not compatible with products")
    return _result(
        "action", start, checked, failures,
        f"{per_label} random actions per type over {', '.join(labels)}",
    )


def check_orbit_decomposition(labels=("A1", "A2"), samples=100, seed=77) -> CheckResult:
    """K is constant along orbits and separates them; A1 has two classes."""
    start = perf_counter()
    rng = random.Random(seed)
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        full = sub_system(rs, rs.index_set)
        alphabet = letters_of(full)
        proper = [K for K in _subsets(rs.index_set) if set(K) != set(rs.index_set)]
        for K in proper:
            word = translation_word(full, K)
            if orbit_invariant(word) != K:
                failures.append(f"{label}: base word for K={K} misclassified")
            for _ in range(samples):
                checked += 1
                x = from_letters(
                    full, [rng.choice(alphabet) for _ in range(rng.randint(0, 4))]
                )
                if orbit_invariant(act_on_word(x, word)) != K:
                    failures.append(f"{label}: invariant moved under {x!r} (K={K})")
                    break
        for K1 in proper:
            for K2 in proper:
                if K1 < K2:
                    checked += 1
                    if words_equivalent(
                        translation_word(full, K1), translation_word(full, K2)
                    ):
                        failures.append(f"{label}: K={K1} and K={K2} merged")

    rs = build_root_system("A1")
    full = sub_system(rs, rs.index_set)
    classes = [
        classify_word(act_on_word(lift(u), translation_word(full, ())))
        for u in weyl_elements(full)
    ]
    tails = {realize(c.param, 1).tail for c in classes}
    checked += 1
    if tails != {frozenset({(-1,)}), frozenset({(1,)})}:
        failures.append(f"A1: expected two classes with opposite tails, got {tails}")
    if len({c.param for c in classes}) != 2:
        failures.append("A1: orbit of the base class has the wrong size")
    return _result(
        "orbit", start, checked, failures,
        f"{samples} random actions per class over {', '.join(labels)}",
    )


def check_length_bfs(labels=("A1", "A2", "C2"), max_length=6) -> CheckResult:
    """Closed-form length equals graph distance in the Cayley graph."""
    start = perf_counter()
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        full = sub_system(rs, rs.index_set)
        for x, dist in bfs_elements(full, max_length).items():
            checked += 1
            if affine_length(x, full) != dist:
                failures.append(f"{label}: {x!r} has distance {dist} but "
                                f"length {affine_length(x, full)}")
    return _result(
        "length", start, checked, failures,
        f"lengths to {max_length} over {', '.join(labels)}",
    )


def check_four_cases(labels=("A1", "A2"), cutoff=4, max_y=3) -> CheckResult:
    """Every window built from the four structural cases classifies back."""
    start = perf_counter()
    checked = 0
    failures = []
    for label in labels:
        rs = build_root_system(label)
        full = sub_system(rs, rs.index_set)
        for x, _ in bfs_elements(full, max_y).items():
            checked += 1
            inv = affine_inversion_set(x, full)
            # A window cut below the top inversion level misreads the element.
            top = max([cutoff, *(b.level for b in inv)])
            finite = WindowSet(sub=full, cutoff=top, elements=inv)
            case, witness = classify_biconvex(finite)
            if case != "a" or witness != x:
                failures.append(f"{label}: inversion window of {x!r} -> {case}")
            case, witness = classify_biconvex(finite.complement())
            if case != "b" or witness != x:
                failures.append(f"{label}: complement window of {x!r} -> {case}")
        for param in _params_for(rs, rs.index_set, 2, proper_only=True):
            checked += 1
            window = realize(param, cutoff)
            case, witness = classify_biconvex(window)
            if case != "c" or witness != param:
                failures.append(f"{label}: view of {param!r} -> {case}")
            case, witness = classify_biconvex(window.complement())
            if case != "d" or witness != param:
                failures.append(f"{label}: complement of {param!r} -> {case}")
        bad = WindowSet(
            sub=full,
            cutoff=2,
            elements=frozenset({AffineRoot(1, None)}),
        )
        checked += 1
        try:
            classify_biconvex(bad)
            failures.append(f"{label}: non-biconvex window was classified")
        except NotBiconvexError:
            pass
    return _result(
        "four-cases", start, checked, failures,
        f"windows of all four kinds over {', '.join(labels)}",
    )


SUITES = {
    "finite-bijection": check_finite_bijection,
    "subsets": check_subset_classification,
    "roundtrip": check_parametrization_roundtrip,
    "diagram": check_word_diagram,
    "words": check_translation_words,
    "action": check_action_laws,
    "orbit": check_orbit_decomposition,
    "length": check_length_bfs,
    "four-cases": check_four_cases,
}


def run_suite(name: str, **kwargs) -> CheckResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
